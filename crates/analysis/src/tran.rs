//! Transient analysis.
//!
//! Fixed-step implicit integration (trapezoidal by default, backward Euler
//! for the first step and after breakpoints) with a full Newton solve of
//! the nonlinear companion system at every step. The step may be halved
//! locally when Newton fails to converge; results are always reported on
//! the caller's uniform grid so FFT post-processing needs no resampling.
//!
//! RF measurement flows sample mixers coherently (see
//! `remix_dsp::tone::CoherentPlan`); a fixed step that divides the sample
//! interval exactly keeps tones on their bins.

use crate::convergence::{ConvergenceTrace, StageAttempt, TraceStage};
use crate::error::{AnalysisError, PartialProgress};
use crate::newton::{Limits, Newton, Stop};
use crate::op::{dc_operating_point, structural_diagnosis, OpOptions, OperatingPoint};
use crate::partial::{Interrupted, Partial};
use crate::stamp::{
    assemble_real, cap_companion_current, mos_cap_branches, CapState, ElementState, RealMode,
};
use remix_circuit::{Circuit, Element, MnaLayout, Node};
use remix_numerics::IntegrationMethod;

/// Largest node-voltage move per Newton iteration of a transient step (V).
const TRAN_DV_MAX: f64 = 0.5;

/// Options controlling a transient run.
#[derive(Debug, Clone)]
pub struct TranOptions {
    /// Stop time (s).
    pub t_stop: f64,
    /// Base step size (s). Internally the engine may sub-divide a step
    /// when Newton fails, but output lands exactly on multiples of `h`.
    pub h: f64,
    /// Integration method for steady stepping.
    pub method: IntegrationMethod,
    /// Newton iterations allowed per step.
    pub max_newton: usize,
    /// Node-voltage convergence tolerance (V).
    pub v_tol: f64,
    /// gmin across MOS channels (S).
    pub gmin: f64,
    /// Discard output before this time (settling); the result's `times`
    /// start at the first grid point ≥ `record_start`.
    pub record_start: f64,
    /// Operating-point options for the initial condition.
    pub op_options: OpOptions,
    /// Adaptive stepping: when set, the engine subdivides each output
    /// interval under local-truncation-error control instead of marching
    /// at the fixed step, growing the internal step back when the
    /// solution is smooth. Output still lands exactly on the `h` grid.
    pub adaptive: Option<AdaptiveOptions>,
}

/// Controls for LTE-adaptive stepping.
#[derive(Debug, Clone)]
pub struct AdaptiveOptions {
    /// Absolute LTE tolerance on node voltages (V).
    pub lte_tol: f64,
    /// Smallest internal step (s) before giving up.
    pub h_min: f64,
}

impl Default for AdaptiveOptions {
    fn default() -> Self {
        AdaptiveOptions {
            lte_tol: 50e-6,
            h_min: 1e-15,
        }
    }
}

impl TranOptions {
    /// Sensible defaults for a run to `t_stop` with step `h`.
    pub fn new(t_stop: f64, h: f64) -> Self {
        assert!(t_stop > 0.0 && h > 0.0 && h < t_stop, "bad transient span");
        TranOptions {
            t_stop,
            h,
            method: IntegrationMethod::Trapezoidal,
            max_newton: 50,
            v_tol: 1e-7,
            gmin: 1e-12,
            record_start: 0.0,
            op_options: OpOptions::default(),
            adaptive: None,
        }
    }
}

/// Result of a transient run: solutions on the uniform output grid.
#[derive(Debug, Clone)]
pub struct TranResult {
    layout: MnaLayout,
    /// Output time points (s).
    pub times: Vec<f64>,
    /// Solution vector per time point.
    pub solutions: Vec<Vec<f64>>,
}

impl TranResult {
    /// Voltage waveform of a node across the stored grid.
    pub fn voltage_waveform(&self, n: Node) -> Vec<f64> {
        match n.unknown_index() {
            Some(i) => self.solutions.iter().map(|s| s[i]).collect(),
            None => vec![0.0; self.solutions.len()],
        }
    }

    /// Differential waveform `v(p) − v(n)`.
    pub fn differential_waveform(&self, p: Node, n: Node) -> Vec<f64> {
        let vp = self.voltage_waveform(p);
        let vn = self.voltage_waveform(n);
        vp.iter().zip(vn.iter()).map(|(a, b)| a - b).collect()
    }

    /// Voltage of node `n` at stored index `idx`.
    pub fn voltage_at(&self, idx: usize, n: Node) -> f64 {
        self.layout.voltage(&self.solutions[idx], n)
    }

    /// Branch current of a voltage-defined element at stored index `idx`.
    ///
    /// # Panics
    ///
    /// Panics if the element has no branch unknown.
    pub fn branch_current_at(&self, idx: usize, id: remix_circuit::ElementId) -> f64 {
        self.layout.branch_current(&self.solutions[idx], id)
    }

    /// Rebuilds a result containing only the given window (used by the
    /// periodic-steady-state engine to slice out one period).
    pub fn with_window(&self, times: Vec<f64>, solutions: Vec<Vec<f64>>) -> TranResult {
        TranResult {
            layout: self.layout.clone(),
            times,
            solutions,
        }
    }

    /// Number of stored points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }
}

/// Internal per-run integrator state.
struct Integrator<'a> {
    circuit: &'a Circuit,
    layout: MnaLayout,
    states: Vec<ElementState>,
    mos_caps: Vec<Option<remix_circuit::MosCaps>>,
    x: Vec<f64>,
    opts: &'a TranOptions,
    /// The Newton iterate of the step in progress.
    x_iter: Vec<f64>,
    /// The run's Newton scaffolding; `numeric` is set once the run has
    /// accepted its first step, so every iteration of the first step
    /// factors afresh.
    newton: Newton,
}

impl<'a> Integrator<'a> {
    fn init(circuit: &'a Circuit, opts: &'a TranOptions) -> Result<Self, AnalysisError> {
        let op: OperatingPoint = dc_operating_point(circuit, &opts.op_options)?;
        let layout = op.layout.clone();
        let x = op.solution.clone();
        // Initialize dynamic states from the OP.
        let mut states = Vec::with_capacity(circuit.element_count());
        for (idx, e) in circuit.elements().iter().enumerate() {
            let eid = remix_circuit::ElementId::from_index(idx);
            let st = match e {
                Element::Capacitor { a, b, .. } => ElementState::Cap(CapState {
                    v: layout.voltage(&x, *a) - layout.voltage(&x, *b),
                    i: 0.0,
                }),
                Element::Inductor { a, b, .. } => ElementState::Ind(crate::stamp::IndState {
                    i: layout.branch_current(&x, eid),
                    v: layout.voltage(&x, *a) - layout.voltage(&x, *b),
                }),
                Element::Mos { dev, .. } => {
                    let caps = op.mos_caps[idx].unwrap_or_default();
                    let branches = mos_cap_branches(dev.d, dev.g, dev.s, dev.b, &caps);
                    let mut sts = [CapState::default(); 5];
                    for (k, (a, b, _)) in branches.iter().enumerate() {
                        sts[k].v = layout.voltage(&x, *a) - layout.voltage(&x, *b);
                    }
                    ElementState::MosCaps(sts)
                }
                _ => ElementState::None,
            };
            states.push(st);
        }
        Ok(Integrator {
            circuit,
            newton: Newton::new(&layout, opts.op_options.solver),
            layout,
            states,
            mos_caps: op.mos_caps,
            x_iter: x.clone(),
            x,
            opts,
        })
    }

    /// Solves one implicit step of size `h` ending at time `t`.
    /// On success updates `self.x` and the dynamic states.
    fn step(&mut self, t: f64, h: f64, method: IntegrationMethod) -> Result<(), AnalysisError> {
        let coeffs = method.coeffs(h);
        self.x_iter.copy_from_slice(&self.x);
        let mut attempt = StageAttempt::new(TraceStage::TranStep { t, h });
        attempt.gmin = self.opts.gmin;
        let limits = Limits {
            max_iter: self.opts.max_newton,
            v_tol: self.opts.v_tol,
            dv_max: TRAN_DV_MAX,
        };
        let mode = RealMode::Tran {
            t,
            gmin: self.opts.gmin,
            coeffs,
            states: &self.states,
            mos_caps: &self.mos_caps,
        };
        let solved = self
            .newton
            .solve(&mut self.x_iter, limits, &mut attempt, |x, m, rhs| {
                assemble_real(self.circuit, &self.layout, x, &mode, m, rhs, None)
            });
        if let Err(stop) = solved {
            let mut trace = ConvergenceTrace::new("transient step");
            trace.push(attempt);
            return Err(match stop {
                Stop::Interrupted(interruption) => AnalysisError::BudgetExceeded {
                    interruption,
                    trace,
                    partial: PartialProgress {
                        analysis: "transient".into(),
                        completed: 0,
                        total: 0,
                    },
                },
                Stop::Factor(error) => AnalysisError::Singular {
                    error,
                    diagnosis: structural_diagnosis(self.circuit),
                    trace,
                },
                Stop::MaxIterations | Stop::Diverged => AnalysisError::NoConvergence {
                    context: format!("transient step at t = {t:.3e}"),
                    iterations: attempt.iterations,
                    trace,
                },
            });
        }

        // Commit dynamic states.
        std::mem::swap(&mut self.x, &mut self.x_iter);
        let x = &self.x;
        for (idx, e) in self.circuit.elements().iter().enumerate() {
            let eid = remix_circuit::ElementId::from_index(idx);
            match e {
                Element::Capacitor { a, b, c, .. } => {
                    let ElementState::Cap(st) = &mut self.states[idx] else {
                        unreachable!() // audit: allow(AUD002): states are built in lockstep with elements
                    };
                    let v_new = self.layout.voltage(x, *a) - self.layout.voltage(x, *b);
                    let i_new = cap_companion_current(*c, &coeffs, v_new, st);
                    st.v = v_new;
                    st.i = i_new;
                }
                Element::Inductor { a, b, .. } => {
                    let ElementState::Ind(st) = &mut self.states[idx] else {
                        unreachable!() // audit: allow(AUD002): states are built in lockstep with elements
                    };
                    st.i = self.layout.branch_current(x, eid);
                    st.v = self.layout.voltage(x, *a) - self.layout.voltage(x, *b);
                }
                Element::Mos { dev, .. } => {
                    let ElementState::MosCaps(sts) = &mut self.states[idx] else {
                        unreachable!() // audit: allow(AUD002): states are built in lockstep with elements
                    };
                    if let Some(caps) = &self.mos_caps[idx] {
                        let branches = mos_cap_branches(dev.d, dev.g, dev.s, dev.b, caps);
                        for (k, (a, b, c)) in branches.iter().enumerate() {
                            let v_new = self.layout.voltage(x, *a) - self.layout.voltage(x, *b);
                            if *c > 0.0 {
                                sts[k].i = cap_companion_current(*c, &coeffs, v_new, &sts[k]);
                            }
                            sts[k].v = v_new;
                        }
                    }
                }
                _ => {}
            }
        }
        self.newton.numeric = true;
        Ok(())
    }

    fn snapshot(&self) -> (Vec<f64>, Vec<ElementState>) {
        (self.x.clone(), self.states.clone())
    }

    fn restore(&mut self, snap: (Vec<f64>, Vec<ElementState>)) {
        self.x = snap.0;
        self.states = snap.1;
    }

    /// Advances exactly `h_total` under LTE control: internal steps shrink
    /// when the estimated local truncation error of any node voltage
    /// exceeds the tolerance and grow back when the solution is smooth.
    fn advance_adaptive(
        &mut self,
        t_start: f64,
        h_total: f64,
        method: IntegrationMethod,
        opts: &AdaptiveOptions,
        estimators: &mut [remix_numerics::LteEstimator],
        h_state: &mut f64,
    ) -> Result<(), AnalysisError> {
        let t_end = t_start + h_total;
        let mut t = t_start;
        while t < t_end - 1e-18 * h_total.max(1.0) {
            let h = h_state.min(t_end - t).max(opts.h_min);
            let snap = self.snapshot();
            match self.step(t + h, h, method) {
                Ok(()) => {}
                Err(AnalysisError::NoConvergence { .. }) if h > opts.h_min * 2.0 => {
                    self.restore(snap);
                    *h_state = h / 2.0;
                    continue;
                }
                Err(e) => return Err(e),
            }
            // LTE estimate across node voltages.
            let n_nodes = self.layout.node_unknowns();
            let mut worst = 0.0f64;
            for (est, xi) in estimators.iter_mut().zip(&self.x).take(n_nodes) {
                est.push(t + h, *xi);
                if let Some(l) = est.estimate(method) {
                    worst = worst.max(l);
                }
            }
            if worst > opts.lte_tol && h > opts.h_min * 2.0 {
                // Reject: roll back and retry with a smaller step. The
                // estimator history keeps the rejected point, which only
                // makes the next estimate more conservative.
                self.restore(snap);
                *h_state = (h / 2.0).max(opts.h_min);
                for e in estimators.iter_mut() {
                    e.reset();
                }
                continue;
            }
            t += h;
            *h_state =
                remix_numerics::integrate::propose_step(h, worst, opts.lte_tol, method.order())
                    .min(h_total);
        }
        Ok(())
    }

    /// Advances exactly `h_total`, sub-dividing on Newton failure.
    fn advance(
        &mut self,
        t_start: f64,
        h_total: f64,
        method: IntegrationMethod,
    ) -> Result<(), AnalysisError> {
        let mut pending = vec![(t_start, h_total, method)];
        let mut depth_guard = 0usize;
        // The last failed Newton attempt: attached to a step-size
        // underflow so the error explains *why* the halving cascade
        // never found an acceptable step.
        let mut last_trace = ConvergenceTrace::new("transient step");
        while let Some((t0, h, meth)) = pending.pop() {
            depth_guard += 1;
            if depth_guard > 4096 {
                return Err(AnalysisError::StepSizeUnderflow {
                    time: t0,
                    method: meth,
                    trace: last_trace,
                });
            }
            match self.step(t0 + h, h, meth) {
                Ok(()) => {}
                Err(e @ AnalysisError::NoConvergence { .. }) if h > 1e-18 => {
                    if let Some(t) = e.trace() {
                        last_trace = t.clone();
                    }
                    // Split: solve first half (BE for robustness), then
                    // second half.
                    pending.push((t0 + h / 2.0, h / 2.0, meth));
                    pending.push((t0, h / 2.0, IntegrationMethod::BackwardEuler));
                }
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }
}

/// Shared transient driver: integrates the full grid, stopping early on
/// a budget interruption. Returns the recorded prefix (always
/// internally consistent — points land only after their step fully
/// converged), the interruption if one occurred, and the planned step
/// count.
fn transient_inner(
    circuit: &Circuit,
    opts: &TranOptions,
) -> Result<(TranResult, Option<Interrupted>, usize), AnalysisError> {
    crate::plan::gate(&crate::plan::tran_plan(circuit, opts))?;
    let mut integ = Integrator::init(circuit, opts)?;
    let n_steps = (opts.t_stop / opts.h).round() as usize;
    let _span = remix_telemetry::span(remix_telemetry::names::ANALYSIS_TRAN)
        .with_field("analysis", "tran")
        .with_field("elements", circuit.element_count())
        .with_field("steps", n_steps);
    let mut times = Vec::new();
    let mut solutions = Vec::new();
    if opts.record_start <= 0.0 {
        times.push(0.0);
        solutions.push(integ.x.clone());
    }
    let mut estimators = vec![remix_numerics::LteEstimator::new(); integ.layout.node_unknowns()];
    let mut h_state = opts.h;
    let mut interrupted = None;
    for k in 0..n_steps {
        let t0 = k as f64 * opts.h;
        if let Err(i) = remix_exec::charge_timestep() {
            interrupted = Some(Interrupted::at(
                "transient",
                TraceStage::TranStep { t: t0, h: opts.h },
                i,
            ));
            break;
        }
        // First grid step uses BE to damp the turn-on transient of the
        // companion history (standard SPICE practice).
        let method = if k == 0 {
            IntegrationMethod::BackwardEuler
        } else {
            opts.method
        };
        let advanced = match &opts.adaptive {
            Some(a) => integ.advance_adaptive(t0, opts.h, method, a, &mut estimators, &mut h_state),
            None => integ.advance(t0, opts.h, method),
        };
        match advanced {
            Ok(()) => {}
            Err(AnalysisError::BudgetExceeded {
                interruption,
                trace,
                ..
            }) => {
                interrupted = Some(Interrupted {
                    interruption,
                    trace,
                });
                break;
            }
            Err(e) => return Err(e),
        }
        let t1 = (k + 1) as f64 * opts.h;
        if t1 >= opts.record_start {
            times.push(t1);
            solutions.push(integ.x.clone());
        }
    }
    Ok((
        TranResult {
            layout: integ.layout,
            times,
            solutions,
        },
        interrupted,
        n_steps,
    ))
}

/// Runs a transient simulation.
///
/// # Errors
///
/// [`AnalysisError::Lint`] when the implied simulation plan fails the
/// `SIM` rules (e.g. `SIM001`: the timestep cannot resolve the fastest
/// stimulus in the netlist). Otherwise propagates operating-point
/// errors, singular-matrix errors, Newton non-convergence (after
/// sub-division down to femtosecond steps), step-size underflow, and
/// [`AnalysisError::BudgetExceeded`] when a
/// [`RunBudget`](remix_exec::RunBudget) armed on this thread runs out
/// mid-run (use [`transient_partial`] to keep the completed prefix
/// instead).
pub fn transient(circuit: &Circuit, opts: &TranOptions) -> Result<TranResult, AnalysisError> {
    let (res, interrupted, n_steps) = transient_inner(circuit, opts)?;
    match interrupted {
        None => Ok(res),
        Some(i) => Err(AnalysisError::BudgetExceeded {
            interruption: i.interruption,
            trace: i.trace,
            partial: PartialProgress {
                analysis: "transient".into(),
                completed: res.len(),
                total: n_steps + 1,
            },
        }),
    }
}

/// Runs a transient simulation, degrading gracefully under a budget:
/// when the [`RunBudget`](remix_exec::RunBudget) armed on this thread
/// runs out mid-run, returns the completed prefix of the waveform as a
/// [`Partial`] carrying the interruption and its trace, instead of
/// discarding the work behind an error.
///
/// # Errors
///
/// Same as [`transient`], except a budget interruption *after* the
/// initial operating point is not an error (one during the operating
/// point still is: there is no prefix worth returning).
pub fn transient_partial(
    circuit: &Circuit,
    opts: &TranOptions,
) -> Result<Partial<TranResult>, AnalysisError> {
    let (res, interrupted, _) = transient_inner(circuit, opts)?;
    Ok(match interrupted {
        None => Partial::complete(res),
        Some(i) => Partial::interrupted(res, i),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_circuit::{Circuit, MosModel, Waveform};

    #[test]
    fn rc_charging_curve() {
        // Series R into C driven by a 1 V step (via PULSE): classic
        // v(t) = 1 − e^{−t/RC}.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource(
            "v1",
            vin,
            Circuit::gnd(),
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.0,
                rise: 1e-12,
                fall: 1e-12,
                width: 1.0,
                period: f64::INFINITY,
            },
        );
        c.add_resistor("r1", vin, out, 1e3);
        c.add_capacitor("c1", out, Circuit::gnd(), 1e-9);
        let tau = 1e-6;
        let res = transient(&c, &TranOptions::new(5.0 * tau, tau / 200.0)).unwrap();
        let v = res.voltage_waveform(out);
        let t = &res.times;
        for (i, &ti) in t.iter().enumerate() {
            if ti < 5e-9 {
                continue; // skip the ps-scale source edge
            }
            let expected = 1.0 - (-ti / tau).exp();
            assert!(
                (v[i] - expected).abs() < 5e-3,
                "t = {ti:.3e}: {} vs {expected}",
                v[i]
            );
        }
    }

    #[test]
    fn lc_oscillation_period() {
        // Parallel LC with initial energy: free oscillation at
        // f = 1/(2π√(LC)). Drive: current step into the tank.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_isource(
            "i1",
            Circuit::gnd(),
            a,
            Waveform::Pulse {
                v1: 0.0,
                v2: 1e-3,
                delay: 0.0,
                rise: 1e-12,
                fall: 1e-12,
                width: 1.0,
                period: f64::INFINITY,
            },
        );
        c.add_inductor("l1", a, Circuit::gnd(), 1e-6);
        c.add_capacitor("c1", a, Circuit::gnd(), 1e-12);
        c.add_resistor("rq", a, Circuit::gnd(), 1e6); // light damping
        let f0 = 1.0 / (2.0 * std::f64::consts::PI * (1e-6f64 * 1e-12).sqrt());
        let period = 1.0 / f0;
        let res = transient(&c, &TranOptions::new(4.0 * period, period / 400.0)).unwrap();
        let v = res.voltage_waveform(a);
        // Find zero crossings of the oscillating part to estimate period.
        let mean = remix_numerics::stats::mean(&v);
        let xs: Vec<f64> = v.iter().map(|x| x - mean).collect();
        let mut crossings = Vec::new();
        for i in 1..xs.len() {
            if xs[i - 1] < 0.0 && xs[i] >= 0.0 {
                crossings.push(res.times[i]);
            }
        }
        assert!(crossings.len() >= 2, "no oscillation seen");
        let measured = crossings[crossings.len() - 1] - crossings[crossings.len() - 2];
        assert!(
            (measured - period).abs() < 0.02 * period,
            "period {measured:.3e} vs {period:.3e}"
        );
    }

    #[test]
    fn sine_source_amplitude_preserved() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::sine(0.5, 1e6));
        c.add_resistor("r1", vin, Circuit::gnd(), 1e3);
        let res = transient(&c, &TranOptions::new(2e-6, 1e-9)).unwrap();
        let v = res.voltage_waveform(vin);
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        let min = v.iter().cloned().fold(f64::MAX, f64::min);
        assert!((max - 0.5).abs() < 1e-3, "max {max}");
        assert!((min + 0.5).abs() < 1e-3, "min {min}");
    }

    #[test]
    fn adaptive_matches_fixed_on_rc() {
        // Same RC charging curve under LTE-adaptive stepping.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource(
            "v1",
            vin,
            Circuit::gnd(),
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.0,
                delay: 0.0,
                rise: 1e-12,
                fall: 1e-12,
                width: 1.0,
                period: f64::INFINITY,
            },
        );
        c.add_resistor("r1", vin, out, 1e3);
        c.add_capacitor("c1", out, Circuit::gnd(), 1e-9);
        let tau = 1e-6;
        let mut opts = TranOptions::new(5.0 * tau, tau / 50.0);
        opts.adaptive = Some(AdaptiveOptions {
            lte_tol: 20e-6,
            h_min: 1e-15,
        });
        let res = transient(&c, &opts).unwrap();
        for (i, &ti) in res.times.iter().enumerate() {
            if ti < 5e-9 {
                continue;
            }
            let expected = 1.0 - (-ti / tau).exp();
            let got = res.voltage_at(i, out);
            assert!(
                (got - expected).abs() < 2e-3,
                "t = {ti:.3e}: {got} vs {expected}"
            );
        }
    }

    #[test]
    fn adaptive_handles_oscillation() {
        // Sine drive through RC: adaptive stepping must track the curve
        // with a coarse output grid (internal steps do the work).
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::sine(0.5, 1e6));
        c.add_resistor("r1", vin, out, 1e3);
        c.add_capacitor("c1", out, Circuit::gnd(), 10e-12);
        // fc = 15.9 MHz ≫ 1 MHz: output ≈ input.
        let mut opts = TranOptions::new(3e-6, 50e-9); // 20 pts per period only
        opts.adaptive = Some(AdaptiveOptions::default());
        let res = transient(&c, &opts).unwrap();
        let v = res.voltage_waveform(out);
        let max = v.iter().cloned().fold(f64::MIN, f64::max);
        assert!((max - 0.5).abs() < 0.02, "peak {max}");
    }

    #[test]
    fn record_start_discards_settling() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("r1", vin, Circuit::gnd(), 1e3);
        let mut opts = TranOptions::new(1e-6, 1e-8);
        opts.record_start = 0.5e-6;
        let res = transient(&c, &opts).unwrap();
        assert!(res.times[0] >= 0.5e-6);
        assert!(!res.is_empty());
        assert_eq!(res.len(), res.solutions.len());
    }

    #[test]
    fn cmos_inverter_switches_dynamically() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let inp = c.node("in");
        let out = c.node("out");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_vsource(
            "vin",
            inp,
            Circuit::gnd(),
            Waveform::Pulse {
                v1: 0.0,
                v2: 1.2,
                delay: 1e-9,
                rise: 50e-12,
                fall: 50e-12,
                width: 2e-9,
                period: f64::INFINITY,
            },
        );
        c.add_mosfet("mp", MosModel::pmos_65nm(), 4e-6, 65e-9, out, inp, vdd, vdd);
        c.add_mosfet(
            "mn",
            MosModel::nmos_65nm(),
            2e-6,
            65e-9,
            out,
            inp,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        c.add_capacitor("cl", out, Circuit::gnd(), 10e-15);
        let res = transient(&c, &TranOptions::new(5e-9, 10e-12)).unwrap();
        let v = res.voltage_waveform(out);
        let t = &res.times;
        // Before the input pulse: output high.
        let before: f64 = v[t.iter().position(|&x| x > 0.8e-9).unwrap()];
        assert!(before > 1.1, "before = {before}");
        // During the pulse: output low.
        let during: f64 = v[t.iter().position(|&x| x > 2.5e-9).unwrap()];
        assert!(during < 0.1, "during = {during}");
    }

    fn rc_fixture() -> (Circuit, Node) {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::sine(0.5, 1e6));
        c.add_resistor("r1", vin, out, 1e3);
        c.add_capacitor("c1", out, Circuit::gnd(), 1e-9);
        (c, out)
    }

    /// Every Newton iteration of a clean run, operating point and steps
    /// alike, makes exactly one successful factorization.
    #[test]
    fn newton_iterations_count_one_factorization_each() {
        let (c, _) = rc_fixture();
        let telemetry = remix_telemetry::Telemetry::new();
        {
            let _armed = telemetry.arm();
            transient(&c, &TranOptions::new(1e-6, 1e-8)).unwrap();
        }
        let snap = telemetry.snapshot();
        let iterations = snap.counter(remix_telemetry::names::NEWTON_ITERATIONS);
        assert!(iterations.is_some_and(|n| n > 100), "{iterations:?}");
        assert_eq!(
            iterations,
            snap.counter(remix_telemetry::names::LU_FACTORIZATIONS)
        );
    }

    /// Observed orders of `method` on `c`: the base-2 logs of the ratios
    /// of the largest error of `v(node)` against `exact`, at `h` against
    /// `h/2` and at `h/2` against `h/4`.
    fn observed_orders(
        c: &Circuit,
        node: Node,
        t_stop: f64,
        h: f64,
        method: IntegrationMethod,
        exact: impl Fn(f64) -> f64,
    ) -> [f64; 2] {
        let max_error = |h: f64| {
            let mut opts = TranOptions::new(t_stop, h);
            opts.method = method;
            let res = transient(c, &opts).unwrap();
            let v = res.voltage_waveform(node);
            res.times
                .iter()
                .zip(&v)
                .fold(0.0f64, |e, (&t, &v)| e.max((v - exact(t)).abs()))
        };
        let e = [max_error(h), max_error(h / 2.0), max_error(h / 4.0)];
        [(e[0] / e[1]).log2(), (e[1] / e[2]).log2()]
    }

    const ORDERS: [(IntegrationMethod, f64, f64); 2] = [
        (IntegrationMethod::BackwardEuler, 0.8, 1.2),
        (IntegrationMethod::Trapezoidal, 1.8, 2.2),
    ];

    #[test]
    fn companion_models_converge_at_their_order_on_a_sine_driven_rc() {
        // τ v' + v = A sin ωt from v(0) = 0 (the operating point at t = 0).
        let (r, cap, amp, tau) = (1e3, 1e-9, 1.0, 1e-6);
        let w = 1.0 / tau;
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        let wave = Waveform::sine(amp, w / (2.0 * std::f64::consts::PI));
        c.add_vsource("v1", vin, Circuit::gnd(), wave);
        c.add_resistor("r1", vin, out, r);
        c.add_capacitor("c1", out, Circuit::gnd(), cap);
        let k = amp / (1.0 + (w * tau).powi(2));
        let exact =
            |t: f64| k * ((w * t).sin() - w * tau * (w * t).cos() + w * tau * (-t / tau).exp());
        for (method, lo, hi) in ORDERS {
            let orders = observed_orders(&c, out, 3.0 * tau, tau / 50.0, method, exact);
            for p in orders {
                assert!(p >= lo && p <= hi, "{method:?}: orders {orders:?}");
            }
        }
    }

    #[test]
    fn companion_models_converge_at_their_order_on_an_lc_tank() {
        // A sine current I sin(ωd t) into a lossless parallel LC from
        // rest: v = K (cos ωd t − cos ω0 t), K = I ωd / (C (ω0² − ωd²)).
        let (l, cap, amp): (f64, f64, f64) = (1e-6, 1e-9, 1e-3);
        let w0 = 1.0 / (l * cap).sqrt();
        let wd = w0 / 2.0;
        let mut c = Circuit::new();
        let a = c.node("a");
        let wave = Waveform::sine(amp, wd / (2.0 * std::f64::consts::PI));
        c.add_isource("i1", Circuit::gnd(), a, wave);
        c.add_inductor("l1", a, Circuit::gnd(), l);
        c.add_capacitor("c1", a, Circuit::gnd(), cap);
        let k = amp * wd / (cap * (w0 * w0 - wd * wd));
        let exact = |t: f64| k * ((wd * t).cos() - (w0 * t).cos());
        let period = 2.0 * std::f64::consts::PI / w0;
        for (method, lo, hi) in ORDERS {
            let orders = observed_orders(&c, a, 2.0 * period, period / 200.0, method, exact);
            for p in orders {
                assert!(p >= lo && p <= hi, "{method:?}: orders {orders:?}");
            }
        }
    }

    #[test]
    fn timestep_budget_returns_clean_partial_prefix() {
        let (c, _) = rc_fixture();
        let token = remix_exec::RunBudget::unlimited()
            .with_timesteps(10)
            .token();
        let _guard = token.arm();
        let partial = transient_partial(&c, &TranOptions::new(1e-6, 1e-8)).unwrap();
        assert!(!partial.is_complete());
        // Initial point + exactly the charged steps; never half-written.
        assert_eq!(partial.value.len(), 11, "got {}", partial.value.len());
        assert!(partial
            .value
            .solutions
            .iter()
            .flatten()
            .all(|v| v.is_finite()));
        let why = partial.interruption.as_ref().unwrap();
        assert_eq!(
            why.interruption,
            remix_exec::Interruption::Timesteps { limit: 10 }
        );
        assert!(!why.trace.is_empty());
    }

    #[test]
    fn strict_transient_maps_interruption_to_budget_exceeded() {
        let (c, _) = rc_fixture();
        let token = remix_exec::RunBudget::unlimited().with_timesteps(3).token();
        let _guard = token.arm();
        match transient(&c, &TranOptions::new(1e-6, 1e-8)) {
            Err(AnalysisError::BudgetExceeded { trace, partial, .. }) => {
                assert!(!trace.is_empty());
                assert_eq!(partial.analysis, "transient");
                assert_eq!(partial.completed, 4);
                assert_eq!(partial.total, 101);
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn unbudgeted_partial_is_complete() {
        let (c, out) = rc_fixture();
        let full = transient(&c, &TranOptions::new(1e-6, 1e-8)).unwrap();
        let partial = transient_partial(&c, &TranOptions::new(1e-6, 1e-8)).unwrap();
        assert!(partial.is_complete());
        assert_eq!(partial.value.len(), full.len());
        assert_eq!(
            partial.value.voltage_waveform(out),
            full.voltage_waveform(out)
        );
    }

    /// A singular pivot injected into a numeric refactor fails the step
    /// with the same typed error as one in a fresh factorization.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn singular_refactor_fails_like_a_fresh_factorization() {
        let (c, _) = rc_fixture();
        let h = 1e-8;
        // Factor events of the operating point and the first step, which
        // always factors afresh.
        let telemetry = remix_telemetry::Telemetry::new();
        {
            let _armed = telemetry.arm();
            transient(&c, &TranOptions::new(1.4 * h, h)).unwrap();
        }
        let fresh = telemetry
            .snapshot()
            .counter(remix_telemetry::names::LU_FACTORIZATIONS)
            .unwrap();
        let _guard = crate::fault::FaultPlan::singular_pivot()
            .starting_at(fresh)
            .for_events(1)
            .arm();
        match transient(&c, &TranOptions::new(1e-6, h)) {
            Err(AnalysisError::Singular { trace, .. }) => {
                assert_eq!(trace.analysis, "transient step");
                match trace.attempts[0].stage {
                    TraceStage::TranStep { t, .. } => {
                        assert!((t - 2.0 * h).abs() < 1e-3 * h, "failed at t = {t:.3e}")
                    }
                    other => panic!("expected a transient-step stage, got {other:?}"),
                }
            }
            other => panic!("expected Singular with a tran-step trace, got {other:?}"),
        }
    }

    #[test]
    fn mixing_products_appear() {
        // The crucial RF behaviour: drive a MOS switch's gate with an LO
        // square-ish drive and its drain path with RF; the IF product
        // appears at the output. This is a single-device sanity check that
        // the transient engine produces frequency translation at all.
        let mut c = Circuit::new();
        let rf = c.node("rf");
        let lo = c.node("lo");
        let out = c.node("out");
        let f_rf = 100e6;
        let f_lo = 90e6;
        c.add_vsource(
            "vrf",
            rf,
            Circuit::gnd(),
            Waveform::Sin {
                offset: 0.0,
                amplitude: 0.1,
                freq: f_rf,
                phase: 0.0,
                delay: 0.0,
            },
        );
        c.add_vsource(
            "vlo",
            lo,
            Circuit::gnd(),
            Waveform::Sin {
                offset: 0.6,
                amplitude: 0.6,
                freq: f_lo,
                phase: 0.0,
                delay: 0.0,
            },
        );
        // Pass transistor from rf to out, gate driven by LO.
        c.add_mosfet(
            "msw",
            MosModel::nmos_65nm(),
            20e-6,
            65e-9,
            rf,
            lo,
            out,
            Circuit::gnd(),
        );
        c.add_resistor("rl", out, Circuit::gnd(), 1e3);
        c.add_capacitor("cl", out, Circuit::gnd(), 30e-12);

        // Coherent record: IF = 10 MHz, 1 µs window → bins at 10 Hz·k.
        let fs = 1.0 / 0.5e-9;
        let n = 2048; // 1.024 µs at 0.5 ns
        let res = transient(&c, &TranOptions::new(n as f64 * 0.5e-9, 0.5e-9)).unwrap();
        let v = res.voltage_waveform(out);
        let seg = &v[v.len() - n..];
        let f_if = f_rf - f_lo; // 10 MHz
        let a_if = remix_dsp::tone::tone_amplitude(seg, f_if, fs);
        assert!(a_if > 1e-4, "IF product amplitude = {a_if:.3e}");
    }
}
