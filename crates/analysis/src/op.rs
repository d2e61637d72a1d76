//! DC operating-point analysis.
//!
//! Solves the nonlinear DC system by iterated linearization (the classic
//! SPICE formulation: each solve of the companion-linearized system yields
//! the next iterate), with per-iteration **damping** that limits the
//! maximum node-voltage change (keeps exponential device curves from
//! flinging the iterate).
//!
//! The homotopy ladder is declarative: a [`ConvergencePolicy`] lists the
//! stages (by default direct → gmin stepping → source stepping →
//! pseudo-transient continuation) and the solver walks them until one
//! converges, recording every attempt in a [`ConvergenceTrace`] that
//! rides inside the returned [`OperatingPoint`] on success or the
//! [`AnalysisError`] on failure.

use crate::convergence::{
    ConvergencePolicy, ConvergenceTrace, StageAttempt, StageKind, TraceStage, ILL_CONDITION_RCOND,
};
use crate::error::{AnalysisError, PartialProgress};
use crate::newton::{Limits, Newton, Stop};
use crate::stamp::{assemble_real, RealMode};
use remix_circuit::{Circuit, Element, ElementId, MnaLayout, MosCaps, MosEval, Node};

/// Which linear-algebra path factors the MNA system each Newton step.
///
/// The sparse path is the production solver; the dense path is an
/// independent reference implementation (different pivoting order,
/// different elimination code, no fault-injection hooks) used by the
/// differential oracle in `tests/` to cross-check operating points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LinearSolverKind {
    /// Sparse LU via `remix_numerics::SparseLu` (default).
    #[default]
    Sparse,
    /// Dense LU with partial pivoting via `remix_numerics::LuFactor`,
    /// factoring the densified MNA matrix.
    Dense,
}

/// Options controlling the operating-point solve.
#[derive(Debug, Clone)]
pub struct OpOptions {
    /// Maximum iterations per stage.
    pub max_iter: usize,
    /// Convergence tolerance on node-voltage change (V).
    pub v_tol: f64,
    /// Maximum per-iteration node-voltage change (V); larger proposed
    /// steps are scaled down.
    pub dv_max: f64,
    /// Final (smallest) gmin left in the circuit (S).
    pub gmin: f64,
    /// The homotopy ladder to walk when the direct solve stalls.
    pub policy: ConvergencePolicy,
    /// The linear-algebra path used per Newton step.
    pub solver: LinearSolverKind,
}

impl Default for OpOptions {
    fn default() -> Self {
        OpOptions {
            max_iter: 150,
            v_tol: 1e-9,
            dv_max: 0.3,
            gmin: 1e-12,
            policy: ConvergencePolicy::default(),
            solver: LinearSolverKind::default(),
        }
    }
}

/// A converged DC operating point.
#[derive(Debug, Clone)]
pub struct OperatingPoint {
    /// The MNA layout used (shared by follow-on analyses).
    pub layout: MnaLayout,
    /// Solution vector (node voltages then branch currents).
    pub solution: Vec<f64>,
    /// Per-element MOS evaluation at the solution (None for non-MOS).
    pub mos_evals: Vec<Option<MosEval>>,
    /// Per-element MOS capacitances at the solution (None for non-MOS).
    pub mos_caps: Vec<Option<MosCaps>>,
    /// Total iterations across all homotopy stages.
    pub iterations: usize,
    /// Every homotopy stage attempt made on the way here, including the
    /// converged one (last) with its condition estimate.
    pub trace: ConvergenceTrace,
}

impl OperatingPoint {
    /// Voltage of a node.
    pub fn voltage(&self, n: Node) -> f64 {
        self.layout.voltage(&self.solution, n)
    }

    /// Branch current of a voltage-defined element (positive `p → n`
    /// through the element).
    pub fn branch_current(&self, id: ElementId) -> f64 {
        self.layout.branch_current(&self.solution, id)
    }

    /// MOS evaluation for an element id, if it is a MOSFET.
    pub fn mos_eval(&self, id: ElementId) -> Option<&MosEval> {
        self.mos_evals[id.index()].as_ref()
    }

    /// Reciprocal condition estimate of the system that produced the
    /// solution (the converged attempt's factorization).
    pub fn rcond(&self) -> Option<f64> {
        self.trace.attempts.last().and_then(|a| a.rcond)
    }

    /// Warning text when the solve *succeeded* but the factored system
    /// was ill-conditioned — the voltages exist but deserve distrust.
    pub fn condition_warning(&self) -> Option<String> {
        let r = self.rcond()?;
        (r < ILL_CONDITION_RCOND).then(|| {
            format!(
                "operating point is ill-conditioned (rcond ≈ {r:.1e} < {ILL_CONDITION_RCOND:.0e}): \
                 node voltages may carry large numerical error"
            )
        })
    }
}

/// Rendered structural-rank lint findings (ERC012 structural singular,
/// ERC013 ill-scaled) for a circuit — the diagnosis attached to
/// [`AnalysisError::Singular`] so the message names the unpivotable or
/// ill-scaled equations instead of just an elimination step index.
pub fn structural_diagnosis(circuit: &Circuit) -> Vec<String> {
    let report = remix_lint::lint(circuit, &remix_lint::LintConfig::default());
    report
        .diagnostics
        .iter()
        .filter(|d| {
            matches!(
                d.rule,
                remix_lint::RuleId::StructuralSingular | remix_lint::RuleId::IllScaled
            )
        })
        .map(|d| d.render())
        .collect()
}

/// The rungs of one ladder stage, each `(gmin, source_scale, diag_load,
/// decides)`. A rung that does not decide is a loaded pseudo-transient
/// round: it may miss tolerance (the load keeps the iterate bounded), so
/// only the final exact solve decides the stage.
fn rungs(kind: StageKind, target_gmin: f64) -> Vec<(f64, f64, f64, bool)> {
    match kind {
        StageKind::Direct => vec![(target_gmin, 1.0, 0.0, true)],
        StageKind::GminLadder { start } => ConvergencePolicy::gmin_rungs(start, target_gmin)
            .into_iter()
            .map(|g| (g, 1.0, 0.0, true))
            .collect(),
        StageKind::SourceRamp { steps } => {
            let steps = steps.max(1);
            (1..=steps)
                .map(|step| (target_gmin, step as f64 / steps as f64, 0.0, true))
                .collect()
        }
        StageKind::PseudoTransient {
            lambda0,
            decay,
            rounds,
        } => std::iter::successors(Some(lambda0), |lambda| Some(lambda * decay))
            .take(rounds)
            .map(|lambda| (target_gmin, 1.0, lambda, false))
            .chain([(target_gmin, 1.0, 0.0, true)])
            .collect(),
    }
}

/// Walks one ladder stage of a [`ConvergencePolicy`] from 0 V, pushing
/// every attempt into `trace`. Stops at the first deciding rung that
/// fails, and at once on an interruption.
#[allow(clippy::too_many_arguments)]
fn run_stage(
    kind: StageKind,
    newton: &mut Newton,
    circuit: &Circuit,
    layout: &MnaLayout,
    x: &mut [f64],
    limits: Limits,
    target_gmin: f64,
    mos_evals: &mut Vec<Option<MosEval>>,
    trace: &mut ConvergenceTrace,
) -> Result<(), Stop> {
    x.fill(0.0);
    for (gmin, source_scale, diag_load, decides) in rungs(kind, target_gmin) {
        let mut attempt = StageAttempt::new(TraceStage::Dc(kind));
        attempt.gmin = gmin;
        attempt.source_scale = source_scale;
        attempt.diag_load = diag_load;
        let mode = RealMode::Dc { gmin, source_scale };
        let solved = newton.solve(x, limits, &mut attempt, |x, m, rhs| {
            assemble_real(circuit, layout, x, &mode, m, rhs, Some(&mut *mos_evals));
            // Pseudo-transient continuation: a diagonal load λ with a
            // matching λ·v_prev on the RHS is one implicit-Euler step of
            // C dv/dt = −f(v) through artificial time (C/h = λ).
            if diag_load > 0.0 {
                for i in 0..layout.node_unknowns() {
                    m.push(i, i, diag_load);
                    rhs[i] += diag_load * x[i];
                }
            }
        });
        trace.push(attempt);
        match solved {
            Err(stop) if decides || matches!(stop, Stop::Interrupted(_)) => return Err(stop),
            _ if !x.iter().all(|v| v.is_finite()) => x.fill(0.0),
            _ => {}
        }
    }
    Ok(())
}

/// Computes the DC operating point of a circuit.
///
/// # Errors
///
/// * [`AnalysisError::Lint`] if the circuit has deny-level ERC findings
///   (the report carries every finding, not just the first);
/// * [`AnalysisError::Singular`] if the MNA matrix cannot be factored even
///   with maximum gmin;
/// * [`AnalysisError::NoConvergence`] if every policy stage fails; the
///   attached [`ConvergenceTrace`] records each attempt, and any
///   warn-level lint findings are appended to the error context, since
///   they often explain the stall;
/// * [`AnalysisError::BudgetExceeded`] if a
///   [`RunBudget`](remix_exec::RunBudget) armed on this thread ran out
///   mid-solve — the homotopy ladder unwinds immediately (no further
///   stages or damping retries) with the interrupted attempt recorded.
pub fn dc_operating_point(
    circuit: &Circuit,
    opts: &OpOptions,
) -> Result<OperatingPoint, AnalysisError> {
    let lint_report = remix_lint::lint(circuit, &remix_lint::LintConfig::default());
    if !lint_report.is_clean() {
        return Err(AnalysisError::Lint(lint_report));
    }
    let layout = MnaLayout::new(circuit);
    let dim = layout.dim();
    let n_elem = circuit.element_count();
    let _span = remix_telemetry::span(remix_telemetry::names::ANALYSIS_OP)
        .with_field("analysis", "op")
        .with_field("dim", dim)
        .with_field("elements", n_elem);
    let mut x = vec![0.0; dim];
    let mut mos_evals: Vec<Option<MosEval>> = vec![None; n_elem];
    let mut trace = ConvergenceTrace::new("dc operating point");

    // Walk the policy ladder, retried with progressively tighter damping:
    // strong feedback loops (the TIA around its two-stage OTA) can
    // limit-cycle at loose damping. The OP never sets `numeric`: every
    // iteration factors afresh.
    let mut newton = Newton::new(&layout, opts.solver);
    let mut converged = false;
    let mut last_stop: Option<Stop> = None;
    'damping: for tighten in 0..opts.policy.damping_retries.max(1) {
        let limits = Limits {
            max_iter: opts.max_iter * (1 + 2 * tighten),
            v_tol: opts.v_tol,
            dv_max: opts.dv_max / 3f64.powi(tighten as i32),
        };
        for kind in &opts.policy.stages {
            match run_stage(
                *kind,
                &mut newton,
                circuit,
                &layout,
                &mut x,
                limits,
                opts.gmin,
                &mut mos_evals,
                &mut trace,
            ) {
                Ok(()) => {
                    converged = true;
                    break 'damping;
                }
                Err(Stop::Interrupted(interruption)) => {
                    return Err(AnalysisError::BudgetExceeded {
                        interruption,
                        trace,
                        partial: PartialProgress {
                            analysis: "dc operating point".into(),
                            completed: 0,
                            total: 0,
                        },
                    });
                }
                Err(stop) => last_stop = Some(stop),
            }
        }
    }
    if !converged {
        // A ladder that ended on a factorization failure is a *singular*
        // problem (cross-referenced against the structural-rank lint
        // pass), not a stalled iteration.
        if let Some(Stop::Factor(error)) = last_stop {
            return Err(AnalysisError::Singular {
                error,
                diagnosis: structural_diagnosis(circuit),
                trace,
            });
        }
        // Warn-level findings did not block the solve, but a circuit that
        // then fails to converge is exactly where they become relevant.
        let mut context = "dc operating point".to_string();
        if lint_report.warn_count() > 0 {
            let warns: Vec<String> = lint_report
                .diagnostics
                .iter()
                .filter(|d| d.severity == remix_lint::Severity::Warn)
                .map(|d| d.render())
                .collect();
            context.push_str(" [lint: ");
            context.push_str(&warns.join("; "));
            context.push(']');
        }
        return Err(AnalysisError::NoConvergence {
            context,
            iterations: trace.total_iterations(),
            trace,
        });
    }

    // Capture MOS caps at the final solution.
    let mut mos_caps: Vec<Option<MosCaps>> = vec![None; n_elem];
    for (idx, e) in circuit.elements().iter().enumerate() {
        if let Element::Mos { dev, .. } = e {
            if let Some(ev) = &mos_evals[idx] {
                mos_caps[idx] = Some(dev.capacitances(ev));
            }
        }
    }

    let iterations = trace.total_iterations();
    let op = OperatingPoint {
        layout,
        solution: x,
        mos_evals,
        mos_caps,
        iterations,
        trace,
    };
    if let Some(rcond) = op.rcond() {
        remix_telemetry::gauge_set(remix_telemetry::names::ANALYSIS_OP_RCOND, rcond);
    }
    Ok(op)
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_circuit::{Circuit, MosModel, Waveform};

    fn op(circuit: &Circuit) -> OperatingPoint {
        dc_operating_point(circuit, &OpOptions::default()).unwrap()
    }

    #[test]
    fn dense_reference_path_matches_sparse() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let out = c.node("out");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("rl", vdd, out, 2e3);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            10e-6,
            65e-9,
            out,
            out,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let sparse = dc_operating_point(&c, &OpOptions::default()).unwrap();
        let dense_opts = OpOptions {
            solver: LinearSolverKind::Dense,
            ..OpOptions::default()
        };
        let dense = dc_operating_point(&c, &dense_opts).unwrap();
        for n in [vdd, out] {
            let (a, b) = (sparse.voltage(n), dense.voltage(n));
            assert!(
                (a - b).abs() <= 1e-6 * a.abs().max(1.0),
                "node {}: sparse {a} vs dense {b}",
                c.node_name(n)
            );
        }
    }

    #[test]
    fn voltage_divider() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", vin, out, 10e3);
        c.add_resistor("r2", out, Circuit::gnd(), 20e3);
        let op = op(&c);
        assert!((op.voltage(vin) - 1.2).abs() < 1e-9);
        assert!((op.voltage(out) - 0.8).abs() < 1e-9);
    }

    #[test]
    fn vsource_branch_current_sign() {
        // 1 V across 1 kΩ: 1 mA flows out of the + terminal through the
        // external resistor, i.e. the *branch* current (p→n through the
        // source) is −1 mA.
        let mut c = Circuit::new();
        let a = c.node("a");
        let v1 = c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("r1", a, Circuit::gnd(), 1e3);
        let op = op(&c);
        assert!((op.branch_current(v1) + 1e-3).abs() < 1e-9);
    }

    #[test]
    fn current_source_into_resistor() {
        // 1 mA pulled out of node a (p = a): v(a) = −R·I.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_isource("i1", a, Circuit::gnd(), Waveform::Dc(1e-3));
        c.add_resistor("r1", a, Circuit::gnd(), 1e3);
        let op = op(&c);
        assert!((op.voltage(a) + 1.0).abs() < 1e-9, "v = {}", op.voltage(a));
    }

    #[test]
    fn inductor_is_dc_short() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_inductor("l1", a, b, 1e-9);
        c.add_resistor("r1", b, Circuit::gnd(), 1e3);
        let op = op(&c);
        assert!((op.voltage(b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn capacitor_is_dc_open() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("r1", a, b, 1e3);
        c.add_capacitor("c1", b, Circuit::gnd(), 1e-12);
        c.add_resistor("r2", b, Circuit::gnd(), 1e6);
        let op = op(&c);
        // Divider 1k/1M: v(b) ≈ 0.999.
        assert!((op.voltage(b) - 1e6 / 1.001e6).abs() < 1e-6);
    }

    #[test]
    fn nmos_diode_connected() {
        // Diode-connected NMOS pulled up through a resistor: solves the
        // classic nonlinear bias point.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", vdd, d, 10e3);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            10e-6,
            65e-9,
            d,
            d,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let op = op(&c);
        let vd = op.voltage(d);
        // Gate-drain tied: device in saturation, vd somewhat above vth.
        assert!(vd > 0.35 && vd < 0.8, "vd = {vd}");
        // KCL: resistor current equals drain current.
        let id = op.mos_eval(ElementId::from_index(2)).unwrap().id;
        let ir = (1.2 - vd) / 10e3;
        assert!((id - ir).abs() < 1e-6 * ir.max(1e-9), "id {id} vs ir {ir}");
    }

    #[test]
    fn common_source_amplifier_bias() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let g = c.node("g");
        let d = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_vsource("vg", g, Circuit::gnd(), Waveform::Dc(0.55));
        c.add_resistor("rd", vdd, d, 1e3);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            5e-6,
            65e-9,
            d,
            g,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let op = op(&c);
        let vd = op.voltage(d);
        assert!(vd > 0.1 && vd < 1.15, "vd = {vd}");
        let ev = op.mos_eval(ElementId::from_index(3)).unwrap();
        assert!(ev.gm > 1e-4, "gm = {}", ev.gm);
    }

    #[test]
    fn cmos_inverter_transfer_extremes() {
        for (vin, expect_high) in [(0.0, true), (1.2, false)] {
            let mut c = Circuit::new();
            let vdd = c.node("vdd");
            let inp = c.node("in");
            let out = c.node("out");
            c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
            c.add_vsource("vin", inp, Circuit::gnd(), Waveform::Dc(vin));
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
            let op = op(&c);
            let vo = op.voltage(out);
            if expect_high {
                assert!(vo > 1.1, "inverter high: {vo}");
            } else {
                assert!(vo < 0.1, "inverter low: {vo}");
            }
        }
    }

    #[test]
    fn iterations_reported() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("r1", a, Circuit::gnd(), 1e3);
        let op = op(&c);
        assert!(op.iterations >= 1);
    }

    #[test]
    fn invalid_circuit_rejected_with_all_findings() {
        let c = Circuit::new();
        match dc_operating_point(&c, &OpOptions::default()) {
            Err(AnalysisError::Lint(report)) => {
                assert!(!report.is_clean());
                assert_eq!(report.by_rule(remix_lint::RuleId::EmptyCircuit).len(), 1);
            }
            other => panic!("expected Lint, got {other:?}"),
        }
    }

    #[test]
    fn success_trace_records_converged_attempt_with_rcond() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("r1", a, Circuit::gnd(), 1e3);
        let op = op(&c);
        assert!(!op.trace.is_empty());
        let last = op.trace.attempts.last().unwrap();
        assert_eq!(last.outcome, crate::convergence::AttemptOutcome::Converged);
        let r = op.rcond().expect("converged attempt records rcond");
        assert!(r > 0.0 && r <= 1.0, "rcond = {r}");
        // A healthy divider is far from ill-conditioned.
        assert!(op.condition_warning().is_none());
    }

    #[test]
    fn gmin_ladder_descent_trace_is_pinned() {
        // Force the ladder (no direct stage) with a non-decade target so
        // the final rung must clamp to exactly the target.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", vdd, d, 10e3);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            10e-6,
            65e-9,
            d,
            d,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let opts = OpOptions {
            gmin: 2.5e-12,
            policy: crate::convergence::ConvergencePolicy::single(
                crate::convergence::StageKind::GminLadder { start: 1e-3 },
            ),
            ..OpOptions::default()
        };
        let op = dc_operating_point(&c, &opts).unwrap();
        let expected = crate::convergence::ConvergencePolicy::gmin_rungs(1e-3, 2.5e-12);
        let got: Vec<f64> = op.trace.attempts.iter().map(|a| a.gmin).collect();
        assert_eq!(got, expected, "one attempt per rung, in descent order");
        assert_eq!(*got.last().unwrap(), 2.5e-12, "last rung clamps to target");
        for a in &op.trace.attempts {
            assert_eq!(a.outcome, crate::convergence::AttemptOutcome::Converged);
            assert_eq!(a.source_scale, 1.0);
            assert_eq!(a.diag_load, 0.0);
            assert!(a.iterations >= 1);
            assert!(a.rcond.is_some());
            assert!(matches!(a.stage, crate::convergence::TraceStage::Dc(
                    crate::convergence::StageKind::GminLadder { start }
                ) if start == 1e-3));
        }
    }

    #[test]
    fn pseudo_transient_stage_alone_solves_nonlinear_bias() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", vdd, d, 10e3);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            10e-6,
            65e-9,
            d,
            d,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let opts = OpOptions {
            policy: crate::convergence::ConvergencePolicy::single(
                crate::convergence::StageKind::PseudoTransient {
                    lambda0: 1e-2,
                    decay: 0.1,
                    rounds: 5,
                },
            ),
            ..OpOptions::default()
        };
        let op = dc_operating_point(&c, &opts).unwrap();
        let vd = op.voltage(d);
        assert!(vd > 0.35 && vd < 0.8, "vd = {vd}");
        // 5 loaded rounds + 1 exact solve, loads strictly decaying to 0.
        assert_eq!(op.trace.attempts.len(), 6);
        let loads: Vec<f64> = op.trace.attempts.iter().map(|a| a.diag_load).collect();
        assert_eq!(loads[0], 1e-2);
        assert_eq!(*loads.last().unwrap(), 0.0);
        for w in loads.windows(2) {
            assert!(w[0] > w[1] || w[1] == 0.0, "{loads:?}");
        }
    }

    #[test]
    fn no_convergence_carries_full_trace() {
        // One Newton iteration cannot solve a MOS bias point; with a
        // single direct stage and one damping pass the solve must fail
        // and the error must carry the attempt record.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", vdd, d, 10e3);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            10e-6,
            65e-9,
            d,
            d,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let opts = OpOptions {
            max_iter: 1,
            policy: crate::convergence::ConvergencePolicy {
                stages: vec![crate::convergence::StageKind::Direct],
                damping_retries: 1,
            },
            ..OpOptions::default()
        };
        match dc_operating_point(&c, &opts) {
            Err(AnalysisError::NoConvergence {
                iterations, trace, ..
            }) => {
                assert!(!trace.is_empty());
                assert_eq!(trace.total_iterations(), iterations);
                assert_eq!(
                    trace.attempts[0].outcome,
                    crate::convergence::AttemptOutcome::MaxIterations
                );
            }
            other => panic!("expected NoConvergence with trace, got {other:?}"),
        }
    }

    #[test]
    fn structural_diagnosis_names_rank_findings() {
        // A node whose every terminal is a controlled-source *control*
        // pin: invisible to the heuristic rules, but its KCL row is
        // structurally empty — only the rank pass (ERC012) names it.
        let mut c = Circuit::new();
        let vin = c.node("vin");
        let out = c.node("out");
        c.add_vsource("v1", vin, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", vin, out, 1e3);
        c.add_resistor("r2", out, Circuit::gnd(), 1e3);
        let out2 = c.node("out2");
        let ctrl = c.node("ctrl");
        c.add_vcvs("e1", out2, Circuit::gnd(), ctrl, Circuit::gnd(), 2.0);
        c.add_resistor("r_load", out2, Circuit::gnd(), 1e3);
        c.add_vccs("g1", out, Circuit::gnd(), ctrl, Circuit::gnd(), 1e-3);
        let diag = structural_diagnosis(&c);
        assert!(
            diag.iter()
                .any(|d| d.contains("ERC012") && d.contains("ctrl")),
            "expected an ERC012 finding naming 'ctrl', got {diag:?}"
        );
    }

    #[test]
    fn zero_deadline_interrupts_with_nonempty_trace() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource("v1", a, Circuit::gnd(), Waveform::Dc(1.0));
        c.add_resistor("r1", a, Circuit::gnd(), 1e3);
        let token = remix_exec::RunBudget::unlimited()
            .with_deadline(std::time::Duration::ZERO)
            .token();
        let _guard = token.arm();
        match dc_operating_point(&c, &OpOptions::default()) {
            Err(AnalysisError::BudgetExceeded {
                interruption,
                trace,
                partial,
            }) => {
                assert!(matches!(
                    interruption,
                    remix_exec::Interruption::DeadlineExpired { .. }
                ));
                assert!(!trace.is_empty(), "interrupted attempt must be recorded");
                assert_eq!(partial.analysis, "dc operating point");
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn newton_budget_interrupts_mid_ladder() {
        // A nonlinear bias point needs more than 2 Newton iterations;
        // the iteration budget must stop the ladder without retries.
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let d = c.node("d");
        c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
        c.add_resistor("r1", vdd, d, 10e3);
        c.add_mosfet(
            "m1",
            MosModel::nmos_65nm(),
            10e-6,
            65e-9,
            d,
            d,
            Circuit::gnd(),
            Circuit::gnd(),
        );
        let token = remix_exec::RunBudget::unlimited()
            .with_newton_iterations(2)
            .token();
        let _guard = token.arm();
        match dc_operating_point(&c, &OpOptions::default()) {
            Err(AnalysisError::BudgetExceeded {
                interruption,
                trace,
                ..
            }) => {
                assert_eq!(
                    interruption,
                    remix_exec::Interruption::NewtonIterations { limit: 2 }
                );
                assert!(trace.total_iterations() <= 2, "{}", trace.render());
            }
            other => panic!("expected BudgetExceeded, got {other:?}"),
        }
    }

    #[test]
    fn sine_source_op_uses_t0_value() {
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add_vsource(
            "v1",
            a,
            Circuit::gnd(),
            Waveform::Sin {
                offset: 0.6,
                amplitude: 0.1,
                freq: 1e9,
                phase: 0.0,
                delay: 0.0,
            },
        );
        c.add_resistor("r1", a, Circuit::gnd(), 1e3);
        let op = op(&c);
        assert!((op.voltage(a) - 0.6).abs() < 1e-9);
    }
}
