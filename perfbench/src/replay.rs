//! Layer replay: on a workload's own circuit, at its DC operating point,
//! call the public functions the program's Newton loop calls — assemble
//! (with every MOS evaluation), triplet→CSR, sparse LU, condition
//! estimate, solve — and time each call. The dense factorization of the
//! same matrix is timed beside them for the sparse-versus-dense choice.
//!
//! Before any number is trusted the replay proves it runs the program's
//! loop: replayed from the same start, its Newton iterations land on the
//! program's solutions, and its last factorization has the fill of the
//! program's `remix.numerics.lu.fill_nnz` gauge (see [`replay`]). The
//! fill is compared on reproduced solves rather than on the workload's
//! own gauge because threshold pivoting makes the fill depend on the
//! matrix values, which change from step to step.

use crate::workloads::{NewtonLoop, ReplayCircuit};
use remix_analysis::stamp::{assemble_real, mos_cap_branches, CapState, ElementState, RealMode};
use remix_analysis::{dc_operating_point, transient};
use remix_analysis::{OperatingPoint, TranOptions};
use remix_circuit::{Element, ElementId, MnaLayout, Node};
use remix_numerics::{IntegrationMethod, LuFactor, SparseLu, TripletMatrix};
use remix_telemetry::{names, Telemetry};
use std::hint::black_box;

/// Timing batches per replayed function, and the least length of one.
const BATCHES: usize = 11;
const BATCH_S: f64 = 3e-3;

/// Relative distance allowed between a replayed solve and the program's.
pub const OP_REPRODUCTION_TOL: f64 = 1e-9;

/// Nanoseconds per call of each replayed layer function, on one matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Costs {
    /// `stamp::assemble_real` (MOS evaluation included).
    pub assemble_ns: f64,
    /// `Mosfet::evaluate` over every device of the circuit.
    pub mos_eval_ns: f64,
    /// `TripletMatrix::to_csr`.
    pub to_csr_ns: f64,
    /// `SparseLu::factor`.
    pub sparse_factor_ns: f64,
    /// `SparseLu::rcond_estimate`.
    pub rcond_ns: f64,
    /// `SparseLu::solve`.
    pub solve_ns: f64,
    /// `TripletMatrix::to_dense` + `LuFactor::factor`.
    pub dense_factor_ns: f64,
    /// Matrix dimension.
    pub dim: f64,
    /// Stored entries of the CSR matrix.
    pub nnz: f64,
    /// Stored entries of the sparse L and U factors.
    pub fill_nnz: f64,
}

impl Costs {
    /// The linear-algebra-and-stamping cost of one Newton iteration as
    /// the transient loop runs it: assemble → CSR → factor → rcond →
    /// solve.
    pub fn per_iteration_ns(&self) -> f64 {
        self.assemble_ns + self.to_csr_ns + self.sparse_factor_ns + self.rcond_ns + self.solve_ns
    }

    /// The weighted mean of several replays (weights need not sum to 1).
    pub fn weighted(parts: &[(Costs, f64)]) -> Costs {
        let total: f64 = parts.iter().map(|(_, w)| w).sum();
        let share = |w: f64| {
            if total > 0.0 {
                w / total
            } else {
                1.0 / parts.len() as f64
            }
        };
        let mut out = Costs::default();
        for (c, w) in parts {
            let s = share(*w);
            out.assemble_ns += s * c.assemble_ns;
            out.mos_eval_ns += s * c.mos_eval_ns;
            out.to_csr_ns += s * c.to_csr_ns;
            out.sparse_factor_ns += s * c.sparse_factor_ns;
            out.rcond_ns += s * c.rcond_ns;
            out.solve_ns += s * c.solve_ns;
            out.dense_factor_ns += s * c.dense_factor_ns;
            out.dim += s * c.dim;
            out.nnz += s * c.nnz;
            out.fill_nnz += s * c.fill_nnz;
        }
        out
    }
}

/// A replay's timings and the fidelity problems found (none means the
/// timings describe the program's own matrices).
#[derive(Debug, Clone)]
pub struct Replay {
    /// Per-call costs.
    pub costs: Costs,
    /// Why the replay does not match the program, if it does not.
    pub problems: Vec<String>,
}

/// Median ns per call of `f` over [`BATCHES`] batches, each calibrated to
/// last at least [`BATCH_S`]: enough samples that a burst of host
/// contention during the replay does not set the figure.
fn time_ns<T>(f: impl FnMut() -> T) -> f64 {
    crate::stats::per_call_s(BATCHES, BATCH_S, f) * 1e9
}

/// Dynamic element states at the operating point, as the transient
/// integrator initializes them.
fn states_at(rc: &ReplayCircuit, op: &OperatingPoint) -> Vec<ElementState> {
    let (layout, x) = (&op.layout, &op.solution);
    rc.circuit
        .elements()
        .iter()
        .enumerate()
        .map(|(idx, e)| match e {
            Element::Capacitor { a, b, .. } => ElementState::Cap(CapState {
                v: layout.voltage(x, *a) - layout.voltage(x, *b),
                i: 0.0,
            }),
            Element::Inductor { a, b, .. } => ElementState::Ind(remix_analysis::stamp::IndState {
                i: layout.branch_current(x, ElementId::from_index(idx)),
                v: layout.voltage(x, *a) - layout.voltage(x, *b),
            }),
            Element::Mos { dev, .. } => {
                let caps = op.mos_caps[idx].unwrap_or_default();
                let mut sts = [CapState::default(); 5];
                for (k, (a, b, _)) in mos_cap_branches(dev.d, dev.g, dev.s, dev.b, &caps)
                    .iter()
                    .enumerate()
                {
                    sts[k].v = layout.voltage(x, *a) - layout.voltage(x, *b);
                }
                ElementState::MosCaps(sts)
            }
            _ => ElementState::None,
        })
        .collect()
}

/// The settings of one of the program's Newton loops.
struct Loop<'a> {
    mode: RealMode<'a>,
    dv_max: f64,
    v_tol: f64,
    max_iter: usize,
    full_step_to_converge: bool,
}

/// Runs a Newton loop exactly as the program does — assemble → CSR →
/// sparse LU → solve, node-voltage damping to `dv_max`, converged when
/// the damped change drops below `v_tol` (and, for the DC loop, the step
/// was undamped). Returns the iterations and the fill of the last
/// factorization; `x` ends on the converged iterate.
fn run_loop(
    rc: &ReplayCircuit,
    layout: &MnaLayout,
    lp: &Loop<'_>,
    x: &mut [f64],
) -> Result<(usize, usize), String> {
    let dim = layout.dim();
    let mut m = TripletMatrix::<f64>::new(dim, dim);
    let mut rhs = vec![0.0; dim];
    for iter in 1..=lp.max_iter {
        assemble_real(&rc.circuit, layout, x, &lp.mode, &mut m, &mut rhs, None);
        let lu = SparseLu::factor(&m.to_csr()).map_err(|e| format!("{}: {e}", rc.label))?;
        let x_new = lu.solve(&rhs).map_err(|e| format!("{}: {e}", rc.label))?;
        let max_dv =
            (0..layout.node_unknowns()).fold(0.0f64, |d, i| d.max((x_new[i] - x[i]).abs()));
        let alpha = if max_dv > lp.dv_max {
            lp.dv_max / max_dv
        } else {
            1.0
        };
        for i in 0..dim {
            x[i] += alpha * (x_new[i] - x[i]);
        }
        if max_dv * alpha < lp.v_tol && (alpha == 1.0 || !lp.full_step_to_converge) {
            return Ok((iter, lu.fill_nnz()));
        }
    }
    Err(format!(
        "{}: replayed Newton loop did not converge",
        rc.label
    ))
}

/// Largest distance between two solutions over the MOS terminal nodes,
/// relative to the largest voltage there (at least 1 V).
fn mos_node_distance(rc: &ReplayCircuit, a: impl Fn(Node) -> f64, b: impl Fn(Node) -> f64) -> f64 {
    let (mut dist, mut scale) = (0.0f64, 1.0f64);
    for e in rc.circuit.elements() {
        if let Element::Mos { dev, .. } = e {
            for n in [dev.d, dev.g, dev.s, dev.b] {
                dist = dist.max((a(n) - b(n)).abs());
                scale = scale.max(a(n).abs());
            }
        }
    }
    dist / scale
}

/// Runs `f` under a fresh telemetry context and returns its result with
/// the fill of the last factorization it made.
fn traced<T, E>(f: impl FnOnce() -> Result<T, E>) -> Result<(T, Option<f64>), E> {
    let t = Telemetry::new();
    let out = {
        let _armed = t.arm();
        f()?
    };
    Ok((out, t.snapshot().gauge(names::LU_FILL_NNZ)))
}

/// Replays the Newton loop of `rc` and times its layer functions.
///
/// Fidelity checks, any failure of which lands in
/// [`Replay::problems`]:
///
/// * the DC operating point, replayed from zero through the direct
///   Newton stage, takes the program's iteration count, ends on the
///   program's solution to [`OP_REPRODUCTION_TOL`], and its last
///   factorization has the program's fill (the `lu.fill_nnz` gauge of
///   the program's own solve);
/// * for a transient loop, the first (backward-Euler) step replayed
///   from that operating point lands on the program's one-step
///   transient to the same tolerance, with the program's fill.
///
/// # Errors
///
/// When the program's own solves or a replayed factorization fail.
pub fn replay(rc: &ReplayCircuit) -> Result<Replay, String> {
    let mut problems = Vec::new();
    let circuit = &rc.circuit;
    // The program's DC operating point, traced for its fill.
    let (op, op_fill) =
        traced(|| dc_operating_point(circuit, &rc.op)).map_err(|e| format!("{}: {e}", rc.label))?;
    let layout = &op.layout;
    let x = &op.solution;
    let dim = layout.dim();
    let dc = RealMode::Dc {
        gmin: rc.op.gmin,
        source_scale: 1.0,
    };

    if op.trace.attempts.len() == 1 {
        let mut x_dc = vec![0.0; dim];
        let dc_loop = Loop {
            mode: dc,
            dv_max: rc.op.dv_max,
            v_tol: rc.op.v_tol,
            max_iter: rc.op.max_iter,
            full_step_to_converge: true,
        };
        let (iters, fill) = run_loop(rc, layout, &dc_loop, &mut x_dc)?;
        let dist = mos_node_distance(rc, |n| layout.voltage(x, n), |n| layout.voltage(&x_dc, n));
        if iters != op.iterations || dist > OP_REPRODUCTION_TOL || op_fill != Some(fill as f64) {
            problems.push(format!(
                "{}: replayed DC Newton took {iters} iterations (program {}), landed {dist:.3e} from the operating point, fill {fill} (program {op_fill:?})",
                rc.label, op.iterations
            ));
        }
    } else {
        problems.push(format!(
            "{}: the operating point needed the homotopy ladder; the replay reproduces the direct stage only",
            rc.label
        ));
    }

    // The Newton system the workload's loop factors, at the OP.
    let states = states_at(rc, &op);
    if let NewtonLoop::Tran { h } = rc.newton {
        // The program's first transient step, traced for its fill.
        let mut one_step = TranOptions::new(1.4 * h, h);
        one_step.op_options = rc.op.clone();
        let (result, tran_fill) =
            traced(|| transient(circuit, &one_step)).map_err(|e| format!("{}: {e}", rc.label))?;
        let mut x_step = x.clone();
        let step_loop = Loop {
            mode: RealMode::Tran {
                t: h,
                gmin: one_step.gmin,
                coeffs: IntegrationMethod::BackwardEuler.coeffs(h),
                states: &states,
                mos_caps: &op.mos_caps,
            },
            dv_max: 0.5,
            v_tol: one_step.v_tol,
            max_iter: one_step.max_newton,
            full_step_to_converge: false,
        };
        let (_, fill) = run_loop(rc, layout, &step_loop, &mut x_step)?;
        let dist = mos_node_distance(
            rc,
            |n| result.voltage_at(1, n),
            |n| layout.voltage(&x_step, n),
        );
        if dist > OP_REPRODUCTION_TOL || tran_fill != Some(fill as f64) {
            problems.push(format!(
                "{}: replayed first transient step landed {dist:.3e} from the program's, fill {fill} (program {tran_fill:?})",
                rc.label
            ));
        }
    }

    let mode = match rc.newton {
        NewtonLoop::Tran { h } => RealMode::Tran {
            t: h,
            gmin: TranOptions::new(2.0 * h, h).gmin,
            coeffs: IntegrationMethod::Trapezoidal.coeffs(h),
            states: &states,
            mos_caps: &op.mos_caps,
        },
        NewtonLoop::Dc => dc,
    };
    let mut m = TripletMatrix::<f64>::new(dim, dim);
    let mut rhs = vec![0.0; dim];
    assemble_real(circuit, layout, x, &mode, &mut m, &mut rhs, None);
    let csr = m.to_csr();
    let lu = SparseLu::factor(&csr).map_err(|e| format!("{}: {e}", rc.label))?;

    let mut m_timed = TripletMatrix::<f64>::new(dim, dim);
    let mut rhs_timed = vec![0.0; dim];
    let assemble_ns = time_ns(|| {
        assemble_real(
            circuit,
            layout,
            x,
            &mode,
            &mut m_timed,
            &mut rhs_timed,
            None,
        );
        m_timed.raw_len()
    });
    let mos_eval_ns = time_ns(|| {
        let mut acc = 0.0;
        for e in circuit.elements() {
            if let Element::Mos { dev, .. } = e {
                let v = |n| layout.voltage(black_box(x), n);
                acc += dev.evaluate(v(dev.d), v(dev.g), v(dev.s), v(dev.b)).id;
            }
        }
        acc
    });
    let costs = Costs {
        assemble_ns,
        mos_eval_ns,
        to_csr_ns: time_ns(|| black_box(&m).to_csr()),
        sparse_factor_ns: time_ns(|| SparseLu::factor(black_box(&csr))),
        rcond_ns: time_ns(|| black_box(&lu).rcond_estimate()),
        solve_ns: time_ns(|| black_box(&lu).solve(black_box(&rhs))),
        dense_factor_ns: time_ns(|| LuFactor::factor(&black_box(&m).to_dense())),
        dim: dim as f64,
        nnz: csr.nnz() as f64,
        fill_nnz: lu.fill_nnz() as f64,
    };
    Ok(Replay { costs, problems })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn weighted_mean_of_costs() {
        let a = Costs {
            assemble_ns: 10.0,
            dim: 4.0,
            ..Costs::default()
        };
        let b = Costs {
            assemble_ns: 30.0,
            dim: 8.0,
            ..Costs::default()
        };
        let w = Costs::weighted(&[(a, 1.0), (b, 3.0)]);
        assert_eq!(w.assemble_ns, 25.0);
        assert_eq!(w.dim, 7.0);
        let even = Costs::weighted(&[(a, 0.0), (b, 0.0)]);
        assert_eq!(even.assemble_ns, 20.0);
    }

    #[test]
    fn per_iteration_sums_the_loop_layers() {
        let c = Costs {
            assemble_ns: 1.0,
            mos_eval_ns: 100.0,
            to_csr_ns: 2.0,
            sparse_factor_ns: 3.0,
            rcond_ns: 4.0,
            solve_ns: 5.0,
            dense_factor_ns: 100.0,
            ..Costs::default()
        };
        // MOS evaluation is inside assembly; the dense factor is not in
        // the loop.
        assert_eq!(c.per_iteration_ns(), 15.0);
    }
}
