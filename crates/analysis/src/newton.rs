//! The damped Newton kernel shared by the DC operating point and the
//! transient.
//!
//! A [`Newton`] owns the linear-algebra scaffolding of one analysis run —
//! the triplets, the right-hand side, the cached CSR pattern, the sparse
//! LU and the solver kind — and the one iteration rule both analyses use.
//! Each iteration charges the run budget, assembles through the caller's
//! closure, converts to CSR, factors (sparse through the fault hook, one
//! hooked event per iteration; dense afresh, bypassing it), solves, damps
//! node-voltage moves to `dv_max`, stops on a non-finite iterate, and
//! converges on an undamped step whose largest node move is below
//! `v_tol`.

use crate::convergence::{AttemptOutcome, StageAttempt};
use crate::op::LinearSolverKind;
use remix_circuit::MnaLayout;
use remix_numerics::{CsrPattern, FactorError, LuFactor, SparseLu, TripletMatrix};

/// Iteration limits of one [`Newton::solve`] call.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Limits {
    /// Iterations allowed (before the fault hook's cap).
    pub max_iter: usize,
    /// Convergence tolerance on the largest node-voltage move (V).
    pub v_tol: f64,
    /// Largest node-voltage move per iteration (V); longer steps are
    /// scaled down.
    pub dv_max: f64,
}

/// Why a [`Newton::solve`] call stopped without converging.
#[derive(Debug, Clone)]
pub(crate) enum Stop {
    /// The iteration limit ran out.
    MaxIterations,
    /// The iterate left the finite domain.
    Diverged,
    /// The system could not be factored or solved.
    Factor(FactorError),
    /// The run budget armed on this thread refused the iteration or the
    /// factorization.
    Interrupted(remix_exec::Interruption),
}

impl From<FactorError> for Stop {
    fn from(e: FactorError) -> Self {
        match e {
            FactorError::Budget(i) => Stop::Interrupted(i),
            e => Stop::Factor(e),
        }
    }
}

impl Stop {
    /// The traced outcome of an attempt that ended here.
    fn outcome(&self) -> AttemptOutcome {
        match self {
            Stop::MaxIterations => AttemptOutcome::MaxIterations,
            Stop::Diverged => AttemptOutcome::Diverged,
            Stop::Factor(FactorError::Singular { step }) => {
                AttemptOutcome::Singular { step: *step }
            }
            Stop::Factor(_) => AttemptOutcome::NotFinite,
            Stop::Interrupted(i) => AttemptOutcome::Interrupted(*i),
        }
    }
}

/// The Newton scaffolding of one analysis run (see the module docs).
pub(crate) struct Newton {
    m: TripletMatrix<f64>,
    rhs: Vec<f64>,
    pattern: CsrPattern<f64>,
    lu: Option<SparseLu<f64>>,
    solver: LinearSolverKind,
    /// Node unknowns: the leading entries of `x` that damping limits.
    nodes: usize,
    /// When set, sparse factorizations are values-only refactors of the
    /// last LU; otherwise every iteration factors afresh.
    pub numeric: bool,
}

impl Newton {
    /// Scaffolding for the MNA system of `layout`, factored through
    /// `solver`; starts with fresh factorizations.
    pub fn new(layout: &MnaLayout, solver: LinearSolverKind) -> Self {
        let dim = layout.dim();
        Newton {
            m: TripletMatrix::new(dim, dim),
            rhs: vec![0.0; dim],
            pattern: CsrPattern::new(),
            lu: None,
            solver,
            nodes: layout.node_unknowns(),
            numeric: false,
        }
    }

    /// Iterates `x` to convergence. `assemble(x, m, rhs)` stamps the
    /// linearized system at `x`. Fills `attempt`'s damping limit,
    /// iterations, rcond, final move and outcome, and adds the iterations
    /// to `remix.analysis.newton.iterations` once.
    pub fn solve(
        &mut self,
        x: &mut [f64],
        limits: Limits,
        attempt: &mut StageAttempt,
        assemble: impl FnMut(&[f64], &mut TripletMatrix<f64>, &mut [f64]),
    ) -> Result<(), Stop> {
        attempt.dv_max = limits.dv_max;
        let solved = self.iterate(x, limits, attempt, assemble);
        attempt.outcome = match &solved {
            Ok(()) => AttemptOutcome::Converged,
            Err(stop) => stop.outcome(),
        };
        remix_telemetry::counter_add(
            remix_telemetry::names::NEWTON_ITERATIONS,
            attempt.iterations as u64,
        );
        solved
    }

    fn iterate(
        &mut self,
        x: &mut [f64],
        limits: Limits,
        attempt: &mut StageAttempt,
        mut assemble: impl FnMut(&[f64], &mut TripletMatrix<f64>, &mut [f64]),
    ) -> Result<(), Stop> {
        for iter in 0..crate::fault::newton_cap(limits.max_iter) {
            remix_exec::charge_newton_iteration().map_err(Stop::Interrupted)?;
            attempt.iterations = iter + 1;
            assemble(x, &mut self.m, &mut self.rhs);
            let csr = self.pattern.convert(&self.m);
            let (rcond, x_new) = match self.solver {
                LinearSolverKind::Sparse => {
                    let lu = crate::fault::refactor(&mut self.lu, csr, self.numeric)?;
                    (lu.rcond_estimate(), lu.solve(&self.rhs))
                }
                LinearSolverKind::Dense => {
                    let lu = LuFactor::factor(&csr.to_dense())?;
                    (lu.rcond_estimate(), lu.solve(&self.rhs))
                }
            };
            attempt.rcond = Some(rcond);
            let x_new = x_new?;

            // Damping limited to node voltages; branch currents follow freely.
            let max_dv = (0..self.nodes).fold(0.0f64, |d, i| d.max((x_new[i] - x[i]).abs()));
            let alpha = if max_dv > limits.dv_max {
                limits.dv_max / max_dv
            } else {
                1.0
            };
            for (xi, xn) in x.iter_mut().zip(&x_new) {
                *xi += alpha * (xn - *xi);
            }
            attempt.final_max_dv = max_dv * alpha;
            if !x.iter().all(|v| v.is_finite()) {
                return Err(Stop::Diverged);
            }
            if alpha == 1.0 && max_dv < limits.v_tol {
                return Ok(());
            }
        }
        Err(Stop::MaxIterations)
    }
}
