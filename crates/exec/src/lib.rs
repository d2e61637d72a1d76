//! # remix-exec
//!
//! Bounded execution for the solver stack: cooperative cancellation,
//! run budgets, and supervised job execution.
//!
//! Nothing in a Newton ladder or a transient grid is intrinsically
//! bounded — a pathological bias point spins the damping cascade, a
//! dense PSS grid multiplies periods, and a server in front of the
//! engine has no lever beyond killing the process. This crate provides
//! the lever:
//!
//! * [`RunBudget`] — a declarative budget (wall-clock deadline, Newton
//!   iterations, timesteps, matrix dimension) compiled into a
//!   [`CancelToken`];
//! * [`CancelToken`] — a cloneable, thread-safe token the solver hot
//!   paths charge against at factor/iteration/timestep/sweep-point
//!   boundaries. Tokens are armed per thread with an RAII
//!   [`BudgetGuard`] (mirroring the fault-injection plumbing in
//!   `remix-analysis`), so the solver crates call free hooks
//!   ([`charge_newton_iteration`], [`charge_timestep`], [`checkpoint`],
//!   [`check_matrix_dim`]) without threading a token through every
//!   signature;
//! * [`Interruption`] — the typed reason a budget tripped, carried
//!   upward inside `AnalysisError::BudgetExceeded`;
//! * [`Supervisor`] — a job runner with per-job `catch_unwind`
//!   isolation, jittered exponential retry for retryable failures, a
//!   work queue, and a [`Watchdog`] thread that trips tokens whose
//!   deadline passed even when the job stops calling hooks;
//! * [`run_tasks`] (the `pool` module) — a work-stealing study pool:
//!   per-worker deques, panic isolation per task, per-attempt child
//!   budget tokens, deterministic telemetry merge, a straggler
//!   watchdog, and a deterministic chaos layer for soak testing;
//! * [`atomic_write`] — the crash-safe (tmp + fsync + rename) file
//!   replacement under every persistence layer in the stack.
//!
//! The crate depends only on `remix-telemetry` (job lifecycle events)
//! and knows nothing about circuits; the analysis layer owns the
//! mapping from an [`Interruption`] to a typed partial result.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

mod admission;
mod budget;
mod env;
mod persist;
mod pool;
mod supervisor;

pub use admission::{AdmissionQueue, Shed};
pub use budget::{
    active_token, charge_newton_iteration, charge_timestep, check_matrix_dim, checkpoint,
    BudgetGuard, CancelToken, Interruption, RunBudget, DEFAULT_TIMESTEP_BUDGET,
};
pub use env::{env_u64, env_u64_or_warn, warn_malformed, EnvValue};
pub use persist::atomic_write;
pub use pool::{
    run_tasks, Parallelism, PoolChaos, PoolOptions, PoolRun, PoolStats, TaskContext, TaskResult,
    WorkerContext, WorkerGuard, ENV_POOL_CHAOS, ENV_WORKERS,
};
pub use supervisor::{
    retry_backoff, Job, JobError, JobOutcome, JobReport, Supervisor, SupervisorOptions, Watchdog,
};
