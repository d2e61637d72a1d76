//! Fault-tolerant work-stealing pool for embarrassingly parallel
//! studies (Monte-Carlo samples, corner sweeps, DC sweep points).
//!
//! Design constraints, in order:
//!
//! 1. **Determinism.** A study must produce byte-identical
//!    `without_timings()` telemetry and identical outcomes no matter
//!    how many workers run it or how tasks interleave. Three rules
//!    deliver that: tasks are seeded by *index* (the drivers'
//!    prefix-stable SplitMix64 seeding), each task runs against a
//!    [`Telemetry::fork`]ed registry that the caller absorbs in
//!    ascending `(index, attempt)` order after the workers join (so
//!    last-value gauges land exactly as a serial loop would leave
//!    them), and the pool itself writes **nothing** into the metrics
//!    registry — lifecycle is events ([`names::EXEC_POOL`]) and a
//!    [`PoolStats`] return value only.
//! 2. **Containment.** Every task runs under `catch_unwind`; a panic
//!    becomes an `Err("panic: …")` outcome handed to the driver, never
//!    a dead study. Each attempt arms its own budget child token
//!    ([`CancelToken::child`]) and telemetry fork via the existing
//!    RAII guards, so no state leaks between tasks sharing a worker.
//! 3. **Liveness.** An optional per-task deadline plus a watchdog
//!    thread turn stragglers into cancelled attempts that are
//!    re-dispatched once and then reported as an `Err` whose text
//!    starts `timed out:` — one stuck sample cannot wedge the pool.
//!
//! The study-level budget still binds: workers poll the caller's armed
//! token between tasks and attempt tokens are children of it, so a
//! study deadline, cancellation, or exhausted Newton/timestep
//! allowance stops dispatch exactly as a serial loop's per-sample
//! checkpoint would.
//!
//! A deterministic chaos layer ([`PoolChaos`], `REMIX_EXEC_POOL_CHAOS`)
//! injects worker panics by task index, delays steals, and cancels the
//! study after a fixed number of completions — the failure battery the
//! parallel-soak CI job replays.

use crate::budget::{active_token, CancelToken, Interruption, RunBudget};
use crate::env::env_u64_or_warn;
use remix_telemetry::{names, FieldValue, Telemetry};
use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::{Mutex, MutexGuard, PoisonError};
use std::time::Duration;

/// Re-dispatches allowed after a straggler-cancelled first attempt.
const MAX_REDISPATCH: u32 = 1;

/// Straggler watchdog poll interval (only spawned when a per-task
/// deadline is set).
const WATCHDOG_POLL: Duration = Duration::from_millis(2);

/// Environment knob naming the worker count for study drivers:
/// `0`/unset → [`Parallelism::Auto`], garbage → typed warning + Auto.
pub const ENV_WORKERS: &str = "REMIX_EXEC_WORKERS";

/// Environment knob carrying a [`PoolChaos`] spec for soak runs.
pub const ENV_POOL_CHAOS: &str = "REMIX_EXEC_POOL_CHAOS";

/// How many workers a study should use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// One worker — the reference execution every other mode must
    /// reproduce bit-for-bit. The default.
    #[default]
    Serial,
    /// `std::thread::available_parallelism()` workers (1 when unknown).
    Auto,
    /// Exactly this many workers (clamped to ≥ 1).
    Workers(usize),
}

impl Parallelism {
    /// The concrete worker count this policy resolves to.
    pub fn worker_count(self) -> usize {
        match self {
            Parallelism::Serial => 1,
            Parallelism::Auto => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            Parallelism::Workers(n) => n.max(1),
        }
    }

    /// Reads [`ENV_WORKERS`] through the typed env layer: unset or `0`
    /// mean [`Parallelism::Auto`], a parsable count means
    /// [`Parallelism::Workers`], and garbage emits the standard
    /// malformed-env warning and falls back to Auto.
    pub fn from_env() -> Parallelism {
        match env_u64_or_warn(ENV_WORKERS, Some(0)) {
            None | Some(0) => Parallelism::Auto,
            Some(n) => Parallelism::Workers(usize::try_from(n).unwrap_or(usize::MAX)),
        }
    }
}

/// Deterministic pool chaos schedule; all faults off by default.
///
/// The spec grammar (`REMIX_EXEC_POOL_CHAOS`):
///
/// ```text
/// panic:<n>[,steal:<n>:<ms>][,cancel:<n>]
/// ```
///
/// `panic:7` panics the first attempt of every 7th task *index*
/// (deterministic under any scheduling — the convicted set never
/// depends on worker count); `steal:5:2` sleeps 2 ms before every 5th
/// successful steal (perturbs interleaving without touching results);
/// `cancel:20` stops the study after the 20th completion, modelling a
/// mid-study kill between checkpoint writes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolChaos {
    /// Panic the first attempt of every Nth task index (1-based).
    pub panic_task_every: Option<u64>,
    /// Sleep `.1` ms before every `.0`th successful steal.
    pub steal_delay_every: Option<(u64, u64)>,
    /// Stop the study after this many completions.
    pub cancel_after: Option<u64>,
}

impl PoolChaos {
    /// Parses the spec grammar above. Empty input means no chaos.
    ///
    /// # Errors
    ///
    /// A human-readable message naming the malformed clause.
    pub fn parse(spec: &str) -> Result<PoolChaos, String> {
        let mut config = PoolChaos::default();
        for clause in spec.split(',').filter(|c| !c.trim().is_empty()) {
            let parts: Vec<&str> = clause.trim().split(':').collect();
            let period = |idx: usize| -> Result<u64, String> {
                let n: u64 = parts
                    .get(idx)
                    .ok_or_else(|| format!("pool chaos clause '{clause}': missing period"))?
                    .parse()
                    .map_err(|_| {
                        format!("pool chaos clause '{clause}': period must be an integer")
                    })?;
                if n == 0 {
                    return Err(format!("pool chaos clause '{clause}': period must be >= 1"));
                }
                Ok(n)
            };
            match parts.first().copied() {
                Some("panic") => config.panic_task_every = Some(period(1)?),
                Some("cancel") => config.cancel_after = Some(period(1)?),
                Some("steal") => config.steal_delay_every = Some((period(1)?, period(2)?)),
                _ => return Err(format!("unknown pool chaos clause '{clause}'")),
            }
        }
        Ok(config)
    }

    /// Reads [`ENV_POOL_CHAOS`]; a malformed spec is surfaced on
    /// stderr and falls back to no chaos, never silently half-applied.
    pub fn from_env() -> PoolChaos {
        match std::env::var(ENV_POOL_CHAOS) {
            Err(_) => PoolChaos::default(),
            Ok(raw) => match PoolChaos::parse(&raw) {
                Ok(config) => config,
                Err(why) => {
                    eprintln!(
                        "warning: {ENV_POOL_CHAOS}={raw:?} rejected ({why}); running without \
                         pool chaos"
                    );
                    PoolChaos::default()
                }
            },
        }
    }

    /// `true` when any fault is scheduled.
    pub fn is_active(&self) -> bool {
        self != &PoolChaos::default()
    }

    fn panic_fires(&self, index: usize, attempt: u32) -> bool {
        attempt == 0
            && self
                .panic_task_every
                .is_some_and(|p| (index as u64 + 1).is_multiple_of(p))
    }
}

/// Pool policy knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolOptions {
    /// Worker-count policy.
    pub parallelism: Parallelism,
    /// Per-attempt wall-clock allowance. When set, a watchdog thread
    /// trips attempts that outlive it; the task is re-dispatched once,
    /// then reported as an `Err` whose text starts `timed out:`.
    pub task_deadline: Option<Duration>,
    /// Deterministic fault schedule.
    pub chaos: PoolChaos,
}

impl Default for PoolOptions {
    fn default() -> Self {
        PoolOptions {
            parallelism: Parallelism::Serial,
            task_deadline: None,
            chaos: PoolChaos::default(),
        }
    }
}

impl PoolOptions {
    /// Options with an explicit worker policy and everything else
    /// default.
    pub fn with_parallelism(parallelism: Parallelism) -> PoolOptions {
        PoolOptions {
            parallelism,
            ..PoolOptions::default()
        }
    }

    /// The environment-driven configuration study bench binaries use:
    /// worker count from [`ENV_WORKERS`], chaos from
    /// [`ENV_POOL_CHAOS`].
    pub fn from_env() -> PoolOptions {
        PoolOptions {
            parallelism: Parallelism::from_env(),
            chaos: PoolChaos::from_env(),
            ..PoolOptions::default()
        }
    }
}

/// What one attempt of one task is told about itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TaskContext {
    /// The task's stable study index (seeds its work).
    pub index: usize,
    /// 0 on the first attempt, +1 per straggler re-dispatch.
    pub attempt: u32,
    /// The executing worker's id (also armed thread-locally, see
    /// [`WorkerContext`]).
    pub worker: usize,
}

/// What a task body reports back. Domain failures (non-convergence,
/// …) are the caller's to encode in `T`.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskResult<T> {
    /// The unit ran to an outcome.
    Done(T),
    /// A budget hook tripped mid-unit. The pool classifies it: the
    /// attempt's own deadline → straggler re-dispatch; anything from
    /// the study-level budget → study interruption.
    Interrupted(Interruption),
}

/// Pool bookkeeping for operator reports; intentionally *not* metrics
/// (the pool's registry footprint must be zero so serial and parallel
/// snapshots stay byte-identical).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Workers that ran.
    pub workers: usize,
    /// Attempts executed (completions + panics + cancelled attempts).
    pub executed: u64,
    /// Tasks taken from another worker's deque.
    pub steals: u64,
    /// Attempts that panicked (contained).
    pub panics: u64,
    /// Straggler re-dispatches.
    pub redispatches: u64,
    /// Chaos faults injected.
    pub chaos_injected: u64,
}

/// What a pool run produced.
#[derive(Debug)]
pub struct PoolRun<T> {
    /// `(index, outcome)` for every task that reached a terminal
    /// outcome, sorted by index. `Err` carries a contained panic
    /// (text starting `panic:`) or an exhausted per-task deadline (text
    /// starting `timed out:`). Under an interruption this is the completed
    /// subset — possibly non-contiguous; the caller's checkpoint layer
    /// persists exactly this set.
    pub outcomes: Vec<(usize, Result<T, String>)>,
    /// Why dispatch stopped early, when it did.
    pub interrupted: Option<Interruption>,
    /// Run bookkeeping.
    pub stats: PoolStats,
}

impl<T> PoolRun<T> {
    /// The outcomes as one slot per index of `0..total`, in index
    /// order: `None` where no task reached a terminal outcome (not
    /// dispatched, interrupted, or outside this run's index set).
    pub fn into_slots(self, total: usize) -> Vec<Option<Result<T, String>>> {
        let mut slots: Vec<Option<Result<T, String>>> = (0..total).map(|_| None).collect();
        for (index, outcome) in self.outcomes {
            if let Some(slot) = slots.get_mut(index) {
                *slot = Some(outcome);
            }
        }
        slots
    }
}

thread_local! {
    static WORKER: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Pool-worker identity, armed thread-locally for the worker's
/// lifetime so nested layers (events, diagnostics) can name the worker
/// without threading an id through every signature.
#[derive(Debug)]
pub struct WorkerContext;

impl WorkerContext {
    /// Arms `worker` as this thread's pool identity until the guard
    /// drops (nesting restores the previous identity, mirroring
    /// `BudgetGuard`/`TelemetryGuard`).
    #[must_use = "the worker identity disarms when the guard drops"]
    pub fn arm(worker: usize) -> WorkerGuard {
        let previous = WORKER.with(|w| w.replace(Some(worker)));
        WorkerGuard { previous }
    }

    /// The worker id armed on this thread, if any.
    pub fn current() -> Option<usize> {
        WORKER.with(Cell::get)
    }
}

/// Restores the previous worker identity (usually none) on drop.
#[derive(Debug)]
pub struct WorkerGuard {
    previous: Option<usize>,
}

impl Drop for WorkerGuard {
    fn drop(&mut self) {
        let previous = self.previous;
        WORKER.with(|w| w.set(previous));
    }
}

fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // Task bodies run under catch_unwind; a poisoned lock can only mean
    // a bug in the pool machinery itself — recover the data instead of
    // cascading the panic across workers.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Emits one `remix.exec.pool` lifecycle event (no-op unless an
/// observing sink is armed on this thread).
fn pool_event(state: &'static str, mut fields: Vec<(&'static str, FieldValue)>) {
    if !remix_telemetry::is_observing() {
        return;
    }
    let mut all = vec![("state", FieldValue::from(state))];
    if let Some(worker) = WorkerContext::current() {
        all.push(("worker", FieldValue::from(worker)));
    }
    all.append(&mut fields);
    remix_telemetry::event(names::EXEC_POOL, all);
}

/// One live attempt, registered for the straggler watchdog.
struct AttemptWatch {
    token: CancelToken,
    straggler: Arc<AtomicBool>,
}

/// Runs `task` over `indices` on a work-stealing pool and reports each
/// terminal outcome through `on_complete` (serialized — at most one
/// call at a time, from whichever worker finished the task; drivers
/// save checkpoints there).
///
/// The caller's armed budget token and telemetry context are captured
/// before spawning: workers arm the telemetry as their base context,
/// attempts run under child tokens of the budget, and per-task
/// registry forks are absorbed back in ascending `(index, attempt)`
/// order after the join — see the module docs for why that makes the
/// run schedule-independent.
pub fn run_tasks<T, F, C>(
    indices: &[usize],
    opts: &PoolOptions,
    task: F,
    on_complete: C,
) -> PoolRun<T>
where
    T: Send,
    F: Fn(&TaskContext) -> TaskResult<T> + Sync,
    C: FnMut(usize, &Result<T, String>) + Send,
{
    let workers = opts
        .parallelism
        .worker_count()
        .clamp(1, indices.len().max(1));
    let _run_span = remix_telemetry::span(names::EXEC_POOL_RUN)
        .with_field("workers", workers)
        .with_field("tasks", indices.len());
    pool_event(
        "started",
        vec![
            ("workers", FieldValue::from(workers)),
            ("tasks", FieldValue::from(indices.len())),
        ],
    );
    let caller_token = active_token();
    let caller_telemetry = Telemetry::current();

    // Per-worker deques, round-robin pre-distribution in index order so
    // a single worker drains them exactly like the old serial loops.
    let deques: Vec<Mutex<VecDeque<(usize, u32)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (k, &index) in indices.iter().enumerate() {
        lock_or_recover(&deques[k % workers]).push_back((index, 0));
    }
    let slots: Vec<Mutex<Option<AttemptWatch>>> = (0..workers).map(|_| Mutex::new(None)).collect();

    let remaining = AtomicUsize::new(indices.len());
    let stop = AtomicBool::new(false);
    let interrupted: Mutex<Option<Interruption>> = Mutex::new(None);
    let outcomes: Mutex<Vec<(usize, Result<T, String>)>> = Mutex::new(Vec::new());
    let registries: Mutex<Vec<(usize, u32, Telemetry)>> = Mutex::new(Vec::new());
    let completer = Mutex::new(on_complete);
    let completions = AtomicU64::new(0);
    let executed = AtomicU64::new(0);
    let steals = AtomicU64::new(0);
    let panics = AtomicU64::new(0);
    let redispatches = AtomicU64::new(0);
    let chaos_injected = AtomicU64::new(0);

    let stop_study = |why: Interruption| {
        let mut slot = lock_or_recover(&interrupted);
        if slot.is_none() {
            *slot = Some(why);
        }
        stop.store(true, Ordering::Release);
    };

    std::thread::scope(|s| {
        if opts.task_deadline.is_some() {
            // Straggler watchdog: trips (and flags) any live attempt
            // whose own deadline passed, so even hook-free spins come
            // back as cancelled attempts instead of wedging a worker.
            let slots = &slots;
            let remaining = &remaining;
            let stop = &stop;
            s.spawn(move || {
                while remaining.load(Ordering::Acquire) > 0 && !stop.load(Ordering::Acquire) {
                    for slot in slots {
                        let guard = lock_or_recover(slot);
                        if let Some(watch) = guard.as_ref() {
                            if watch.token.deadline_expired() && !watch.token.is_cancelled() {
                                watch.straggler.store(true, Ordering::Release);
                                watch.token.cancel();
                            }
                        }
                    }
                    std::thread::sleep(WATCHDOG_POLL);
                }
            });
        }

        for w in 0..workers {
            let deques = &deques;
            let slots = &slots;
            let remaining = &remaining;
            let stop = &stop;
            let outcomes = &outcomes;
            let registries = &registries;
            let completer = &completer;
            let completions = &completions;
            let executed = &executed;
            let steals = &steals;
            let panics = &panics;
            let redispatches = &redispatches;
            let chaos_injected = &chaos_injected;
            let stop_study = &stop_study;
            let caller_token = &caller_token;
            let caller_telemetry = &caller_telemetry;
            let task = &task;
            s.spawn(move || {
                let _id = WorkerContext::arm(w);
                // Base context: driver callbacks (checkpoint saves) and
                // pool events on this thread observe the caller's
                // telemetry; per-task forks shadow it during the body.
                let _base = caller_telemetry.as_ref().map(Telemetry::arm);
                pool_event("worker_up", vec![]);
                let steal = || -> Option<(usize, u32)> {
                    for offset in 1..workers {
                        let victim = (w + offset) % workers;
                        let job = lock_or_recover(&deques[victim]).pop_back();
                        if let Some(job) = job {
                            // audit: relaxed-ok: stat counter; exactness
                            // is read post-join only.
                            let n = steals.fetch_add(1, Ordering::Relaxed) + 1;
                            if let Some((period, ms)) = opts.chaos.steal_delay_every {
                                if n.is_multiple_of(period) {
                                    // audit: relaxed-ok: stat counter.
                                    chaos_injected.fetch_add(1, Ordering::Relaxed);
                                    pool_event(
                                        "chaos_steal_delay",
                                        vec![("ms", FieldValue::from(ms))],
                                    );
                                    std::thread::sleep(Duration::from_millis(ms));
                                }
                            }
                            return Some(job);
                        }
                    }
                    None
                };
                loop {
                    if stop.load(Ordering::Acquire) {
                        break;
                    }
                    // Study-level boundary, exactly where the serial
                    // loops called `remix_exec::checkpoint()` between
                    // samples.
                    if let Some(token) = caller_token {
                        if let Err(why) = token.checkpoint() {
                            stop_study(why);
                            break;
                        }
                    }
                    // Two statements on purpose: chaining `.or_else(steal)`
                    // onto the pop would keep the own-deque guard (a
                    // statement-scoped temporary) locked *during* the
                    // steal, and two workers stealing from each other
                    // then deadlock on each other's deques.
                    let own = lock_or_recover(&deques[w]).pop_front();
                    let job = own.or_else(steal);
                    let Some((index, attempt)) = job else {
                        if remaining.load(Ordering::Acquire) == 0 {
                            break;
                        }
                        // Another worker may still re-dispatch a
                        // straggler; stay available to steal it.
                        std::thread::yield_now();
                        std::thread::sleep(Duration::from_micros(200));
                        continue;
                    };

                    let attempt_token = match (caller_token, opts.task_deadline) {
                        (Some(t), deadline) => Some(t.child(deadline)),
                        (None, Some(deadline)) => {
                            Some(RunBudget::unlimited().with_deadline(deadline).token())
                        }
                        (None, None) => None,
                    };
                    let straggler = Arc::new(AtomicBool::new(false));
                    if opts.task_deadline.is_some() {
                        if let Some(token) = &attempt_token {
                            *lock_or_recover(&slots[w]) = Some(AttemptWatch {
                                token: token.clone(),
                                straggler: Arc::clone(&straggler),
                            });
                        }
                    }
                    let fork = caller_telemetry.as_ref().map(Telemetry::fork);
                    let chaos_panic = opts.chaos.panic_fires(index, attempt);
                    if chaos_panic {
                        // audit: relaxed-ok: stat counter.
                        chaos_injected.fetch_add(1, Ordering::Relaxed);
                        pool_event("chaos_panic", vec![("index", FieldValue::from(index))]);
                    }
                    let result = {
                        let _budget = attempt_token.as_ref().map(CancelToken::arm);
                        let _telemetry = fork.as_ref().map(Telemetry::arm);
                        catch_unwind(AssertUnwindSafe(|| {
                            if chaos_panic {
                                // audit: allow(AUD002): deterministic chaos injection — the pool's own panic containment is the system under test here.
                                panic!("chaos: injected worker panic (task {index})");
                            }
                            task(&TaskContext {
                                index,
                                attempt,
                                worker: w,
                            })
                        }))
                    };
                    *lock_or_recover(&slots[w]) = None;
                    // audit: relaxed-ok: stat counter.
                    executed.fetch_add(1, Ordering::Relaxed);

                    let finish = |outcome: Result<T, String>, registry: Option<Telemetry>| {
                        if let Some(registry) = registry {
                            lock_or_recover(registries).push((index, attempt, registry));
                        }
                        remaining.fetch_sub(1, Ordering::AcqRel);
                        // audit: relaxed-ok: ordering against the
                        // cancel_after comparison below is irrelevant;
                        // the fetch_add's RMW atomicity alone makes the
                        // completion count exact.
                        let done = completions.fetch_add(1, Ordering::Relaxed) + 1;
                        if opts.chaos.cancel_after == Some(done) {
                            // Raise the stop flag *before* the completion
                            // callback: the callback persists a checkpoint
                            // (fsync — milliseconds), and cancelling only
                            // afterwards would let other workers stream
                            // completions far past the threshold.
                            // audit: relaxed-ok: stat counter.
                            chaos_injected.fetch_add(1, Ordering::Relaxed);
                            pool_event("chaos_cancel", vec![("after", FieldValue::from(done))]);
                            stop_study(Interruption::Cancelled);
                        }
                        {
                            let mut callback = lock_or_recover(completer);
                            callback(index, &outcome);
                        }
                        lock_or_recover(outcomes).push((index, outcome));
                    };

                    match result {
                        Err(payload) => {
                            // audit: relaxed-ok: stat counter.
                            panics.fetch_add(1, Ordering::Relaxed);
                            let message = panic_message(payload.as_ref());
                            pool_event(
                                "task_panicked",
                                vec![
                                    ("index", FieldValue::from(index)),
                                    ("attempt", FieldValue::from(u64::from(attempt))),
                                ],
                            );
                            // The panicked attempt's partial metrics are
                            // dropped with its fork: only completed
                            // work may shape the study's snapshot.
                            finish(Err(format!("panic: {message}")), None);
                        }
                        Ok(TaskResult::Done(value)) => finish(Ok(value), fork),
                        Ok(TaskResult::Interrupted(why)) => {
                            let study_dead = caller_token
                                .as_ref()
                                .is_some_and(|t| t.checkpoint().is_err());
                            let attempt_expired = straggler.load(Ordering::Acquire)
                                || attempt_token
                                    .as_ref()
                                    .is_some_and(CancelToken::deadline_expired);
                            if !study_dead && attempt_expired && why.is_retryable() {
                                if attempt < MAX_REDISPATCH {
                                    // audit: relaxed-ok: stat counter.
                                    redispatches.fetch_add(1, Ordering::Relaxed);
                                    pool_event(
                                        "straggler_redispatched",
                                        vec![
                                            ("index", FieldValue::from(index)),
                                            (
                                                "next_attempt",
                                                FieldValue::from(u64::from(attempt) + 1),
                                            ),
                                        ],
                                    );
                                    lock_or_recover(&deques[w]).push_front((index, attempt + 1));
                                } else {
                                    let budget_ms = opts
                                        .task_deadline
                                        .map(|d| d.as_millis() as u64)
                                        .unwrap_or(0);
                                    // Wall-clock-shaped partial metrics
                                    // are dropped with the fork.
                                    finish(
                                        Err(format!(
                                            "timed out: {} attempt(s) exhausted the {budget_ms} \
                                             ms per-task budget",
                                            attempt + 1
                                        )),
                                        None,
                                    );
                                }
                            } else {
                                // Study-level interruption (deadline,
                                // cancellation, exhausted shared
                                // allowance): stop dispatch, leave the
                                // unit uncomputed — exactly the serial
                                // break-at-boundary semantics.
                                stop_study(why);
                                break;
                            }
                        }
                    }
                }
            });
        }
    });

    // Deterministic ordered merge: ascending (index, attempt) replays
    // the serial gauge history no matter which workers ran what.
    let mut forks = registries
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    forks.sort_by_key(|&(index, attempt, _)| (index, attempt));
    if let Some(telemetry) = &caller_telemetry {
        for (_, _, fork) in &forks {
            telemetry.registry().absorb(fork.registry());
        }
    }
    let mut outcomes = outcomes
        .into_inner()
        .unwrap_or_else(PoisonError::into_inner);
    outcomes.sort_by_key(|&(index, _)| index);
    let stats = PoolStats {
        workers,
        executed: executed.into_inner(),
        steals: steals.into_inner(),
        panics: panics.into_inner(),
        redispatches: redispatches.into_inner(),
        chaos_injected: chaos_injected.into_inner(),
    };
    pool_event(
        "finished",
        vec![
            ("completed", FieldValue::from(outcomes.len())),
            ("executed", FieldValue::from(stats.executed)),
            ("steals", FieldValue::from(stats.steals)),
            ("panics", FieldValue::from(stats.panics)),
            ("redispatches", FieldValue::from(stats.redispatches)),
            ("chaos_injected", FieldValue::from(stats.chaos_injected)),
        ],
    );
    PoolRun {
        outcomes,
        interrupted: interrupted
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use remix_telemetry::MemorySink;
    use std::sync::atomic::AtomicU32;

    fn indices(n: usize) -> Vec<usize> {
        (0..n).collect()
    }

    fn run_squares(opts: &PoolOptions, n: usize) -> PoolRun<usize> {
        run_tasks(
            &indices(n),
            opts,
            |ctx| TaskResult::Done(ctx.index * ctx.index),
            |_, _| {},
        )
    }

    #[test]
    fn serial_and_parallel_outcomes_match() {
        let serial = run_squares(&PoolOptions::default(), 16);
        let parallel = run_squares(&PoolOptions::with_parallelism(Parallelism::Workers(4)), 16);
        assert_eq!(serial.outcomes.len(), 16);
        assert!(serial.interrupted.is_none());
        let values = |run: &PoolRun<usize>| -> Vec<(usize, usize)> {
            run.outcomes
                .iter()
                .map(|(i, o)| match o {
                    Ok(v) => (*i, *v),
                    Err(e) => panic!("expected done, got {e}"),
                })
                .collect()
        };
        assert_eq!(values(&serial), values(&parallel));
        assert_eq!(parallel.stats.workers, 4);
        assert_eq!(parallel.stats.executed, 16);
    }

    #[test]
    fn into_slots_places_outcomes_by_index() {
        let run = run_tasks(
            &[3, 1],
            &PoolOptions::with_parallelism(Parallelism::Workers(2)),
            |ctx| TaskResult::Done(ctx.index * 10),
            |_, _| {},
        );
        assert_eq!(
            run.into_slots(5),
            vec![None, Some(Ok(10)), None, Some(Ok(30)), None]
        );
    }

    #[test]
    fn worker_count_clamps_to_task_count() {
        let run = run_squares(&PoolOptions::with_parallelism(Parallelism::Workers(64)), 3);
        assert_eq!(run.stats.workers, 3);
        assert_eq!(run.outcomes.len(), 3);
    }

    #[test]
    fn panics_become_typed_failures_not_dead_studies() {
        let run = run_tasks(
            &indices(8),
            &PoolOptions::with_parallelism(Parallelism::Workers(3)),
            |ctx| {
                if ctx.index == 3 {
                    panic!("sample exploded");
                }
                TaskResult::Done(ctx.index)
            },
            |_, _| {},
        );
        assert!(run.interrupted.is_none());
        assert_eq!(run.outcomes.len(), 8);
        assert_eq!(run.stats.panics, 1);
        match &run.outcomes[3].1 {
            Err(trace) => {
                assert!(trace.starts_with("panic:"), "{trace}");
                assert!(trace.contains("sample exploded"));
            }
            Ok(v) => panic!("expected contained panic, got {v}"),
        }
    }

    #[test]
    fn chaos_panics_are_index_deterministic_across_worker_counts() {
        let opts = |workers| PoolOptions {
            parallelism: Parallelism::Workers(workers),
            chaos: PoolChaos::parse("panic:5").expect("spec"),
            ..PoolOptions::default()
        };
        for workers in [1, 4] {
            let run = run_tasks(
                &indices(10),
                &opts(workers),
                |ctx| TaskResult::Done(ctx.index),
                |_, _| {},
            );
            let failed: Vec<usize> = run
                .outcomes
                .iter()
                .filter(|(_, o)| o.is_err())
                .map(|(i, _)| *i)
                .collect();
            assert_eq!(failed, vec![4, 9], "workers={workers}");
            assert_eq!(run.stats.chaos_injected, 2);
        }
    }

    #[test]
    fn expired_study_budget_stops_dispatch_before_any_task() {
        let token = RunBudget::unlimited().with_deadline(Duration::ZERO).token();
        let _g = token.arm();
        let run = run_squares(&PoolOptions::with_parallelism(Parallelism::Workers(2)), 6);
        assert!(run.outcomes.is_empty());
        assert!(matches!(
            run.interrupted,
            Some(Interruption::DeadlineExpired { .. })
        ));
    }

    #[test]
    fn exhausted_shared_allowance_interrupts_the_study() {
        let token = RunBudget::unlimited().with_newton_iterations(10).token();
        let _g = token.arm();
        let run = run_tasks(
            &indices(8),
            &PoolOptions::default(),
            |ctx| {
                // Each task charges 3 "iterations" against the study
                // allowance through its child token.
                for _ in 0..3 {
                    if let Err(why) = crate::budget::charge_newton_iteration() {
                        return TaskResult::Interrupted(why);
                    }
                }
                TaskResult::Done(ctx.index)
            },
            |_, _| {},
        );
        assert!(matches!(
            run.interrupted,
            Some(Interruption::NewtonIterations { limit: 10 })
        ));
        assert!(run.outcomes.len() < 8);
        assert!(!run.outcomes.is_empty());
    }

    #[test]
    fn straggler_is_redispatched_then_completes() {
        let opts = PoolOptions {
            parallelism: Parallelism::Workers(2),
            task_deadline: Some(Duration::from_millis(25)),
            ..PoolOptions::default()
        };
        let run = run_tasks(
            &indices(4),
            &opts,
            |ctx| {
                if ctx.index == 2 && ctx.attempt == 0 {
                    // Cooperative spin: only budget hooks notice the
                    // watchdog tripping the attempt token.
                    loop {
                        if let Err(why) = crate::budget::checkpoint() {
                            return TaskResult::Interrupted(why);
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                TaskResult::Done(ctx.index)
            },
            |_, _| {},
        );
        assert!(run.interrupted.is_none(), "{:?}", run.interrupted);
        assert_eq!(run.outcomes.len(), 4);
        assert!(run.outcomes.iter().all(|(_, o)| o.is_ok()));
        assert_eq!(run.stats.redispatches, 1);
    }

    #[test]
    fn hopeless_straggler_times_out_with_typed_outcome() {
        let opts = PoolOptions {
            parallelism: Parallelism::Workers(2),
            task_deadline: Some(Duration::from_millis(15)),
            ..PoolOptions::default()
        };
        let run = run_tasks(
            &indices(3),
            &opts,
            |ctx| {
                if ctx.index == 0 {
                    loop {
                        if let Err(why) = crate::budget::checkpoint() {
                            return TaskResult::Interrupted(why);
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                TaskResult::Done(ctx.index)
            },
            |_, _| {},
        );
        assert!(run.interrupted.is_none());
        assert_eq!(
            run.outcomes[0].1,
            Err("timed out: 2 attempt(s) exhausted the 15 ms per-task budget".to_string())
        );
        assert_eq!(run.stats.redispatches, 1);
    }

    #[test]
    fn chaos_cancel_stops_after_exact_completion_count() {
        let run = run_tasks(
            &indices(10),
            &PoolOptions {
                parallelism: Parallelism::Workers(3),
                chaos: PoolChaos::parse("cancel:4").expect("spec"),
                ..PoolOptions::default()
            },
            |ctx| TaskResult::Done(ctx.index),
            |_, _| {},
        );
        assert_eq!(run.interrupted, Some(Interruption::Cancelled));
        // In-flight tasks may still finish after the stop flag rises,
        // but at least the chaos threshold completed and not the whole
        // study.
        assert!(run.outcomes.len() >= 4);
        assert!(run.outcomes.len() < 10);
    }

    #[test]
    fn telemetry_merges_identically_for_any_worker_count() {
        let snapshot_for = |workers: usize| {
            let telemetry = Telemetry::with_sink(std::sync::Arc::new(MemorySink::new()));
            let _g = telemetry.arm();
            let _ = run_tasks(
                &indices(12),
                &PoolOptions::with_parallelism(Parallelism::Workers(workers)),
                |ctx| {
                    remix_telemetry::counter_add("remix.test.pool.tasks", 1);
                    remix_telemetry::gauge_set("remix.test.pool.last_index", ctx.index as f64);
                    TaskResult::Done(())
                },
                |_, _| {},
            );
            telemetry.snapshot().without_timings()
        };
        let serial = snapshot_for(1);
        let parallel = snapshot_for(4);
        assert_eq!(serial, parallel);
        assert_eq!(serial.counter("remix.test.pool.tasks"), Some(12));
        // The gauge holds the highest index — the serial last-writer.
        assert_eq!(serial.gauge("remix.test.pool.last_index"), Some(11.0));
    }

    #[test]
    fn on_complete_fires_exactly_once_per_task() {
        let calls = AtomicU32::new(0);
        let seen = Mutex::new(Vec::new());
        let _ = run_tasks(
            &indices(9),
            &PoolOptions::with_parallelism(Parallelism::Workers(3)),
            |ctx| TaskResult::Done(ctx.index),
            |index, outcome| {
                calls.fetch_add(1, Ordering::Relaxed);
                assert!(outcome.is_ok());
                lock_or_recover(&seen).push(index);
            },
        );
        assert_eq!(calls.load(Ordering::Relaxed), 9);
        let mut seen = seen.into_inner().unwrap_or_else(PoisonError::into_inner);
        seen.sort_unstable();
        assert_eq!(seen, indices(9));
    }

    #[test]
    fn worker_identity_is_armed_during_tasks() {
        let run = run_tasks(
            &indices(4),
            &PoolOptions::with_parallelism(Parallelism::Workers(2)),
            |ctx| {
                let armed = WorkerContext::current();
                assert_eq!(armed, Some(ctx.worker));
                TaskResult::Done(())
            },
            |_, _| {},
        );
        assert_eq!(run.outcomes.len(), 4);
        assert_eq!(WorkerContext::current(), None);
    }

    #[test]
    fn chaos_spec_parses_and_rejects() {
        let c = PoolChaos::parse("panic:7,steal:5:2,cancel:20").expect("parse");
        assert_eq!(c.panic_task_every, Some(7));
        assert_eq!(c.steal_delay_every, Some((5, 2)));
        assert_eq!(c.cancel_after, Some(20));
        assert!(c.is_active());
        assert!(!PoolChaos::parse("").expect("empty").is_active());
        for bad in ["panic", "panic:0", "steal:5", "meteor:3"] {
            assert!(PoolChaos::parse(bad).is_err(), "{bad} must fail");
        }
    }

    #[test]
    fn parallelism_from_env_honors_zero_unset_and_garbage() {
        std::env::remove_var(ENV_WORKERS);
        assert_eq!(Parallelism::from_env(), Parallelism::Auto);
        std::env::set_var(ENV_WORKERS, "0");
        assert_eq!(Parallelism::from_env(), Parallelism::Auto);
        std::env::set_var(ENV_WORKERS, "3");
        assert_eq!(Parallelism::from_env(), Parallelism::Workers(3));
        std::env::set_var(ENV_WORKERS, "many");
        assert_eq!(Parallelism::from_env(), Parallelism::Auto);
        std::env::remove_var(ENV_WORKERS);
    }

    #[test]
    fn mutual_steals_under_delay_chaos_do_not_deadlock() {
        // Regression: stealing must not run while the stealer's own
        // deque guard is held (the original dispatch chained
        // `.or_else(steal)` onto the pop, keeping the statement-scoped
        // temporary locked through the steal — two workers out of own
        // work then deadlocked on each other's deques, and the steal
        // delay sleeping under the lock made the window wide enough to
        // wedge every chaos soak). Run in a helper thread so a
        // reintroduced deadlock fails the test instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let run = run_tasks(
                &indices(48),
                &PoolOptions {
                    parallelism: Parallelism::Workers(3),
                    chaos: PoolChaos::parse("steal:1:1").expect("spec"),
                    ..PoolOptions::default()
                },
                |ctx| {
                    // Uneven task durations drain the deques at
                    // different rates, forcing overlapping steals.
                    if ctx.index % 2 == 0 {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                    TaskResult::Done(ctx.index)
                },
                |_, _| {},
            );
            let _ = tx.send((run.outcomes.len(), run.stats.steals));
        });
        match rx.recv_timeout(Duration::from_secs(60)) {
            Ok((completed, _steals)) => assert_eq!(completed, 48),
            Err(_) => panic!("pool deadlocked while stealing under delay chaos"),
        }
    }

    #[test]
    fn steals_happen_and_results_stay_sorted() {
        // One worker's deque gets a slow task first; the other drains
        // the rest through steals. Regardless, outcomes come back in
        // index order.
        let run = run_tasks(
            &indices(10),
            &PoolOptions::with_parallelism(Parallelism::Workers(2)),
            |ctx| {
                if ctx.index == 0 {
                    std::thread::sleep(Duration::from_millis(20));
                }
                TaskResult::Done(ctx.index)
            },
            |_, _| {},
        );
        let order: Vec<usize> = run.outcomes.iter().map(|(i, _)| *i).collect();
        assert_eq!(order, indices(10));
    }
}
