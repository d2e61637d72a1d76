//! Supervised job execution: work queue, panic isolation, retry with
//! jittered exponential backoff, and a deadline watchdog.

use crate::budget::{CancelToken, RunBudget};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// Why one job attempt failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JobError {
    /// Transient failure (timeout, cancellation, flaky resource): the
    /// supervisor retries with backoff while attempts remain.
    Retryable(String),
    /// Permanent failure: retrying the same work cannot help.
    Fatal(String),
}

impl JobError {
    /// The failure message.
    pub fn message(&self) -> &str {
        match self {
            JobError::Retryable(m) | JobError::Fatal(m) => m,
        }
    }
}

/// Terminal outcome of a supervised job.
#[derive(Debug, Clone, PartialEq)]
pub enum JobOutcome<T> {
    /// The job completed (possibly after retries).
    Done(T),
    /// Every attempt failed; the message is from the last attempt.
    Failed(String),
    /// Every attempt panicked; the payload is from the last attempt.
    /// The panic never crossed the supervisor boundary.
    Panicked(String),
}

impl<T> JobOutcome<T> {
    /// `true` for [`JobOutcome::Done`].
    pub fn is_done(&self) -> bool {
        matches!(self, JobOutcome::Done(_))
    }

    /// The value, when the job completed.
    pub fn value(self) -> Option<T> {
        match self {
            JobOutcome::Done(v) => Some(v),
            _ => None,
        }
    }
}

/// A supervised job: outcome plus bookkeeping for operator reports.
#[derive(Debug, Clone, PartialEq)]
pub struct JobReport<T> {
    /// Job name, as submitted.
    pub name: String,
    /// Terminal outcome.
    pub outcome: JobOutcome<T>,
    /// Attempts spent (1 = first try succeeded).
    pub attempts: u32,
}

/// A named unit of work for [`Supervisor::run_queue`].
pub struct Job<T> {
    /// Display name (also seeds the retry jitter).
    pub name: String,
    /// The work. Receives the attempt's [`CancelToken`] (also armed on
    /// the worker thread for the duration of the attempt).
    #[allow(clippy::type_complexity)]
    pub run: Box<dyn FnMut(&CancelToken) -> Result<T, JobError> + Send>,
}

impl<T> Job<T> {
    /// Builds a job from a name and a closure.
    pub fn new(
        name: &str,
        run: impl FnMut(&CancelToken) -> Result<T, JobError> + Send + 'static,
    ) -> Self {
        Job {
            name: name.to_string(),
            run: Box::new(run),
        }
    }
}

/// Supervisor policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SupervisorOptions {
    /// Budget compiled into each attempt's token.
    pub budget: RunBudget,
    /// Retries after the first attempt (total attempts = retries + 1).
    pub max_retries: u32,
    /// Base backoff delay; attempt `k` waits `base · 2^k`, jittered.
    pub backoff_base: Duration,
    /// Upper bound on any single backoff delay.
    pub backoff_cap: Duration,
}

/// Watchdog poll interval (only spawned when a deadline is set).
const WATCHDOG_POLL: Duration = Duration::from_millis(2);

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            budget: RunBudget::unlimited(),
            max_retries: 2,
            backoff_base: Duration::from_millis(5),
            backoff_cap: Duration::from_millis(500),
        }
    }
}

/// Background thread that trips a [`CancelToken`] once its wall-clock
/// deadline passes — covering jobs stuck in stretches of work with no
/// budget hooks. Joined (and stopped) on drop.
#[derive(Debug)]
pub struct Watchdog {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Watchdog {
    /// Spawns a watchdog polling `token` every `poll`.
    pub fn spawn(token: CancelToken, poll: Duration) -> Watchdog {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !stop2.load(Ordering::Acquire) {
                if token.deadline_expired() || token.is_cancelled() {
                    token.cancel();
                    return;
                }
                std::thread::sleep(poll);
            }
        });
        Watchdog {
            stop,
            handle: Some(handle),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

/// SplitMix64 — the same deterministic mixer the Monte-Carlo seeding
/// uses, so retry jitter is reproducible per (job, attempt).
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn name_hash(name: &str) -> u64 {
    // FNV-1a; only mixes the jitter stream, no cryptographic needs.
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in name.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x1000_0000_01b3);
    }
    h
}

/// Jittered exponential backoff for retry `attempt` (0-based) of the
/// named job: `base · 2^attempt · u`, `u ∈ [0.5, 1.0)`, capped.
/// Deterministic in `(name, attempt)` so supervised runs replay.
pub(crate) fn backoff_delay(opts: &SupervisorOptions, name: &str, attempt: u32) -> Duration {
    retry_backoff(name, attempt, opts.backoff_base, opts.backoff_cap)
}

/// The supervisor's deterministic jittered backoff, exposed for other
/// retry loops (the serve client reuses it so client-side retries
/// replay exactly like supervised ones): `base · 2^attempt · u`,
/// `u ∈ [0.5, 1.0)` seeded from `(name, attempt)`, capped at `cap`.
pub fn retry_backoff(name: &str, attempt: u32, base: Duration, cap: Duration) -> Duration {
    let exp = base.saturating_mul(1u32 << attempt.min(16));
    let u = splitmix64(name_hash(name) ^ u64::from(attempt)) as f64 / u64::MAX as f64;
    let jittered = exp.mul_f64(0.5 + 0.5 * u);
    jittered.min(cap)
}

/// Supervised job runner: every attempt runs under its own freshly
/// started budget token (armed on the thread, watched by a deadline
/// [`Watchdog`]) inside `catch_unwind`, and retryable failures back
/// off exponentially with deterministic jitter.
#[derive(Debug, Clone, Default)]
pub struct Supervisor {
    opts: SupervisorOptions,
}

impl Supervisor {
    /// New supervisor with the given policy.
    pub fn new(opts: SupervisorOptions) -> Self {
        Supervisor { opts }
    }

    /// The policy in force.
    pub fn options(&self) -> &SupervisorOptions {
        &self.opts
    }

    /// Runs one job to its terminal outcome.
    pub fn run<T>(
        &self,
        name: &str,
        mut work: impl FnMut(&CancelToken) -> Result<T, JobError>,
    ) -> JobReport<T> {
        let total = self.opts.max_retries + 1;
        let mut last_failure: Option<JobOutcome<T>> = None;
        remix_telemetry::counter_add(remix_telemetry::names::EXEC_JOBS, 1);
        job_event(name, "queued", 0, 0, 0);
        // Budget consumption of the most recent attempt, reported on the
        // terminal `finished` event.
        let mut spent = (0u64, 0u64);
        for attempt in 0..total {
            if attempt > 0 {
                remix_telemetry::counter_add(remix_telemetry::names::EXEC_RETRIES, 1);
                job_event(name, "retried", attempt, spent.0, spent.1);
                std::thread::sleep(backoff_delay(&self.opts, name, attempt - 1));
            }
            let token = self.opts.budget.token();
            let _watchdog = self
                .opts
                .budget
                .deadline
                .map(|_| Watchdog::spawn(token.clone(), WATCHDOG_POLL));
            job_event(name, "started", attempt, 0, 0);
            let guard = token.arm();
            let result = catch_unwind(AssertUnwindSafe(|| work(&token)));
            drop(guard);
            spent = (token.newton_spent(), token.timesteps_spent());
            if token.deadline_expired() {
                remix_telemetry::counter_add(remix_telemetry::names::EXEC_WATCHDOG_TRIPS, 1);
                job_event(name, "watchdog_tripped", attempt, spent.0, spent.1);
            }
            match result {
                Ok(Ok(v)) => {
                    job_event(name, "finished", attempt, spent.0, spent.1);
                    return JobReport {
                        name: name.to_string(),
                        outcome: JobOutcome::Done(v),
                        attempts: attempt + 1,
                    };
                }
                Ok(Err(JobError::Fatal(msg))) => {
                    job_event(name, "finished", attempt, spent.0, spent.1);
                    return JobReport {
                        name: name.to_string(),
                        outcome: JobOutcome::Failed(msg),
                        attempts: attempt + 1,
                    };
                }
                Ok(Err(JobError::Retryable(msg))) => {
                    last_failure = Some(JobOutcome::Failed(msg));
                }
                Err(payload) => {
                    last_failure = Some(JobOutcome::Panicked(panic_message(payload.as_ref())));
                }
            }
        }
        job_event(name, "finished", total.saturating_sub(1), spent.0, spent.1);
        JobReport {
            name: name.to_string(),
            outcome: last_failure.unwrap_or(JobOutcome::Failed("no attempts".into())),
            attempts: total,
        }
    }

    /// Drains a work queue across `workers` threads; each job runs
    /// under the full per-job supervision of [`Supervisor::run`].
    /// Reports come back in submission order.
    pub fn run_queue<T: Send>(&self, jobs: Vec<Job<T>>, workers: usize) -> Vec<JobReport<T>> {
        let n = jobs.len();
        let queue = Mutex::new(jobs.into_iter().enumerate().collect::<Vec<_>>());
        let results: Mutex<Vec<Option<JobReport<T>>>> = Mutex::new((0..n).map(|_| None).collect());
        let workers = workers.max(1).min(n.max(1));
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    // Jobs run under catch_unwind, so a poisoned lock
                    // can only mean a bug in this drain loop itself;
                    // recover the data instead of cascading the panic
                    // across the remaining workers.
                    let job = lock_or_recover(&queue).pop();
                    let Some((index, mut job)) = job else { return };
                    let report = self.run(&job.name, |token| (job.run)(token));
                    lock_or_recover(&results)[index] = Some(report);
                });
            }
        });
        results
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
            .into_iter()
            .enumerate()
            .map(|(index, r)| {
                r.unwrap_or_else(|| JobReport {
                    name: format!("job {index}"),
                    outcome: JobOutcome::Failed("worker exited before reporting".into()),
                    attempts: 0,
                })
            })
            .collect()
    }
}

/// Emits one `remix.exec.job` lifecycle event (no-op unless an observing
/// telemetry sink is armed on this thread).
fn job_event(name: &str, state: &'static str, attempt: u32, newton_spent: u64, timesteps: u64) {
    if !remix_telemetry::is_observing() {
        return;
    }
    remix_telemetry::event(
        remix_telemetry::names::EXEC_JOB,
        vec![
            ("job", remix_telemetry::FieldValue::from(name)),
            ("state", remix_telemetry::FieldValue::from(state)),
            (
                "attempt",
                remix_telemetry::FieldValue::from(u64::from(attempt)),
            ),
            (
                "newton_spent",
                remix_telemetry::FieldValue::from(newton_spent),
            ),
            (
                "timesteps_spent",
                remix_telemetry::FieldValue::from(timesteps),
            ),
        ],
    );
}

fn lock_or_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Interruption;
    use std::sync::atomic::AtomicU32;

    fn fast() -> Supervisor {
        Supervisor::new(SupervisorOptions {
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(1),
            ..SupervisorOptions::default()
        })
    }

    #[test]
    fn first_try_success() {
        let report = fast().run("ok", |_| Ok::<_, JobError>(42));
        assert_eq!(report.outcome, JobOutcome::Done(42));
        assert_eq!(report.attempts, 1);
    }

    #[test]
    fn retryable_failures_retry_then_succeed() {
        let calls = AtomicU32::new(0);
        let report = fast().run("flaky", |_| {
            if calls.fetch_add(1, Ordering::Relaxed) < 2 {
                Err(JobError::Retryable("transient".into()))
            } else {
                Ok(7)
            }
        });
        assert_eq!(report.outcome, JobOutcome::Done(7));
        assert_eq!(report.attempts, 3);
    }

    #[test]
    fn fatal_failures_do_not_retry() {
        let calls = AtomicU32::new(0);
        let report = fast().run("broken", |_| -> Result<(), JobError> {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(JobError::Fatal("bad input".into()))
        });
        assert_eq!(report.outcome, JobOutcome::Failed("bad input".into()));
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panics_are_isolated_and_retried() {
        let calls = AtomicU32::new(0);
        let report = fast().run("panicky", |_| {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("boom");
            }
            Ok(1)
        });
        assert_eq!(report.outcome, JobOutcome::Done(1));
        assert_eq!(report.attempts, 2);

        let report = fast().run("always-panics", |_| -> Result<(), JobError> {
            panic!("persistent boom");
        });
        assert_eq!(
            report.outcome,
            JobOutcome::Panicked("persistent boom".into())
        );
        assert_eq!(report.attempts, 3);
    }

    #[test]
    fn watchdog_trips_token_past_deadline() {
        let sup = Supervisor::new(SupervisorOptions {
            budget: RunBudget::unlimited().with_deadline(Duration::from_millis(5)),
            max_retries: 0,
            ..SupervisorOptions::default()
        });
        let report = sup.run("spinner", |token| -> Result<(), JobError> {
            // Simulates a loop that only polls is_cancelled (no direct
            // deadline reads): the watchdog must trip it.
            let start = std::time::Instant::now();
            while !token.is_cancelled() {
                assert!(
                    start.elapsed() < Duration::from_secs(5),
                    "watchdog never fired"
                );
                std::thread::yield_now();
            }
            Err(JobError::Retryable(Interruption::Cancelled.to_string()))
        });
        assert_eq!(report.outcome, JobOutcome::Failed("cancelled".into()));
    }

    #[test]
    fn queue_preserves_order_and_isolates_failures() {
        let jobs: Vec<Job<usize>> = (0..8)
            .map(|i| {
                Job::new(&format!("job-{i}"), move |_| {
                    if i == 3 {
                        Err(JobError::Fatal("third job is bad".into()))
                    } else {
                        Ok(i * i)
                    }
                })
            })
            .collect();
        let reports = fast().run_queue(jobs, 4);
        assert_eq!(reports.len(), 8);
        for (i, r) in reports.iter().enumerate() {
            assert_eq!(r.name, format!("job-{i}"));
            if i == 3 {
                assert!(!r.outcome.is_done());
            } else {
                assert_eq!(r.outcome, JobOutcome::Done(i * i));
            }
        }
    }

    #[test]
    fn backoff_is_deterministic_capped_and_growing() {
        let opts = SupervisorOptions::default();
        let a0 = backoff_delay(&opts, "j", 0);
        let a0b = backoff_delay(&opts, "j", 0);
        assert_eq!(a0, a0b, "jitter must be deterministic");
        let a4 = backoff_delay(&opts, "j", 4);
        assert!(a4 >= a0, "backoff must grow");
        let huge = backoff_delay(&opts, "j", 30);
        assert!(huge <= opts.backoff_cap);
        // Different jobs jitter differently (with overwhelming odds).
        assert_ne!(
            backoff_delay(&opts, "alpha", 2),
            backoff_delay(&opts, "beta", 2)
        );
    }
}
