//! The repository benchmark: named workloads through the public APIs of
//! `remix-core`, `remix-analysis`, `remix-topo`, `remix-numerics` and
//! `remix-exec`. See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! Run from the repository root. Human-readable lines come first; the
//! last line of standard output is one JSON object with exactly the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

mod inputs;
mod replay;
mod report;
mod stats;
mod sys;
mod trace;
mod workloads;

use report::{json_string, Metric, Outcome};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Body, Prepared, Verdict, Workload};

/// Set-up timing. A process's set-up speed is set when it starts: on
/// the same host, one process sets up about 1.5× faster than the next,
/// and keeps that speed for its whole life. A user pays set-up once per
/// process, so `setup_s` is the mean over fresh processes of each one's
/// median over [`SETUP_BATCHES`] batches that repeat the set-up for at
/// least [`SETUP_BATCH_S`] (a 0.1 ms set-up is timed in bulk like a 60 ms
/// one). The host's speed also drifts within a run, so the processes are
/// spread over it, as the bodies are: one before the first body, one
/// before any body that starts [`SETUP_EVERY_S`] or more after the last
/// one, and after the last body as many as it takes to reach
/// [`SETUP_PROCESSES`] (at least one).
const SETUP_PROCESSES: usize = 5;
const SETUP_EVERY_S: f64 = 2.0;
const SETUP_BATCHES: usize = 3;
const SETUP_BATCH_S: f64 = 0.05;

/// Untraced bodies per run: at least this many while they fit in this
/// many times `--seconds`, so the reported median is robust to a burst of
/// host contention (`tran_mixer`'s 12–22 s bodies run two or three
/// times).
const MIN_BODIES: usize = 3;

/// Pool workers: fixed, and never more than the cores available.
const MAX_WORKERS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Internal: time the set-up only, print `setup_s <seconds>` and exit
    /// (the benchmark runs itself this way, see [`SETUP_PROCESSES`]).
    setup_only: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: inputs::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        setup_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds.is_finite() && args.seconds > 0.0) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--setup-only" => args.setup_only = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if args.workload.is_empty() {
        let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
        return Err(format!("--workload <{}|all> is required", names.join("|")));
    }
    Ok(args)
}

/// A scratch directory removed when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only removes the parent once no other run uses it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    let scratch = Scratch(
        root.join(".perfbench-tmp")
            .join(std::process::id().to_string()),
    );
    std::fs::create_dir_all(&scratch.0).map_err(|e| format!("{}: {e}", scratch.0.display()))?;
    let workers = sys::nproc().min(MAX_WORKERS);

    if args.setup_only {
        let w = Workload::parse(&args.workload)
            .ok_or_else(|| format!("unknown workload {}", args.workload))?;
        let mut ok = true;
        let s = stats::per_call_s(SETUP_BATCHES, SETUP_BATCH_S, || {
            ok &= workloads::setup(w, args.seed, workers, &scratch.0).is_ok();
        });
        if !ok {
            return Err(format!("{}: a repeated set-up failed", w.name()));
        }
        println!("setup_s {s}");
        return Ok(());
    }

    if args.workload == "all" {
        // Every workload, untraced then traced, each in a process of its
        // own, so that memory one workload leaves with the allocator does
        // not count in the next one's peak RSS; the last line merges
        // them with `<workload>.` prefixes.
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut merged = Outcome {
            correct: true,
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
        };
        for w in Workload::ALL {
            for trace in ["0", "1"] {
                let out = std::process::Command::new(&exe)
                    .args(["--workload", w.name(), "--trace", trace])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                let stdout = String::from_utf8_lossy(&out.stdout);
                let mut lines: Vec<&str> = stdout.lines().collect();
                let last = lines.pop().unwrap_or_default();
                for line in lines {
                    println!("{line}");
                }
                if !out.status.success() {
                    return Err(format!("{} --trace {trace}: {}", w.name(), out.status));
                }
                let o = report::parse_result_line(last)?;
                println!("result {} trace {trace}: {last}", w.name());
                merged.correct &= o.correct;
                merged.attempted += o.attempted;
                merged.failed += o.failed;
                merged.metrics.extend(o.metrics.into_iter().map(|m| Metric {
                    name: format!("{}.{}", w.name(), m.name),
                    ..m
                }));
            }
        }
        println!("{}", report::result_line(&merged)?);
        return Ok(());
    }

    let w = Workload::parse(&args.workload)
        .ok_or_else(|| format!("unknown workload {}", args.workload))?;
    let outcome = run_workload(w, &args, workers, &root, &scratch.0)?;
    let line = report::result_line(&outcome)?;
    drop(scratch);
    println!("{line}");
    Ok(())
}

/// Prints the run context: what makes two results comparable.
fn print_context(p: &Prepared, args: &Args, workers: usize, root: &Path) {
    let fields = [
        ("benchmark", json_string("perfbench")),
        ("workload", json_string(p.workload.name())),
        ("seed", p.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("nproc", sys::nproc().to_string()),
        ("pool_workers", workers.to_string()),
        ("build_profile", json_string(sys::build_profile())),
        ("git_commit", json_string(&sys::git_commit(root))),
        (
            "config_fingerprint",
            json_string(&sys::config_fingerprint(&format!(
                "perfbench/{}",
                p.workload.name()
            ))),
        ),
        ("inputs", json_string(&p.inputs_summary())),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}: {v}", json_string(k)))
        .collect();
    println!("context {{{}}}", body.join(", "));
}

fn print_jobs(body: &Body, all: bool) {
    for job in &body.jobs {
        if all || job.verdict != Verdict::Ok {
            let verdict = match job.verdict {
                Verdict::Ok => "ok   ",
                Verdict::Failed => "FAIL ",
                Verdict::Wrong => "WRONG",
            };
            println!("  {verdict} {:<28} {}", job.label, job.detail);
        }
    }
}

/// The body time of a workload whose jobs run one at a time: the sum
/// over jobs of each job's median across bodies, so a burst of host
/// contention that slows one job of one body is outvoted job by job.
/// `None` when the jobs were not timed apart (pool workloads), whose
/// body median is used instead.
fn per_job_median(bodies: &[Vec<Option<(f64, f64)>>], pick: fn((f64, f64)) -> f64) -> Option<f64> {
    let jobs = bodies.first()?.len();
    (0..jobs)
        .map(|j| {
            let times: Option<Vec<f64>> = bodies
                .iter()
                .map(|b| b.get(j).copied().flatten().map(pick))
                .collect();
            times.map(|t| stats::median(&t))
        })
        .sum()
}

/// The set-up time of one fresh process of this program.
fn setup_s_in_fresh_process(w: Workload, seed: u64) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let out = std::process::Command::new(&exe)
        .args(["--setup-only", "--workload", w.name(), "--seed"])
        .arg(seed.to_string())
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("{}: {e}", exe.display()))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .and_then(|l| l.strip_prefix("setup_s "))
        .and_then(|v| v.parse::<f64>().ok())
        .filter(|_| out.status.success())
        .ok_or_else(|| format!("set-up timing process failed ({})", out.status))
}

/// One timed body: its outcome, wall seconds and CPU seconds.
fn timed_body(
    p: &Prepared,
    traced: Option<&remix_telemetry::Telemetry>,
    index: usize,
) -> Result<(Body, f64, f64), String> {
    let (t0, c0) = (Instant::now(), sys::cpu_seconds());
    let body = p.run_body(traced, index)?;
    Ok((body, t0.elapsed().as_secs_f64(), sys::cpu_seconds() - c0))
}

fn run_workload(
    w: Workload,
    args: &Args,
    workers: usize,
    root: &Path,
    scratch: &Path,
) -> Result<Outcome, String> {
    let trace = args.trace;
    let p = workloads::setup(w, args.seed, workers, scratch)?;
    let mut setups = Vec::new();
    let mut last_setup: Option<Instant> = None;
    print_context(&p, args, workers, root);
    println!("{}: {}", w.name(), p.inputs_summary());

    // Whole bodies until the measuring time is used up (untraced: at
    // least MIN_BODIES while they fit in MIN_BODIES × the measuring
    // time); traced runs alternate an untraced and a traced body, at
    // least one pair.
    let deadline = Instant::now() + Duration::from_secs_f64(args.seconds);
    let cap = Instant::now() + Duration::from_secs_f64(args.seconds * MIN_BODIES as f64);
    let (mut attempted, mut failed, mut wrong) = (0u64, 0u64, 0u64);
    let (mut walls, mut cpus, mut traced_walls) = (Vec::new(), Vec::new(), Vec::new());
    let mut job_seconds: Vec<Vec<Option<(f64, f64)>>> = Vec::new();
    let mut first_traced = None;
    let mut index = 0;
    loop {
        if !trace && last_setup.is_none_or(|t| t.elapsed().as_secs_f64() >= SETUP_EVERY_S) {
            setups.push(setup_s_in_fresh_process(w, args.seed)?);
            last_setup = Some(Instant::now());
        }
        let (body, wall, cpu) = timed_body(&p, None, index)?;
        print_jobs(&body, index == 0);
        attempted += body.jobs.len() as u64;
        failed += body.failed() as u64;
        wrong += body.wrong() as u64;
        walls.push(wall);
        cpus.push(cpu);
        job_seconds.push(body.jobs.iter().map(|j| j.seconds).collect());
        index += 1;
        if trace {
            let telemetry = remix_telemetry::Telemetry::new();
            let (body, wall, _) = timed_body(&p, Some(&telemetry), index)?;
            print_jobs(&body, false);
            attempted += body.jobs.len() as u64;
            failed += body.failed() as u64;
            wrong += body.wrong() as u64;
            traced_walls.push(wall);
            index += 1;
            if first_traced.is_none() {
                first_traced = Some((body, telemetry.snapshot()));
            }
        }
        let now = Instant::now();
        if now >= deadline && (trace || walls.len() >= MIN_BODIES || now >= cap) {
            break;
        }
    }

    if !trace {
        setups.push(setup_s_in_fresh_process(w, args.seed)?);
        while setups.len() < SETUP_PROCESSES {
            setups.push(setup_s_in_fresh_process(w, args.seed)?);
        }
    }
    let wall_s = per_job_median(&job_seconds, |s| s.0).unwrap_or_else(|| stats::median(&walls));
    let cpu_s = per_job_median(&job_seconds, |s| s.1).unwrap_or_else(|| stats::median(&cpus));
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    let [q1, q2, q3] = stats::quartiles(&walls);
    println!(
        "{}: {} bodies, {attempted} jobs, failed_frac {failed_frac} [frac], {wrong} wrong outputs; body wall quartiles {q1:.4} / {q2:.4} / {q3:.4} s (spread {:.4})",
        w.name(),
        walls.len(),
        stats::relative_spread(&walls)
    );
    let metrics = match first_traced {
        None => vec![
            Metric::new("wall_s", wall_s),
            Metric::new("cpu_s", cpu_s),
            Metric::new("setup_s", setups.iter().sum::<f64>() / setups.len() as f64),
            Metric::new("peak_rss_mb", sys::peak_rss_mb()?),
        ],
        Some((body, snapshot)) => {
            let (metrics, notes) =
                trace::per_layer(&p, &body, &snapshot, wall_s, stats::median(&traced_walls))?;
            for note in notes {
                println!("  {note}");
            }
            metrics
        }
    };
    for m in &metrics {
        println!("  {:<32} {:>18} {}", m.name, m.value, m.unit);
    }
    // `failed` counts every job that errored or failed its check;
    // `correct` says whether every output that came back was right.
    Ok(Outcome {
        correct: wrong == 0,
        attempted,
        failed,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_job_median_sums_each_jobs_median() {
        // Job 0 is slowed in body 1, job 1 in body 2: both are outvoted.
        let bodies = vec![
            vec![Some((1.0, 0.9)), Some((2.0, 1.9))],
            vec![Some((5.0, 4.9)), Some((2.1, 2.0))],
            vec![Some((1.2, 1.1)), Some((9.0, 8.9))],
        ];
        let wall = per_job_median(&bodies, |s| s.0).unwrap();
        assert!((wall - (1.2 + 2.1)).abs() < 1e-12);
        let cpu = per_job_median(&bodies, |s| s.1).unwrap();
        assert!((cpu - (1.1 + 2.0)).abs() < 1e-12);
        // Pool jobs are not timed apart: the caller falls back to the
        // body median.
        assert_eq!(per_job_median(&[vec![None, None]], |s| s.0), None);
        assert_eq!(per_job_median(&[], |s| s.0), None);
    }
}
