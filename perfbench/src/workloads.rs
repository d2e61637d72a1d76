//! The four workloads: set-up, one body (a batch of independent jobs),
//! and the checks on every job's output.

use crate::inputs::{self, DEFAULT_SEED, F_IF};
use remix_analysis::{pss_plan, tran_plan, OpOptions, PssOptions, TranOptions};
use remix_circuit::Circuit;
use remix_core::checkpoint::StudyOutcome;
use remix_core::corners::{sweep_corners_resumable_with, Corner, CornerOutcome, ProcessCorner};
use remix_core::model::MixerModel;
use remix_core::{LoDrive, MixerConfig, MixerEvaluator, MixerMode, ReconfigurableMixer, RfDrive};
use remix_exec::{Parallelism, PoolOptions};
use remix_telemetry::{MetricsSnapshot, Telemetry};
use remix_topo::{input_impedance_vs_lo, LoMode, MixerFirstParams, ZinConfig, ZinOutcome};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// The benchmark's own spans, one around each call it makes into a
/// layer of the program.
pub mod spans {
    /// `MixerEvaluator::circuit_conv_gain_spot` (remix-core).
    pub const CONV_GAIN_SPOT: &str = "perfbench.core.circuit_conv_gain_spot";
    /// `MixerEvaluator::pss_power_mw` (remix-core).
    pub const PSS_POWER: &str = "perfbench.core.pss_power_mw";
    /// `sweep_corners_resumable_with` (remix-core).
    pub const SWEEP_CORNERS: &str = "perfbench.core.sweep_corners";
    /// `input_impedance_vs_lo` (remix-topo).
    pub const ZIN_SWEEP: &str = "perfbench.topo.input_impedance_vs_lo";
}

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Transistor-level transient conversion gain, both modes.
    TranMixer,
    /// Periodic-steady-state supply power, both modes.
    PssMixer,
    /// PVT-corner extraction study with per-corner checkpoints.
    ExtractCorners,
    /// N-path mixer-first input impedance versus LO.
    NpathZin,
}

impl Workload {
    /// Every workload, in the order `--workload all` runs them.
    pub const ALL: [Workload; 4] = [
        Workload::TranMixer,
        Workload::PssMixer,
        Workload::ExtractCorners,
        Workload::NpathZin,
    ];

    /// The workload's name on the command line and in results.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TranMixer => "tran_mixer",
            Workload::PssMixer => "pss_mixer",
            Workload::ExtractCorners => "extract_corners",
            Workload::NpathZin => "npath_zin",
        }
    }

    /// The workload called `name`.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the body runs on the study pool.
    pub fn uses_pool(self) -> bool {
        matches!(self, Workload::ExtractCorners | Workload::NpathZin)
    }
}

/// The Newton loop a workload's circuit is solved by, and so the one
/// the layer replay reproduces.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NewtonLoop {
    /// Transient steps of size `h` (trapezoidal companions).
    Tran {
        /// Step size (s).
        h: f64,
    },
    /// The DC operating point at full sources and final gmin.
    Dc,
}

/// A circuit the workload solves, kept for the layer replay.
#[derive(Debug, Clone)]
pub struct ReplayCircuit {
    /// Which job it belongs to.
    pub label: String,
    /// The netlist, built exactly as the library builds it.
    pub circuit: Circuit,
    /// The Newton loop its solves run through.
    pub newton: NewtonLoop,
    /// Operating-point options of that solve.
    pub op: OpOptions,
}

// One value per run, so the variants' size difference costs nothing.
#[allow(clippy::large_enum_variant)]
enum Kind {
    Tran {
        eval: MixerEvaluator,
        points: Vec<(MixerMode, f64)>,
    },
    Pss {
        eval: MixerEvaluator,
        f_lo: f64,
        opts: PssOptions,
    },
    Corners {
        base: MixerConfig,
        corners: Vec<Corner>,
        nominal: MixerEvaluator,
    },
    Npath {
        params: MixerFirstParams,
        cfg: ZinConfig,
    },
}

/// A workload after set-up: everything the body needs.
pub struct Prepared {
    /// The workload.
    pub workload: Workload,
    /// The seed its inputs came from.
    pub seed: u64,
    /// Study-pool options (pool workloads only use them).
    pub pool: PoolOptions,
    /// The circuits the body solves: one per job for `tran_mixer` and
    /// `pss_mixer` (same order as the jobs), one representative circuit
    /// for the pool workloads.
    pub replay: Vec<ReplayCircuit>,
    /// Directory for files the body writes.
    pub scratch: PathBuf,
    kind: Kind,
}

/// How a job ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// It returned an output and the output passed its check.
    Ok,
    /// The program returned an error (no convergence, a rejected
    /// input): the job failed, but no wrong output came back.
    Failed,
    /// It returned an output that failed its check.
    Wrong,
}

/// One job's outcome.
#[derive(Debug, Clone)]
pub struct Job {
    /// What ran.
    pub label: String,
    /// How it ended.
    pub verdict: Verdict,
    /// The measured output, or why it failed.
    pub detail: String,
    /// The job's own metrics, when the body ran traced and the job was
    /// issued from the benchmark's thread.
    pub snapshot: Option<MetricsSnapshot>,
    /// Wall and CPU seconds of a job issued from the benchmark's thread
    /// (pool jobs run inside one library call and are not timed apart).
    pub seconds: Option<(f64, f64)>,
}

impl Job {
    /// Records a failed check on the job's output. A job that returned
    /// an output becomes [`Verdict::Wrong`]; one that already failed
    /// stays [`Verdict::Failed`] (it is counted once, and a check that
    /// fails for want of its output is not a wrong output).
    fn flag(&mut self, why: &str) {
        if self.verdict == Verdict::Ok {
            self.verdict = Verdict::Wrong;
        }
        self.detail.push_str(&format!(" — {why}"));
    }
}

/// One body's outcome.
#[derive(Debug, Clone, Default)]
pub struct Body {
    /// Every job, in input order.
    pub jobs: Vec<Job>,
    /// Transient grid steps the body asked for (0 where the count is
    /// decided inside the library, as in PSS).
    pub tran_points: u64,
    /// Corners extracted rather than resumed.
    pub corners_computed: usize,
    /// Size of the study checkpoint the body left (bytes).
    pub checkpoint_bytes: u64,
    /// The study records that checkpoint holds.
    pub records: Vec<(usize, StudyOutcome)>,
}

impl Body {
    /// Jobs that errored or failed their check.
    pub fn failed(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.verdict != Verdict::Ok)
            .count()
    }

    /// Jobs whose output failed its check.
    pub fn wrong(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.verdict == Verdict::Wrong)
            .count()
    }
}

/// `spot_transient`'s conversion gains (dB) at the default seed, in
/// [`inputs::SPOT_POINTS`] order.
pub const SPOT_GOLDEN_DB: [f64; 4] = [23.25, 24.93, 28.49, 26.43];
/// Allowed distance from [`SPOT_GOLDEN_DB`] (dB).
pub const SPOT_GOLDEN_TOL_DB: f64 = 0.01;
/// Allowed circuit-vs-behavioural-model gap (dB), `spot_transient`'s
/// tolerance.
pub const MODEL_TOL_DB: f64 = 3.0;
/// Allowed PSS-vs-held-LO DC power gap (share of the DC estimate).
pub const PSS_POWER_TOL: f64 = 0.02;
/// `npath_zin`'s peak `|Z_in|` at the default seed (Ω) and tolerance.
pub const ZIN_PEAK_OHM: f64 = 110.7;
/// Allowed distance from [`ZIN_PEAK_OHM`] (Ω).
pub const ZIN_PEAK_TOL_OHM: f64 = 0.1;
/// Required peak-over-band-edge `|Z_in|` contrast.
pub const ZIN_CONTRAST: f64 = 1.5;
/// Allowed gap between the TT 27 °C corner's and the nominal design's
/// active gain (dB): the corner models rescale the devices slightly even
/// at the typical corner (≈ 0.006 dB today).
pub const TT_NOMINAL_TOL_DB: f64 = 0.1;
/// RF and IF of the corner gain comparison (the `corners` bin's).
const CORNER_RF: f64 = 2.45e9;
const CORNER_IF: f64 = 5e6;

/// The pool options of the pool workloads: a fixed worker count, never
/// more than the cores available.
pub fn study_pool(workers: usize) -> PoolOptions {
    PoolOptions::with_parallelism(Parallelism::Workers(workers))
}

/// The transient options `circuit_conv_gain_spot` uses: one IF period
/// of settling and one of record at 8192 steps per period.
fn spot_tran_options() -> TranOptions {
    let n = 8192usize;
    let t_if = 1.0 / F_IF;
    let mut opts = TranOptions::new(2.0 * t_if, t_if / n as f64);
    opts.record_start = t_if;
    opts
}

/// The PSS options `pss_power_mw` uses.
fn pss_options(f_lo: f64) -> PssOptions {
    let mut opts = PssOptions::new(1.0 / f_lo);
    opts.steps_per_period = 48;
    opts.max_periods = 400;
    opts.v_tol = 2e-4;
    opts
}

/// The transient options `input_impedance_vs_lo` uses for one LO point.
fn zin_tran_options(cfg: &ZinConfig, f_lo: f64) -> TranOptions {
    let h = 1.0 / (f_lo * cfg.steps_per_lo as f64);
    let settle = cfg.settle_cycles as f64 / cfg.f_grid;
    let window = cfg.window_cycles as f64 / cfg.f_grid;
    let mut opts = TranOptions::new(settle + window, h);
    opts.record_start = settle;
    opts
}

fn steps(opts: &TranOptions) -> u64 {
    (opts.t_stop / opts.h).round() as u64
}

fn gate(plan: &remix_lint::SimPlan) -> Result<(), String> {
    remix_analysis::plan::gate(plan).map_err(|e| format!("plan lint: {e}"))
}

/// Sets the workload up: extraction, circuit build and plan lint —
/// everything that comes before the body.
///
/// # Errors
///
/// When extraction fails or a plan does not lint clean.
pub fn setup(
    workload: Workload,
    seed: u64,
    workers: usize,
    scratch: &Path,
) -> Result<Prepared, String> {
    let mut replay = Vec::new();
    let kind = match workload {
        Workload::TranMixer => {
            let eval = MixerEvaluator::new(&MixerConfig::default()).map_err(|e| e.to_string())?;
            let points = inputs::tran_points(seed);
            let opts = spot_tran_options();
            for &(mode, f_lo) in &points {
                let mixer = ReconfigurableMixer::new(eval.model(mode).config().clone());
                let rf = RfDrive::Tone {
                    freq: f_lo + F_IF,
                    amplitude: 2e-3,
                };
                let (circuit, _) = mixer.build(mode, &rf, &LoDrive::sine(f_lo));
                gate(&tran_plan(&circuit, &opts))?;
                replay.push(ReplayCircuit {
                    label: point_label(mode, f_lo),
                    circuit,
                    newton: NewtonLoop::Tran { h: opts.h },
                    op: opts.op_options.clone(),
                });
            }
            Kind::Tran { eval, points }
        }
        Workload::PssMixer => {
            let eval = MixerEvaluator::new(&MixerConfig::default()).map_err(|e| e.to_string())?;
            let f_lo = inputs::pss_lo(seed);
            let opts = pss_options(f_lo);
            for mode in [MixerMode::Active, MixerMode::Passive] {
                let mixer = ReconfigurableMixer::new(eval.model(mode).config().clone());
                let (circuit, _) = mixer.build(mode, &RfDrive::Bias, &LoDrive::sine(f_lo));
                gate(&pss_plan(&circuit, &opts))?;
                replay.push(ReplayCircuit {
                    label: point_label(mode, f_lo),
                    circuit,
                    newton: NewtonLoop::Tran {
                        h: opts.period / opts.steps_per_period as f64,
                    },
                    op: OpOptions::default(),
                });
            }
            Kind::Pss { eval, f_lo, opts }
        }
        Workload::ExtractCorners => {
            let base = MixerConfig::default();
            // The nominal extraction is the reference the typical
            // corner must land on.
            let nominal = MixerEvaluator::new(&base).map_err(|e| e.to_string())?;
            let corners = inputs::corners(seed);
            let first = corners[0];
            let mixer = ReconfigurableMixer::new(first.apply(&base));
            let (circuit, _) =
                mixer.build(MixerMode::Active, &RfDrive::Bias, &LoDrive::held(2.4e9));
            replay.push(ReplayCircuit {
                label: corner_label(&first),
                circuit,
                newton: NewtonLoop::Dc,
                op: OpOptions::default(),
            });
            Kind::Corners {
                base,
                corners,
                nominal,
            }
        }
        Workload::NpathZin => {
            let params = MixerFirstParams::default();
            let cfg = inputs::zin_config(seed);
            let f_rf = cfg.rf_bin as f64 * cfg.f_grid;
            for &bin in &cfg.lo_bins {
                let f_lo = bin as f64 * cfg.f_grid;
                let point = MixerFirstParams {
                    f_lo,
                    lo_mode: LoMode::Running,
                    ..params.clone()
                };
                let mut rx = point.generate().map_err(|e| e.to_string())?;
                rx.set_rf_tone(cfg.rf_amplitude, f_rf);
                let opts = zin_tran_options(&cfg, f_lo);
                gate(&tran_plan(&rx.circuit, &opts))?;
                if bin == cfg.rf_bin {
                    replay.push(ReplayCircuit {
                        label: format!("f_lo {:.0} MHz", f_lo / 1e6),
                        circuit: rx.circuit,
                        newton: NewtonLoop::Tran { h: opts.h },
                        op: opts.op_options.clone(),
                    });
                }
            }
            if replay.is_empty() {
                return Err("the LO grid misses the probe bin".into());
            }
            Kind::Npath { params, cfg }
        }
    };
    Ok(Prepared {
        workload,
        seed,
        pool: study_pool(workers),
        replay,
        scratch: scratch.to_path_buf(),
        kind,
    })
}

/// The verdict on a returned output: whether it passed its check.
fn checked(ok: bool) -> Verdict {
    if ok {
        Verdict::Ok
    } else {
        Verdict::Wrong
    }
}

fn point_label(mode: MixerMode, f_lo: f64) -> String {
    format!("{} f_lo {:.4} GHz", mode.label(), f_lo / 1e9)
}

fn corner_label(c: &Corner) -> String {
    format!("{} {:.0} °C", c.process.label(), c.temp_c)
}

/// Runs `f` as one job: under its own telemetry context (absorbed into
/// `traced` afterwards) and a benchmark span when tracing, plainly
/// otherwise.
/// Returns the output, the job's metrics when traced, and its wall and
/// CPU seconds.
fn job<T>(
    traced: Option<&Telemetry>,
    span: &'static str,
    f: impl FnOnce() -> T,
) -> (T, Option<MetricsSnapshot>, (f64, f64)) {
    let (t0, c0) = (Instant::now(), crate::sys::cpu_seconds());
    let (out, snapshot) = match traced {
        None => (f(), None),
        Some(parent) => {
            let own = Telemetry::new();
            let out = {
                let _armed = own.arm();
                let _span = remix_telemetry::span(span);
                f()
            };
            parent.registry().absorb(own.registry());
            (out, Some(own.snapshot()))
        }
    };
    let seconds = (t0.elapsed().as_secs_f64(), crate::sys::cpu_seconds() - c0);
    (out, snapshot, seconds)
}

/// Runs a pool call under the workload's telemetry context when tracing
/// (the pool forks it to its workers and absorbs their metrics back).
fn pooled<T>(traced: Option<&Telemetry>, span: &'static str, f: impl FnOnce() -> T) -> T {
    match traced {
        None => f(),
        Some(t) => {
            let _armed = t.arm();
            let _span = remix_telemetry::span(span);
            f()
        }
    }
}

impl Prepared {
    /// A one-line description of the generated inputs.
    pub fn inputs_summary(&self) -> String {
        match &self.kind {
            Kind::Tran { points, .. } => {
                let pts: Vec<String> = points
                    .iter()
                    .map(|&(m, f)| format!("{}@{:.4}GHz", m.label(), f / 1e9))
                    .collect();
                format!("f_lo points {}; f_if {:.0} MHz", pts.join(" "), F_IF / 1e6)
            }
            Kind::Pss { f_lo, opts, .. } => format!(
                "f_lo {:.4} GHz; {} steps/period",
                f_lo / 1e9,
                opts.steps_per_period
            ),
            Kind::Corners { corners, .. } => {
                let cs: Vec<String> = corners.iter().map(corner_label).collect();
                format!("{} corners: {}", corners.len(), cs.join(", "))
            }
            Kind::Npath { cfg, .. } => format!(
                "probe bin {}; LO bins {:?}; f_grid {:.0} MHz",
                cfg.rf_bin,
                cfg.lo_bins,
                cfg.f_grid / 1e6
            ),
        }
    }

    /// The PSS options and LO of `pss_mixer`.
    pub fn pss(&self) -> Option<&PssOptions> {
        match &self.kind {
            Kind::Pss { opts, .. } => Some(opts),
            _ => None,
        }
    }

    /// Runs one body. `traced` arms telemetry around every call into
    /// the program; `index` distinguishes the files of successive
    /// bodies.
    ///
    /// # Errors
    ///
    /// Only for failures of the benchmark itself (a rejected
    /// configuration); failing jobs are counted in the result.
    pub fn run_body(&self, traced: Option<&Telemetry>, index: usize) -> Result<Body, String> {
        match &self.kind {
            Kind::Tran { eval, points } => Ok(self.tran_body(eval, points, traced)),
            Kind::Pss { eval, f_lo, .. } => Ok(self.pss_body(eval, *f_lo, traced)),
            Kind::Corners {
                base,
                corners,
                nominal,
            } => self.corners_body(base, corners, nominal, traced, index),
            Kind::Npath { params, cfg } => self.npath_body(params, cfg, traced),
        }
    }

    fn tran_body(
        &self,
        eval: &MixerEvaluator,
        points: &[(MixerMode, f64)],
        traced: Option<&Telemetry>,
    ) -> Body {
        let mut body = Body::default();
        for (i, &(mode, f_lo)) in points.iter().enumerate() {
            let (result, snapshot, seconds) = job(traced, spans::CONV_GAIN_SPOT, || {
                eval.circuit_conv_gain_spot(mode, f_lo, F_IF)
            });
            let model_db = eval.model(mode).conv_gain_db(f_lo + F_IF, F_IF);
            let (verdict, detail) = match result {
                Ok(db) => {
                    let mut detail = format!("circuit {db:.4} dB, model {model_db:.4} dB");
                    let mut ok = (db - model_db).abs() <= MODEL_TOL_DB;
                    if !ok {
                        detail.push_str(&format!(" — more than {MODEL_TOL_DB} dB apart"));
                    }
                    if self.seed == DEFAULT_SEED
                        && (db - SPOT_GOLDEN_DB[i]).abs() > SPOT_GOLDEN_TOL_DB
                    {
                        ok = false;
                        detail.push_str(&format!(
                            " — not within {SPOT_GOLDEN_TOL_DB} dB of {}",
                            SPOT_GOLDEN_DB[i]
                        ));
                    }
                    (checked(ok), detail)
                }
                Err(e) => (Verdict::Failed, format!("transient failed: {e}")),
            };
            body.tran_points += steps(&spot_tran_options());
            body.jobs.push(Job {
                label: point_label(mode, f_lo),
                verdict,
                detail,
                snapshot,
                seconds: Some(seconds),
            });
        }
        body
    }

    fn pss_body(&self, eval: &MixerEvaluator, f_lo: f64, traced: Option<&Telemetry>) -> Body {
        let mut body = Body::default();
        for mode in [MixerMode::Active, MixerMode::Passive] {
            let (result, snapshot, seconds) =
                job(traced, spans::PSS_POWER, || eval.pss_power_mw(mode, f_lo));
            let dc_mw = eval.model(mode).power_mw();
            let (verdict, detail) = match result {
                Ok(mw) => {
                    let ok = ((mw - dc_mw) / dc_mw).abs() <= PSS_POWER_TOL;
                    let note = if ok { "" } else { " — more than 2 % apart" };
                    (
                        checked(ok),
                        format!("PSS {mw:.4} mW, held-LO DC {dc_mw:.4} mW{note}"),
                    )
                }
                Err(e) => (Verdict::Failed, format!("PSS failed: {e}")),
            };
            body.jobs.push(Job {
                label: point_label(mode, f_lo),
                verdict,
                detail,
                snapshot,
                seconds: Some(seconds),
            });
        }
        body
    }

    fn corners_body(
        &self,
        base: &MixerConfig,
        corners: &[Corner],
        nominal: &MixerEvaluator,
        traced: Option<&Telemetry>,
        index: usize,
    ) -> Result<Body, String> {
        // A fresh file per body: every run is cold, nothing resumes.
        let path = self.scratch.join(format!("corners-{index}.json"));
        if path.exists() {
            std::fs::remove_file(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        }
        let partial = pooled(traced, spans::SWEEP_CORNERS, || {
            sweep_corners_resumable_with(base, corners, Some(&path), &self.pool)
        });
        let checkpoint_bytes = std::fs::metadata(&path).map_or(0, |m| m.len());
        let _ = std::fs::remove_file(&path);
        let sweep = partial.value;

        let active_gain = |corner: &Corner, outcome: &CornerOutcome| {
            outcome.params().map(|p| {
                MixerModel::new(corner.apply(base), MixerMode::Active, p.clone())
                    .conv_gain_db(CORNER_RF, CORNER_IF)
            })
        };
        let find = |process: ProcessCorner| {
            sweep
                .results
                .iter()
                .position(|(c, _)| c.process == process && c.temp_c == 27.0)
        };
        let gain_at = |i: Option<usize>| {
            i.and_then(|i| active_gain(&sweep.results[i].0, &sweep.results[i].1))
        };

        let mut body = Body {
            corners_computed: sweep.computed,
            checkpoint_bytes,
            ..Body::default()
        };
        for (i, (corner, outcome)) in sweep.results.iter().enumerate() {
            let (verdict, detail) = match (outcome, active_gain(corner, outcome)) {
                (CornerOutcome::Ok(_), Some(g)) => (Verdict::Ok, format!("active gain {g:.4} dB")),
                (CornerOutcome::Failed(t), _) => (
                    Verdict::Failed,
                    format!("extraction failed: {}", t.summary()),
                ),
                _ => (Verdict::Wrong, "no parameters".into()),
            };
            body.records.push((
                i,
                match outcome {
                    CornerOutcome::Ok(p) => StudyOutcome::Ok(p.to_flat()),
                    CornerOutcome::Failed(t) => StudyOutcome::Failed(t.summary()),
                },
            ));
            body.jobs.push(Job {
                label: corner_label(corner),
                verdict,
                detail,
                snapshot: None,
                seconds: None,
            });
        }
        // Corners the sweep never reported (an interrupted study).
        for corner in &corners[sweep.results.len().min(corners.len())..] {
            body.jobs.push(Job {
                label: corner_label(corner),
                verdict: Verdict::Failed,
                detail: "not run".into(),
                snapshot: None,
                seconds: None,
            });
        }
        let mut fail = |i: Option<usize>, why: String| {
            if let Some(job) = i.and_then(|i| body.jobs.get_mut(i)) {
                job.flag(&why);
            }
        };
        if sweep.computed != corners.len() || sweep.resumed != 0 {
            fail(
                Some(0),
                format!(
                    "cold sweep computed {} and resumed {} of {} corners",
                    sweep.computed,
                    sweep.resumed,
                    corners.len()
                ),
            );
        }
        if checkpoint_bytes == 0 {
            fail(Some(0), "no checkpoint written".into());
        }
        let (ff, ss, tt) = (
            find(ProcessCorner::Ff),
            find(ProcessCorner::Ss),
            find(ProcessCorner::Tt),
        );
        match (gain_at(ff), gain_at(ss)) {
            (Some(f), Some(s)) if f > s => {}
            (f, s) => fail(ff, format!("FF gain {f:?} dB not above SS gain {s:?} dB")),
        }
        let nominal_db = nominal
            .model(MixerMode::Active)
            .conv_gain_db(CORNER_RF, CORNER_IF);
        match gain_at(tt) {
            Some(g) if (g - nominal_db).abs() <= TT_NOMINAL_TOL_DB => {}
            g => fail(
                tt,
                format!("TT 27 °C gain {g:?} dB not within {TT_NOMINAL_TOL_DB} dB of the nominal {nominal_db} dB"),
            ),
        }
        Ok(body)
    }

    fn npath_body(
        &self,
        params: &MixerFirstParams,
        cfg: &ZinConfig,
        traced: Option<&Telemetry>,
    ) -> Result<Body, String> {
        let sweep = pooled(traced, spans::ZIN_SWEEP, || {
            input_impedance_vs_lo(params, cfg, &self.pool)
        })
        .map_err(|e| e.to_string())?;
        let mut body = Body::default();
        for (f_lo, outcome) in &sweep.points {
            body.tran_points += steps(&zin_tran_options(cfg, *f_lo));
            let (verdict, detail) = match outcome {
                ZinOutcome::Ok(z) => (Verdict::Ok, format!("|Zin| {:.3} Ω", z.abs())),
                ZinOutcome::Failed(msg) => (Verdict::Failed, format!("failed: {msg}")),
            };
            body.jobs.push(Job {
                label: format!("f_lo {:.0} MHz", f_lo / 1e6),
                verdict,
                detail,
                snapshot: None,
                seconds: None,
            });
        }
        // The bandpass must peak where the LO lands on the probe, with
        // contrast against the band edges.
        let probe = sweep
            .points
            .iter()
            .position(|(f, _)| (f - sweep.f_rf).abs() < 0.5 * cfg.f_grid);
        let edge = sweep
            .magnitudes()
            .iter()
            .filter(|(f, _)| (f - sweep.f_rf).abs() > 2.5 * cfg.f_grid)
            .map(|&(_, m)| m)
            .fold(0.0, f64::max);
        let problem = match sweep.peak() {
            None => Some("no LO point solved".to_string()),
            Some((f_peak, _)) if (f_peak - sweep.f_rf).abs() > 0.5 * cfg.f_grid => Some(format!(
                "peak at {f_peak:.3e} Hz, probe at {:.3e} Hz",
                sweep.f_rf
            )),
            Some((_, z)) if edge <= 0.0 || z < ZIN_CONTRAST * edge => Some(format!(
                "peak {z:.1} Ω vs band edge {edge:.1} Ω: contrast below {ZIN_CONTRAST}×"
            )),
            Some((_, z))
                if self.seed == DEFAULT_SEED && (z - ZIN_PEAK_OHM).abs() > ZIN_PEAK_TOL_OHM =>
            {
                Some(format!("peak {z:.3} Ω, expected {ZIN_PEAK_OHM} Ω"))
            }
            Some(_) => None,
        };
        if let Some(why) = problem {
            let i = probe.unwrap_or(0);
            if let Some(job) = body.jobs.get_mut(i) {
                job.flag(&why);
            }
        }
        Ok(body)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_check_makes_only_a_returned_output_wrong() {
        let job = |verdict| Job {
            label: String::new(),
            verdict,
            detail: String::new(),
            snapshot: None,
            seconds: None,
        };
        let mut body = Body {
            jobs: vec![job(Verdict::Ok), job(Verdict::Failed), job(Verdict::Ok)],
            ..Body::default()
        };
        body.jobs[0].flag("gain out of range");
        body.jobs[1].flag("no gain to compare");
        assert_eq!(body.jobs[0].verdict, Verdict::Wrong);
        assert_eq!(body.jobs[1].verdict, Verdict::Failed);
        assert!(body.jobs[1].detail.ends_with("no gain to compare"));
        assert_eq!((body.failed(), body.wrong()), (2, 1));
    }

    #[test]
    fn names_round_trip_and_are_valid() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
            assert!(crate::stats::valid_name(w.name()));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn spot_options_match_the_fixed_step_count() {
        assert_eq!(steps(&spot_tran_options()), 2 * 8192);
    }

    #[test]
    fn zin_steps_scale_with_the_lo_bin() {
        let cfg = ZinConfig::centered(1e6, 10, 4);
        // settle 3 + window 2 grid cycles at 64 steps per LO period.
        assert_eq!(steps(&zin_tran_options(&cfg, 10e6)), 5 * 10 * 64);
    }
}
