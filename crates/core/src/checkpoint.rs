//! Study checkpoint persistence.
//!
//! Long studies get interrupted — a laptop lid, a CI timeout, a faulted
//! sample worth inspecting before continuing. The Monte-Carlo mismatch
//! study ([`iip2_study_with`](crate::montecarlo::iip2_study_with)) and
//! the PVT corner sweep
//! ([`sweep_corners_resumable_with`](crate::corners::sweep_corners_resumable_with))
//! write every completed unit (pass *or* fail) to a small JSON file and
//! resume from it without recomputing. Per-index seeding makes the skip
//! exact: unit `k` computes the same result whether or not units `0..k`
//! were replayed.
//!
//! There is one format, version 3, written by [`save_study_v3`] and
//! read back by [`load_study_v3`]. It carries a study label, a flat
//! `(name, value)` configuration fingerprint, the study's unit count, a
//! `completed` bitmap (`'1'` per finished index) and one record per
//! completed unit — a flat `f64` payload on success, the one-line trace
//! summary on failure. Records may come in any order, because the study
//! pool completes units out of order. A three-unit document with two
//! completed units:
//!
//! ```json
//! {
//!   "version": 3.0,
//!   "study": "corners",
//!   "config": [
//!     ["base.vdd", 1.2],
//!     ["corner0.temp_c", 27.0]
//!   ],
//!   "total": 3,
//!   "completed": "101",
//!   "records": [
//!     {"index": 2, "ok": false, "trace": "dc operating point: gave up"},
//!     {"index": 0, "ok": true, "values": [1.0, -0.0025]}
//!   ]
//! }
//! ```
//!
//! A document whose study label or configuration fingerprint differs
//! from the request is ignored rather than trusted — resuming someone
//! else's run would silently mix distributions. So is a torn or
//! internally inconsistent one. The JSON goes through the workspace's
//! one codec, [`remix_telemetry::parse_json`] and
//! [`remix_telemetry::json_str`], and every save is a
//! [`remix_exec::atomic_write`].

use crate::montecarlo::MismatchConfig;
use remix_exec::{Interruption, PoolOptions, TaskContext, TaskResult};
use remix_telemetry::{json_str, parse_json, JsonValue};
use std::fmt::Write as _;
use std::path::Path;

const BITMAP_VERSION: f64 = 3.0;

/// The study label of Monte-Carlo mismatch checkpoints.
pub(crate) const MC_STUDY: &str = "mc_iip2";

/// Outcome of one completed study unit, in the flat form the checkpoint
/// persists.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyOutcome {
    /// The unit solved; its result flattened to scalars (the study
    /// defines the encoding — see e.g.
    /// [`ExtractedParams::to_flat`](crate::model::ExtractedParams::to_flat)).
    Ok(Vec<f64>),
    /// The unit failed; the one-line trace summary.
    Failed(String),
}

/// Renders a version-3 bitmap study checkpoint.
///
/// The document makes the completed set explicit: a `total` unit count,
/// a `completed` bitmap (`'1'` per finished index), and sparse,
/// any-order records. The bitmap and the record index set must match
/// exactly — any divergence (a torn file, a partial external edit)
/// rejects the whole document rather than resuming from a lie.
///
/// Successful records containing non-finite values are dropped (bit
/// cleared) rather than emitted as invalid JSON; those units simply
/// recompute on resume. Records with `index >= total` are dropped too.
fn render_study_v3(
    study: &str,
    config: &[(String, f64)],
    total: usize,
    records: &[(usize, StudyOutcome)],
) -> String {
    let kept: Vec<&(usize, StudyOutcome)> = records
        .iter()
        .filter(|(index, outcome)| {
            *index < total
                && match outcome {
                    StudyOutcome::Ok(values) => values.iter().all(|v| v.is_finite()),
                    StudyOutcome::Failed(_) => true,
                }
        })
        .collect();
    let mut bitmap = vec!['0'; total];
    for (index, _) in &kept {
        bitmap[*index] = '1';
    }
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"version\": {BITMAP_VERSION:?},");
    let _ = writeln!(out, "  \"study\": {},", json_str(study));
    let _ = writeln!(out, "  \"config\": [");
    for (i, (name, value)) in config.iter().enumerate() {
        let comma = if i + 1 == config.len() { "" } else { "," };
        let _ = writeln!(out, "    [{}, {value:?}]{comma}", json_str(name));
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"total\": {total},");
    let _ = writeln!(
        out,
        "  \"completed\": \"{}\",",
        bitmap.iter().collect::<String>()
    );
    let _ = writeln!(out, "  \"records\": [");
    for (i, (index, outcome)) in kept.iter().enumerate() {
        let comma = if i + 1 == kept.len() { "" } else { "," };
        let line = match outcome {
            StudyOutcome::Ok(values) => {
                let joined = values
                    .iter()
                    .map(|v| format!("{v:?}"))
                    .collect::<Vec<_>>()
                    .join(", ");
                format!("    {{\"index\": {index}, \"ok\": true, \"values\": [{joined}]}}{comma}")
            }
            StudyOutcome::Failed(trace) => format!(
                "    {{\"index\": {index}, \"ok\": false, \"trace\": {}}}{comma}",
                json_str(trace)
            ),
        };
        let _ = writeln!(out, "{line}");
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    out
}

/// Writes the version-3 bitmap checkpoint to `path`, atomically (see
/// [`remix_exec::atomic_write`]): a kill between any two saves leaves
/// one complete, self-consistent document.
///
/// # Errors
///
/// Propagates filesystem errors from the underlying write or rename.
pub fn save_study_v3(
    path: &Path,
    study: &str,
    config: &[(String, f64)],
    total: usize,
    records: &[(usize, StudyOutcome)],
) -> std::io::Result<()> {
    let result = remix_exec::atomic_write(path, &render_study_v3(study, config, total, records));
    checkpoint_event("save_bitmap", path, result.is_ok(), records.len());
    result
}

/// A JSON number. Unlike [`JsonValue::as_f64`], `null` is not one: a
/// checkpoint never writes `null`, so reading it as NaN would trust an
/// edited document.
fn number(v: &JsonValue) -> Option<f64> {
    match v {
        JsonValue::Num(x) => Some(*x),
        JsonValue::Int(x) => Some(*x as f64),
        _ => None,
    }
}

/// A JSON number that is a non-negative integer (an index or a count).
fn count(v: &JsonValue) -> Option<usize> {
    v.as_u64().and_then(|n| usize::try_from(n).ok())
}

/// Parses version-3 checkpoint text into `(index, outcome)` pairs
/// sorted by index and clipped to `total`, or `None` when the document
/// is malformed, from a different study/configuration, or internally
/// inconsistent (bitmap and record set must agree bit-for-bit — a torn
/// or hand-edited document is rejected outright, never half-trusted).
/// A document written for a different unit count loads fine: per-index
/// seeding makes studies prefix-stable, so size changes clip or extend
/// rather than reject.
fn restore_study_v3(
    text: &str,
    study: &str,
    config: &[(String, f64)],
    total: usize,
) -> Option<Vec<(usize, StudyOutcome)>> {
    let doc = parse_json(text).ok()?;
    if number(doc.get("version")?)? != BITMAP_VERSION {
        return None;
    }
    if doc.get("study")?.as_str()? != study {
        return None;
    }
    let stored = doc.get("config")?.as_arr()?;
    if stored.len() != config.len() {
        return None;
    }
    for (item, (name, value)) in stored.iter().zip(config) {
        let [stored_name, stored_value] = item.as_arr()? else {
            return None;
        };
        if stored_name.as_str()? != name || number(stored_value)? != *value {
            return None;
        }
    }
    // The document is validated against its *own* recorded size: a
    // study may legitimately be re-run with a different unit count
    // (per-index seeding makes a short study a strict prefix of a long
    // one), so a size difference filters rather than rejects — but any
    // internal bitmap/record divergence still rejects outright.
    let stored_total = count(doc.get("total")?)?;
    let bitmap = doc.get("completed")?.as_str()?;
    if bitmap.len() != stored_total || bitmap.bytes().any(|b| b != b'0' && b != b'1') {
        return None;
    }
    let records = doc.get("records")?.as_arr()?;
    let mut seen = vec![false; stored_total];
    let mut out = Vec::with_capacity(records.len());
    for r in records {
        let index = count(r.get("index")?)?;
        // Every record must be inside the document, claimed by the
        // bitmap, and unique.
        if index >= stored_total || bitmap.as_bytes()[index] != b'1' || seen[index] {
            return None;
        }
        seen[index] = true;
        let outcome = if r.get("ok")?.as_bool()? {
            let values = r.get("values")?.as_arr()?;
            StudyOutcome::Ok(values.iter().map(number).collect::<Option<Vec<f64>>>()?)
        } else {
            StudyOutcome::Failed(r.get("trace")?.as_str()?.to_string())
        };
        out.push((index, outcome));
    }
    // …and every bitmap claim must be backed by a record.
    let claimed = bitmap.bytes().filter(|&b| b == b'1').count();
    if claimed != out.len() {
        return None;
    }
    // Only now, with the document proven self-consistent, clip to the
    // requested study size.
    out.retain(|&(index, _)| index < total);
    out.sort_by_key(|&(index, _)| index);
    Some(out)
}

/// Reads and validates the version-3 checkpoint at `path`; `None` when
/// missing, unreadable, malformed, inconsistent, or from a different
/// study shape.
pub fn load_study_v3(
    path: &Path,
    study: &str,
    config: &[(String, f64)],
    total: usize,
) -> Option<Vec<(usize, StudyOutcome)>> {
    let restored = std::fs::read_to_string(path)
        .ok()
        .and_then(|text| restore_study_v3(&text, study, config, total));
    checkpoint_event(
        "load_bitmap",
        path,
        restored.is_some(),
        restored.as_ref().map_or(0, Vec::len),
    );
    restored
}

/// The configuration fingerprint of a Monte-Carlo mismatch study: a
/// checkpoint written for another seed or σ is rejected on load.
pub fn mc_study_config(mm: &MismatchConfig) -> Vec<(String, f64)> {
    vec![
        ("seed".to_string(), mm.seed as f64),
        ("sigma_vt".to_string(), mm.sigma_vt),
        ("sigma_kp_frac".to_string(), mm.sigma_kp_frac),
    ]
}

/// A study unit's outcome as the resume protocol sees it: how it is
/// flattened into a checkpoint record and rebuilt from one.
pub(crate) trait StudyUnit: Clone + Send {
    /// The checkpoint record of this outcome.
    fn encode(&self) -> StudyOutcome;
    /// Rebuilds a solved unit from its flat values; `None` when they no
    /// longer deserialize, so the unit recomputes.
    fn solved(values: &[f64]) -> Option<Self>;
    /// A failed unit carrying a one-line trace.
    fn failed(trace: String) -> Self;
}

/// What [`run_study`] hands back to its driver.
pub(crate) struct StudyRun<T> {
    /// The longest contiguous completed prefix, in index order.
    pub prefix: Vec<T>,
    /// Units computed by this invocation.
    pub computed: usize,
    /// Units restored from the checkpoint.
    pub resumed: usize,
    /// Why the pool stopped early, when it did.
    pub interrupted: Option<Interruption>,
}

/// The resume protocol shared by the study drivers.
///
/// Restores every unit a compatible checkpoint at `checkpoint` holds,
/// runs the remaining indices of `0..total` through `task` on `pool`,
/// and after every completion calls `on_done` and saves the full
/// completed set as a version-3 checkpoint. Restored records are saved
/// back exactly as read. A contained panic or an exhausted per-unit
/// deadline is a *failed unit* carrying the pool's one-line trace,
/// never a dead study. Completion may run out of order, so under an
/// interruption the checkpoint keeps *every* completed unit while
/// [`StudyRun::prefix`] stops at the first gap.
pub(crate) fn run_study<T, F>(
    study: &str,
    config: &[(String, f64)],
    total: usize,
    checkpoint: Option<&Path>,
    pool: &PoolOptions,
    task: F,
    mut on_done: impl FnMut(&T) + Send,
) -> StudyRun<T>
where
    T: StudyUnit,
    F: Fn(&TaskContext) -> TaskResult<T> + Sync,
{
    let mut restored: Vec<Option<T>> = vec![None; total];
    let mut records: Vec<(usize, StudyOutcome)> = Vec::new();
    if let Some(path) = checkpoint {
        for (i, record) in load_study_v3(path, study, config, total).unwrap_or_default() {
            restored[i] = match &record {
                StudyOutcome::Ok(values) => T::solved(values),
                StudyOutcome::Failed(trace) => Some(T::failed(trace.clone())),
            };
            if restored[i].is_some() {
                records.push((i, record));
            }
        }
    }
    let resumed = records.len();
    let todo: Vec<usize> = (0..total).filter(|&i| restored[i].is_none()).collect();
    let run = remix_exec::run_tasks(&todo, pool, task, |index, outcome| {
        let unit = outcome.clone().unwrap_or_else(T::failed);
        on_done(&unit);
        records.push((index, unit.encode()));
        if let Some(path) = checkpoint {
            // Checkpoint write failures must not kill the study the
            // checkpoint exists to protect; the run just loses
            // resumability.
            let _ = save_study_v3(path, study, config, total, &records);
        }
    });
    let computed = run.outcomes.len();
    let interrupted = run.interrupted;
    let prefix = restored
        .into_iter()
        .zip(run.into_slots(total))
        .map_while(|(restored, computed)| {
            restored.or(computed.map(|o| o.unwrap_or_else(T::failed)))
        })
        .collect();
    StudyRun {
        prefix,
        computed,
        resumed,
        interrupted,
    }
}

/// Counts and (when an observing sink is armed) logs one checkpoint
/// save/load. A failed load is an expected outcome — missing file on
/// first run, stale configuration — not an error, so it is recorded
/// rather than reported.
fn checkpoint_event(op: &'static str, path: &Path, ok: bool, records: usize) {
    if !remix_telemetry::is_armed() {
        return;
    }
    remix_telemetry::counter_add(
        if ok {
            remix_telemetry::names::CORE_CHECKPOINT_OPS_OK
        } else {
            remix_telemetry::names::CORE_CHECKPOINT_OPS_FAILED
        },
        1,
    );
    remix_telemetry::event(
        remix_telemetry::names::CORE_CHECKPOINT,
        vec![
            ("op", remix_telemetry::FieldValue::from(op)),
            (
                "path",
                remix_telemetry::FieldValue::from(path.display().to_string()),
            ),
            ("ok", remix_telemetry::FieldValue::from(u64::from(ok))),
            ("records", remix_telemetry::FieldValue::from(records)),
        ],
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn study_config() -> Vec<(String, f64)> {
        vec![("base.vdd".into(), 1.2), ("corner0.temp_c".into(), 27.0)]
    }

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("remix_ckpt_{}_{name}", std::process::id()))
    }

    #[test]
    fn renders_the_pinned_v3_document() {
        let records = vec![
            (
                2,
                StudyOutcome::Failed("dc operating point: gave up".into()),
            ),
            (0, StudyOutcome::Ok(vec![1.0, -2.5e-3])),
        ];
        let expected = r#"{
  "version": 3.0,
  "study": "corners",
  "config": [
    ["base.vdd", 1.2],
    ["corner0.temp_c", 27.0]
  ],
  "total": 3,
  "completed": "101",
  "records": [
    {"index": 2, "ok": false, "trace": "dc operating point: gave up"},
    {"index": 0, "ok": true, "values": [1.0, -0.0025]}
  ]
}
"#;
        assert_eq!(
            render_study_v3("corners", &study_config(), 3, &records),
            expected
        );
    }

    #[test]
    fn escaping_survives_hostile_trace_text() {
        let hostile = "line\nwith \"quotes\" and \\slashes\\ and\ttabs and a bell \u{7}";
        let records = vec![(0, StudyOutcome::Failed(hostile.into()))];
        let text = render_study_v3("corners", &study_config(), 1, &records);
        assert!(text.contains(r#"\"quotes\" and \\slashes\\ and\ttabs and a bell \u0007"#));
        assert_eq!(
            restore_study_v3(&text, "corners", &study_config(), 1).unwrap(),
            records
        );
    }

    #[test]
    fn null_or_fractional_where_a_number_is_expected_is_rejected() {
        let records = vec![(1, StudyOutcome::Ok(vec![7.0]))];
        let text = render_study_v3("corners", &study_config(), 2, &records);
        assert!(restore_study_v3(&text, "corners", &study_config(), 2).is_some());
        for (from, to) in [
            ("\"values\": [7.0]", "\"values\": [null]"),
            ("[\"base.vdd\", 1.2]", "[\"base.vdd\", null]"),
            ("\"index\": 1", "\"index\": null"),
            ("\"index\": 1", "\"index\": 1.5"),
            ("\"total\": 2", "\"total\": null"),
        ] {
            let edited = text.replace(from, to);
            assert_ne!(edited, text, "{from} not found");
            assert!(
                restore_study_v3(&edited, "corners", &study_config(), 2).is_none(),
                "{to} must be rejected"
            );
        }
    }

    #[test]
    fn bitmap_round_trips_out_of_order_sparse_records() {
        // A pool completes units in arbitrary order; the document must
        // come back sorted, with holes preserved as holes.
        let records = vec![
            (5, StudyOutcome::Ok(vec![5.0])),
            (0, StudyOutcome::Failed("gave up".into())),
            (3, StudyOutcome::Ok(vec![-1.0, 2.0])),
        ];
        let text = render_study_v3("corners", &study_config(), 8, &records);
        assert!(text.contains("\"completed\": \"10010100\""));
        let restored = restore_study_v3(&text, "corners", &study_config(), 8).unwrap();
        assert_eq!(
            restored,
            vec![
                (0, StudyOutcome::Failed("gave up".into())),
                (3, StudyOutcome::Ok(vec![-1.0, 2.0])),
                (5, StudyOutcome::Ok(vec![5.0])),
            ]
        );
    }

    #[test]
    fn bitmap_rejects_wrong_shape_and_inconsistency() {
        let records = vec![(1, StudyOutcome::Ok(vec![7.0]))];
        let text = render_study_v3("corners", &study_config(), 4, &records);
        // Wrong label or config: rejected.
        assert!(restore_study_v3(&text, "sweeps", &study_config(), 4).is_none());
        let mut other = study_config();
        other[0].1 = 1.3;
        assert!(restore_study_v3(&text, "corners", &other, 4).is_none());
        other = study_config();
        other.pop();
        assert!(restore_study_v3(&text, "corners", &other, 4).is_none());
        // Another format version: rejected.
        let v2 = text.replace("\"version\": 3.0", "\"version\": 2.0");
        assert!(restore_study_v3(&v2, "corners", &study_config(), 4).is_none());
        assert!(restore_study_v3("not json at all", "corners", &study_config(), 4).is_none());
        // A different requested size clips/extends instead of rejecting
        // (studies are prefix-stable), so the record at index 1 survives
        // both a grow and a shrink-to-2, but not a shrink-to-1.
        assert_eq!(
            restore_study_v3(&text, "corners", &study_config(), 6).unwrap(),
            vec![(1, StudyOutcome::Ok(vec![7.0]))]
        );
        assert!(restore_study_v3(&text, "corners", &study_config(), 1)
            .unwrap()
            .is_empty());
        // Bitmap claiming an index with no record backing it: rejected.
        let lying = text.replace("\"0100\"", "\"0110\"");
        assert!(restore_study_v3(&lying, "corners", &study_config(), 4).is_none());
        // Record present but bitmap denies it: rejected.
        let denying = text.replace("\"0100\"", "\"0000\"");
        assert!(restore_study_v3(&denying, "corners", &study_config(), 4).is_none());
    }

    #[test]
    fn bitmap_drops_non_finite_and_out_of_range_records() {
        let records = vec![
            (0, StudyOutcome::Ok(vec![f64::INFINITY])),
            (1, StudyOutcome::Ok(vec![4.0])),
            (9, StudyOutcome::Ok(vec![1.0])), // beyond total
        ];
        let text = render_study_v3("corners", &study_config(), 3, &records);
        assert!(text.contains("\"completed\": \"010\""));
        let restored = restore_study_v3(&text, "corners", &study_config(), 3).unwrap();
        assert_eq!(restored, vec![(1, StudyOutcome::Ok(vec![4.0]))]);
    }

    #[test]
    fn torn_bitmap_checkpoint_is_rejected() {
        let path = temp_path("torn_bitmap.json");
        let records = vec![
            (0, StudyOutcome::Ok(vec![1.0])),
            (2, StudyOutcome::Failed("gave up".into())),
        ];
        save_study_v3(&path, "corners", &study_config(), 4, &records).expect("save");
        let full = std::fs::read_to_string(&path).expect("read");
        for cut in [1, full.len() / 2, full.len() - 2] {
            std::fs::write(&path, &full[..cut]).expect("tear");
            assert!(
                load_study_v3(&path, "corners", &study_config(), 4).is_none(),
                "torn bitmap checkpoint (cut at {cut}) must be rejected"
            );
        }
        save_study_v3(&path, "corners", &study_config(), 4, &records).expect("re-save");
        assert_eq!(
            load_study_v3(&path, "corners", &study_config(), 4).expect("reload"),
            records
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn save_to_unwritable_dir_errors_cleanly() {
        let path = Path::new("/nonexistent-remix-dir/ckpt.json");
        let records = vec![(0, StudyOutcome::Ok(vec![1.0]))];
        assert!(save_study_v3(path, "corners", &study_config(), 1, &records).is_err());
    }

    #[test]
    fn mc_checkpoint_rejects_another_seed_or_sigma() {
        let path = temp_path("mc_config.json");
        let mm = MismatchConfig::default();
        let records = vec![(0, StudyOutcome::Ok(vec![66.25]))];
        save_study_v3(&path, MC_STUDY, &mc_study_config(&mm), 4, &records).expect("save");
        assert_eq!(
            load_study_v3(&path, MC_STUDY, &mc_study_config(&mm), 4).expect("load"),
            records
        );
        let other_seed = MismatchConfig {
            seed: mm.seed + 1,
            ..mm
        };
        assert!(load_study_v3(&path, MC_STUDY, &mc_study_config(&other_seed), 4).is_none());
        let other_sigma = MismatchConfig {
            sigma_vt: 9e-3,
            ..mm
        };
        assert!(load_study_v3(&path, MC_STUDY, &mc_study_config(&other_sigma), 4).is_none());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn resume_saves_restored_failures_as_read() {
        use crate::montecarlo::SampleOutcome;
        let path = temp_path("resume_as_read.json");
        let config = mc_study_config(&MismatchConfig::default());
        let trace = "dc operating point: 3 stage attempts, 120 iterations, last [gmin] gave up";
        let failed = (1, StudyOutcome::Failed(trace.into()));
        save_study_v3(&path, MC_STUDY, &config, 4, std::slice::from_ref(&failed)).expect("save");
        // Each resume computes one more unit and then stops, so every
        // round rewrites the checkpoint around the restored failure.
        let one_unit_per_resume = PoolOptions {
            chaos: remix_exec::PoolChaos::parse("cancel:1").expect("spec"),
            ..PoolOptions::default()
        };
        for round in 0..2 {
            let run = run_study(
                MC_STUDY,
                &config,
                4,
                Some(&path),
                &one_unit_per_resume,
                |ctx| TaskResult::Done(SampleOutcome::Ok(ctx.index as f64)),
                |_| {},
            );
            assert_eq!((run.resumed, run.computed), (1 + round, 1), "round {round}");
            let saved = load_study_v3(&path, MC_STUDY, &config, 4).expect("reload");
            assert!(
                saved.contains(&failed),
                "round {round}: the restored failure must be saved back as read: {saved:?}"
            );
        }
        let _ = std::fs::remove_file(&path);
    }
}
