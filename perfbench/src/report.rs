//! Metric catalog and the machine-readable result line.

use crate::stats::{valid_name, valid_unit};
use remix_telemetry::{parse_json, JsonValue};
use std::fmt::Write as _;

/// End-to-end metrics, measured with telemetry disarmed: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, from the traced run: `(name, unit)`.
pub const PER_LAYER: [(&str, &str); 44] = [
    // analysis.tran
    ("tran.calls", "count"),
    ("tran.busy_s", "s"),
    ("tran.points", "count"),
    ("tran.ns_per_factorization", "ns"),
    ("tran.accounted_frac", "frac"),
    // numerics
    ("lu.factorizations", "count"),
    ("lu.fill_nnz", "count"),
    ("replay.valid", "count"),
    ("replay.dim", "count"),
    ("replay.nnz", "count"),
    ("replay.fill_nnz", "count"),
    ("replay.to_csr_ns", "ns"),
    ("replay.sparse_factor_ns", "ns"),
    ("replay.rcond_ns", "ns"),
    ("replay.solve_ns", "ns"),
    ("replay.dense_factor_ns", "ns"),
    // analysis.stamp / circuit.mos
    ("replay.assemble_ns", "ns"),
    ("replay.mos_eval_ns", "ns"),
    // analysis.pss
    ("pss.busy_s", "s"),
    ("pss.tran_calls", "count"),
    ("pss.periods_used", "count"),
    ("pss.factorizations_per_period", "count"),
    // analysis.op / convergence
    ("op.calls", "count"),
    ("op.busy_s", "s"),
    ("op.newton_iterations", "count"),
    ("op.attempts.direct", "count"),
    ("op.attempts.gmin_ladder", "count"),
    ("op.attempts.source_ramp", "count"),
    ("op.attempts.pseudo_transient", "count"),
    ("op.direct_success_frac", "frac"),
    // analysis.ac / acnoise / dcsweep
    ("ac.busy_s", "s"),
    ("acnoise.busy_s", "s"),
    ("dcsweep.busy_s", "s"),
    // core.corners / core.checkpoint / exec.persist
    ("corners.computed", "count"),
    ("corners.corner_s", "s"),
    ("checkpoint.bytes", "B"),
    ("checkpoint.save_ns", "ns"),
    ("checkpoint.load_ns", "ns"),
    // exec.pool
    ("pool.workers", "count"),
    ("pool.busy_s", "s"),
    ("pool.occupancy", "frac"),
    // topo.zin
    ("zin.points", "count"),
    ("zin.point_s", "s"),
    // telemetry
    ("trace_overhead_frac", "frac"),
];

/// The `replay.*`-derived metrics, withheld when the replay's fidelity
/// checks fail.
pub fn is_replay_metric(name: &str) -> bool {
    name.starts_with("replay.") && name != "replay.valid" || name == "tran.accounted_frac"
}

/// The unit of a catalogued metric.
pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .find(|(n, _)| *n == name)
        .map(|&(_, u)| u)
}

/// One measured metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Catalogued name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// Measured value.
    pub value: f64,
}

impl Metric {
    /// A catalogued metric by name.
    ///
    /// # Panics
    ///
    /// If `name` is not in the catalog — a bug in the benchmark.
    pub fn new(name: &str, value: f64) -> Metric {
        let unit = unit_of(name).unwrap_or_else(|| panic!("uncatalogued metric {name}"));
        Metric {
            name: name.into(),
            unit: unit.into(),
            value,
        }
    }
}

/// The result of one benchmark invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Whether every job passed its output check.
    pub correct: bool,
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs that errored or failed their check.
    pub failed: u64,
    /// The metrics, in output order.
    pub metrics: Vec<Metric>,
}

/// Escapes a string for a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Renders the result as the one-line JSON object the benchmark prints
/// last: exactly `correct`, `attempted`, `failed` and `metrics`, every
/// value with all its digits.
///
/// # Errors
///
/// On an invalid or repeated name or unit, or a non-finite value.
pub fn result_line(o: &Outcome) -> Result<String, String> {
    let mut seen = std::collections::BTreeSet::new();
    let mut metrics = Vec::new();
    for m in &o.metrics {
        if !valid_name(&m.name) || !valid_unit(&m.unit) {
            return Err(format!(
                "invalid metric name or unit: {} [{}]",
                m.name, m.unit
            ));
        }
        if !seen.insert(m.name.as_str()) {
            return Err(format!("metric {} reported twice", m.name));
        }
        if !m.value.is_finite() {
            return Err(format!("metric {} is not finite: {}", m.name, m.value));
        }
        metrics.push(format!(
            "{}: {{\"value\": {}, \"unit\": {}}}",
            json_string(&m.name),
            m.value,
            json_string(&m.unit)
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        o.correct,
        o.attempted,
        o.failed,
        metrics.join(", ")
    ))
}

/// Reads back a line written by [`result_line`].
///
/// # Errors
///
/// When the line is not such a result.
pub fn parse_result_line(line: &str) -> Result<Outcome, String> {
    let bad = || format!("not a result line: {line}");
    let v = parse_json(line).map_err(|e| format!("{e}: {line}"))?;
    let count = |key| v.get(key).and_then(JsonValue::as_u64).ok_or_else(bad);
    let Some(JsonValue::Obj(map)) = v.get("metrics") else {
        return Err(bad());
    };
    let metrics = map
        .iter()
        .map(|(name, m)| {
            Some(Metric {
                name: name.clone(),
                unit: m.get("unit")?.as_str()?.to_string(),
                value: m.get("value")?.as_f64()?,
            })
        })
        .collect::<Option<Vec<_>>>()
        .ok_or_else(bad)?;
    Ok(Outcome {
        correct: v
            .get("correct")
            .and_then(JsonValue::as_bool)
            .ok_or_else(bad)?,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome() -> Outcome {
        Outcome {
            correct: true,
            attempted: 4,
            failed: 0,
            metrics: vec![
                Metric::new("wall_s", 19.402_117_3),
                Metric::new("setup_s", 0.000_071_2),
                Metric::new("peak_rss_mb", 12.5),
            ],
        }
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let line = result_line(&outcome()).unwrap();
        assert!(!line.contains('\n'));
        let v = parse_json(&line).unwrap();
        let JsonValue::Obj(map) = &v else {
            panic!("not an object: {line}")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct").and_then(JsonValue::as_bool), Some(true));
        assert_eq!(v.get("attempted").and_then(JsonValue::as_u64), Some(4));
        assert_eq!(v.get("failed").and_then(JsonValue::as_u64), Some(0));
        let wall = v.get("metrics").and_then(|m| m.get("wall_s")).unwrap();
        assert_eq!(
            wall.get("value").and_then(JsonValue::as_f64),
            Some(19.402_117_3)
        );
        assert_eq!(wall.get("unit").and_then(JsonValue::as_str), Some("s"));
        // Small values keep every digit (no exponent rounding).
        let setup = v.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(
            setup.get("value").and_then(JsonValue::as_f64),
            Some(0.000_071_2)
        );
    }

    #[test]
    fn result_line_reads_back() {
        let mut o = outcome();
        o.failed = 2;
        o.correct = false;
        let mut back = parse_result_line(&result_line(&o).unwrap()).unwrap();
        back.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        o.metrics.sort_by(|a, b| a.name.cmp(&b.name));
        assert_eq!(back, o);
        assert!(parse_result_line("{\"correct\": true}").is_err());
        assert!(parse_result_line("perfbench: no result").is_err());
    }

    #[test]
    fn result_line_rejects_bad_metrics() {
        let mut o = outcome();
        o.metrics.push(Metric::new("wall_s", 1.0));
        assert!(result_line(&o).is_err(), "duplicate");
        let mut o = outcome();
        o.metrics[0].value = f64::NAN;
        assert!(result_line(&o).is_err(), "NaN");
        let mut o = outcome();
        o.metrics[0].name = "bad name".into();
        assert!(result_line(&o).is_err(), "grammar");
    }

    #[test]
    fn catalog_names_and_units_are_valid_and_unique() {
        let mut names: Vec<&str> = END_TO_END
            .iter()
            .chain(PER_LAYER.iter())
            .map(|m| m.0)
            .collect();
        for (n, u) in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(valid_name(n) && valid_unit(u), "{n} [{u}]");
        }
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn benchmark_json_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let v = parse_json(&text).unwrap();
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(JsonValue::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                    (s("name"), s("unit"))
                })
                .collect()
        };
        let own = |cat: &[(&str, &str)]| -> Vec<(String, String)> {
            cat.iter().map(|&(n, u)| (n.into(), u.into())).collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
        let workloads: Vec<String> = v
            .get("workloads")
            .and_then(JsonValue::as_arr)
            .unwrap()
            .iter()
            .map(|w| {
                w.get("name")
                    .and_then(JsonValue::as_str)
                    .unwrap()
                    .to_string()
            })
            .collect();
        let ours: Vec<String> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name().to_string())
            .collect();
        assert_eq!(workloads, ours);
    }
}
