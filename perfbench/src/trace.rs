//! Per-layer metrics of a traced body: the program's own spans and
//! counters (armed `remix_telemetry` context), the benchmark's layer
//! replay, and a few timed calls on the workload's own data.

use crate::replay::{self, Costs};
use crate::report::{is_replay_metric, Metric, PER_LAYER};
use crate::workloads::{Body, NewtonLoop, Prepared};
use remix_analysis::periodic_steady_state;
use remix_core::checkpoint::{load_study_v3, save_study_v3};
use remix_telemetry::{names, MetricsSnapshot};
use std::time::Instant;

/// Study label of the timed checkpoint round trip.
const CHECKPOINT_STUDY: &str = "perfbench.corners";

/// Median of five timed calls, in ns.
fn median_call_ns(mut f: impl FnMut() -> bool) -> Result<f64, String> {
    let mut ns = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        if !f() {
            return Err("checkpoint round trip failed".into());
        }
        ns.push(t.elapsed().as_secs_f64() * 1e9);
    }
    Ok(crate::stats::median(&ns))
}

/// Per-layer metrics of one traced body, in catalog order.
///
/// `wall_untraced` / `wall_traced` are median body seconds of the
/// untraced and traced runs made beside it.
///
/// # Errors
///
/// When a replay or the timed checkpoint round trip fails outright.
pub fn per_layer(
    prepared: &Prepared,
    body: &Body,
    snap: &MetricsSnapshot,
    wall_untraced: f64,
    wall_traced: f64,
) -> Result<(Vec<Metric>, Vec<String>), String> {
    let span = |name: &str| {
        snap.span(name)
            .map_or((0u64, 0.0), |s| (s.count, s.total_ns as f64))
    };
    let counter = |name: &str| snap.counter(name).unwrap_or(0) as f64;
    let mut notes = Vec::new();

    // Layer replay, weighted by the factorizations each circuit's
    // Newton loop performed.
    let factorizations = counter(names::LU_FACTORIZATIONS);
    let mut parts: Vec<(Costs, f64)> = Vec::new();
    let mut problems = Vec::new();
    for (i, rc) in prepared.replay.iter().enumerate() {
        let job = body.jobs.get(i).and_then(|j| j.snapshot.as_ref());
        let weight = match job {
            Some(job) if !prepared.workload.uses_pool() => {
                job.counter(names::LU_FACTORIZATIONS).unwrap_or(0) as f64
            }
            _ => factorizations,
        };
        let r = replay::replay(rc)?;
        notes.push(format!(
            "replay {}: dim {} nnz {} fill {} — assemble {:.0} ns, to_csr {:.0} ns, sparse factor {:.0} ns, solve {:.0} ns, dense factor {:.0} ns",
            rc.label,
            r.costs.dim,
            r.costs.nnz,
            r.costs.fill_nnz,
            r.costs.assemble_ns,
            r.costs.to_csr_ns,
            r.costs.sparse_factor_ns,
            r.costs.solve_ns,
            r.costs.dense_factor_ns
        ));
        problems.extend(r.problems);
        parts.push((r.costs, weight));
    }
    let costs = Costs::weighted(&parts);
    let valid = problems.is_empty();
    for p in &problems {
        notes.push(format!("replay INVALID: {p}"));
    }

    let (tran_calls, tran_ns) = span(names::ANALYSIS_TRAN);
    let replayed_ns: f64 = parts.iter().map(|(c, w)| c.per_iteration_ns() * w).sum();
    let accounted = match prepared.replay.first().map(|rc| rc.newton) {
        Some(NewtonLoop::Tran { .. }) if tran_ns > 0.0 => replayed_ns / tran_ns,
        _ => 0.0,
    };

    // PSS: periods the relaxation needed, from the same call replayed
    // outside the trace (pss_power_mw returns only the power).
    let (pss_calls, pss_ns) = span(names::ANALYSIS_PSS);
    let mut periods = 0.0;
    let mut tran_points = body.tran_points as f64;
    if let Some(opts) = prepared.pss() {
        for rc in &prepared.replay {
            let pss = periodic_steady_state(&rc.circuit, opts)
                .map_err(|e| format!("{}: PSS replay: {e}", rc.label))?;
            periods += pss.periods_used as f64;
            tran_points += (pss.periods_used * pss.steps_per_period_used) as f64;
        }
    }

    let attempts = [
        counter(names::CONVERGENCE_ATTEMPTS_DIRECT),
        counter(names::CONVERGENCE_ATTEMPTS_GMIN_LADDER),
        counter(names::CONVERGENCE_ATTEMPTS_SOURCE_RAMP),
        counter(names::CONVERGENCE_ATTEMPTS_PSEUDO_TRANSIENT),
    ];
    let (op_calls, op_ns) = span(names::ANALYSIS_OP);
    let total_attempts: f64 = attempts.iter().sum();

    // Checkpoint round trip on the workload's own records.
    let (save_ns, load_ns) = if body.records.is_empty() {
        (0.0, 0.0)
    } else {
        let path = prepared.scratch.join("replay-checkpoint.json");
        let total = body.records.len();
        let config = vec![("corners".to_string(), total as f64)];
        let save = median_call_ns(|| {
            save_study_v3(&path, CHECKPOINT_STUDY, &config, total, &body.records).is_ok()
        })?;
        let load = median_call_ns(|| {
            load_study_v3(&path, CHECKPOINT_STUDY, &config, total).is_some_and(|r| r.len() == total)
        })?;
        let _ = std::fs::remove_file(&path);
        (save, load)
    };

    let (corner_count, corner_ns) = span(names::CORE_CORNERS_CORNER);
    let (zin_count, zin_ns) = span(names::TOPO_ZIN_POINT);
    let (_, pool_ns) = span(names::EXEC_POOL_RUN);
    let workers = if prepared.workload.uses_pool() {
        prepared.pool.parallelism.worker_count() as f64
    } else {
        0.0
    };
    let mean = |total_ns: f64, count: u64| {
        if count > 0 {
            total_ns / count as f64 / 1e9
        } else {
            0.0
        }
    };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };

    let all = [
        ("tran.calls", tran_calls as f64),
        ("tran.busy_s", tran_ns / 1e9),
        ("tran.points", tran_points),
        ("tran.ns_per_factorization", ratio(tran_ns, factorizations)),
        ("tran.accounted_frac", accounted),
        ("lu.factorizations", factorizations),
        ("lu.fill_nnz", snap.gauge(names::LU_FILL_NNZ).unwrap_or(0.0)),
        ("replay.valid", f64::from(u8::from(valid))),
        ("replay.dim", costs.dim),
        ("replay.nnz", costs.nnz),
        ("replay.fill_nnz", costs.fill_nnz),
        ("replay.to_csr_ns", costs.to_csr_ns),
        ("replay.sparse_factor_ns", costs.sparse_factor_ns),
        ("replay.rcond_ns", costs.rcond_ns),
        ("replay.solve_ns", costs.solve_ns),
        ("replay.dense_factor_ns", costs.dense_factor_ns),
        ("replay.assemble_ns", costs.assemble_ns),
        ("replay.mos_eval_ns", costs.mos_eval_ns),
        ("pss.busy_s", pss_ns / 1e9),
        (
            "pss.tran_calls",
            if pss_calls > 0 {
                tran_calls as f64
            } else {
                0.0
            },
        ),
        ("pss.periods_used", periods),
        (
            "pss.factorizations_per_period",
            ratio(factorizations, periods),
        ),
        ("op.calls", op_calls as f64),
        ("op.busy_s", op_ns / 1e9),
        (
            "op.newton_iterations",
            counter(names::CONVERGENCE_ITERATIONS),
        ),
        ("op.attempts.direct", attempts[0]),
        ("op.attempts.gmin_ladder", attempts[1]),
        ("op.attempts.source_ramp", attempts[2]),
        ("op.attempts.pseudo_transient", attempts[3]),
        (
            "op.direct_success_frac",
            ratio(op_calls as f64, total_attempts),
        ),
        ("ac.busy_s", span(names::ANALYSIS_AC).1 / 1e9),
        ("acnoise.busy_s", span(names::ANALYSIS_ACNOISE).1 / 1e9),
        ("dcsweep.busy_s", span(names::ANALYSIS_DCSWEEP).1 / 1e9),
        ("corners.computed", body.corners_computed as f64),
        ("corners.corner_s", mean(corner_ns, corner_count)),
        ("checkpoint.bytes", body.checkpoint_bytes as f64),
        ("checkpoint.save_ns", save_ns),
        ("checkpoint.load_ns", load_ns),
        ("pool.workers", workers),
        ("pool.busy_s", pool_ns / 1e9),
        (
            "pool.occupancy",
            ratio(corner_ns + zin_ns, pool_ns * workers),
        ),
        ("zin.points", zin_count as f64),
        ("zin.point_s", mean(zin_ns, zin_count)),
        (
            "trace_overhead_frac",
            (wall_traced - wall_untraced) / wall_untraced,
        ),
    ];
    notes.push(format!(
        "median body wall: untraced {wall_untraced} s, traced {wall_traced} s"
    ));
    let catalog: Vec<&str> = PER_LAYER.iter().map(|m| m.0).collect();
    let produced: Vec<&str> = all.iter().map(|m| m.0).collect();
    if produced != catalog {
        return Err("per-layer metrics out of step with the catalog".into());
    }
    let metrics = all
        .iter()
        .filter(|(name, _)| valid || !is_replay_metric(name))
        .map(|&(name, value)| Metric::new(name, value))
        .collect();
    Ok((metrics, notes))
}
