//! Cross-level validation: the transistor-level netlist and the
//! extracted behavioral model must tell the same story.
//!
//! These are the most expensive tests in the repository (full transient
//! simulation of the ~40-device mixer through hundreds of LO cycles) and
//! the strongest evidence that the behavioral sweeps regenerating the
//! paper's figures are anchored in the circuit.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point
use remix::core::{eval::MixerEvaluator, MixerConfig, MixerMode};
use std::sync::OnceLock;

fn eval() -> &'static MixerEvaluator {
    static CACHE: OnceLock<MixerEvaluator> = OnceLock::new();
    CACHE.get_or_init(|| MixerEvaluator::new(&MixerConfig::default()).expect("extraction"))
}

/// Transistor-level transient conversion gain vs the behavioral model at
/// a sub-band spot (480 MHz LO keeps the step count tractable while
/// staying inside the passive band).
#[test]
fn circuit_vs_behavioral_conv_gain_passive() {
    let f_lo = 480e6;
    let f_if = 5e6;
    let circuit_db = eval()
        .circuit_conv_gain_spot(MixerMode::Passive, f_lo, f_if)
        .expect("transient");
    let model_db = eval()
        .model(MixerMode::Passive)
        .conv_gain_db(f_lo + f_if, f_if);
    assert!(
        (circuit_db - model_db).abs() < 3.0,
        "circuit {circuit_db:.1} dB vs behavioral {model_db:.1} dB"
    );
    // Exact pin of the transistor-level number itself.
    assert!(
        (circuit_db - 23.25).abs() < 0.01,
        "passive circuit gain {circuit_db:.4} dB moved from 23.25 dB"
    );
}

#[test]
fn circuit_vs_behavioral_conv_gain_active() {
    let f_lo = 1.2e9;
    let f_if = 5e6;
    let circuit_db = eval()
        .circuit_conv_gain_spot(MixerMode::Active, f_lo, f_if)
        .expect("transient");
    let model_db = eval()
        .model(MixerMode::Active)
        .conv_gain_db(f_lo + f_if, f_if);
    assert!(
        (circuit_db - model_db).abs() < 3.0,
        "circuit {circuit_db:.1} dB vs behavioral {model_db:.1} dB"
    );
    // Exact pin of the transistor-level number itself.
    assert!(
        (circuit_db - 28.49).abs() < 0.01,
        "active circuit gain {circuit_db:.4} dB moved from 28.49 dB"
    );
}

/// The mode switch itself, exercised at transistor level: the same
/// netlist topology with only control voltages changed must show the
/// gain ordering (this is the paper's central reconfigurability claim).
#[test]
fn transistor_level_mode_switch_orders_gain() {
    let f_lo = 1.2e9;
    let f_if = 5e6;
    let ga = eval()
        .circuit_conv_gain_spot(MixerMode::Active, f_lo, f_if)
        .expect("active transient");
    let gp = eval()
        .circuit_conv_gain_spot(MixerMode::Passive, f_lo, f_if)
        .expect("passive transient");
    assert!(
        ga > gp,
        "transistor level: active {ga:.1} dB must exceed passive {gp:.1} dB"
    );
    // Both modes actually convert (not just leakage).
    assert!(ga > 15.0, "active converts: {ga:.1} dB");
    assert!(gp > 10.0, "passive converts: {gp:.1} dB");
}

/// LO and RF feedthrough: a double-balanced mixer suppresses both ports
/// at the IF output; the wanted IF tone must dominate by a wide margin.
#[test]
fn port_isolation_double_balanced() {
    for (mode, f_lo) in [(MixerMode::Passive, 0.48e9), (MixerMode::Active, 1.2e9)] {
        let (cg, lo_rej, rf_rej) = eval()
            .port_isolation(mode, f_lo, 5e6)
            .expect("isolation transient");
        assert!(cg > 10.0, "{}: CG {cg:.1} dB", mode.label());
        assert!(
            lo_rej > 20.0,
            "{}: LO leakage only {lo_rej:.1} dBc below IF",
            mode.label()
        );
        assert!(
            rf_rej > 20.0,
            "{}: RF feedthrough only {rf_rej:.1} dBc below IF",
            mode.label()
        );
    }
}

/// The headline claim, live: one netlist, controls flipped mid-transient,
/// both modes convert in their own half of the run.
#[test]
fn live_mode_switch_reconfigures() {
    let (cg_passive, cg_active) = eval()
        .mode_switch_transient(MixerMode::Passive, MixerMode::Active, 1.2e9, 5e6)
        .expect("mode-switch transient");
    // Each half must actually convert…
    assert!(cg_passive > 15.0, "passive half: {cg_passive:.1} dB");
    assert!(cg_active > 15.0, "active half: {cg_active:.1} dB");
    // …and the active half out-gains the passive half, as in steady state.
    assert!(
        cg_active > cg_passive,
        "after switching: active {cg_active:.1} vs passive {cg_passive:.1}"
    );
}
