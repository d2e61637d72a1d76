//! Guard-rail tests for the telemetry layer's two core promises:
//!
//! 1. Disabled (or no-op-sink) telemetry is cheap enough to leave the
//!    instrumentation hooks in hot numerical loops permanently.
//! 2. Arming telemetry observes a solve without perturbing it — the
//!    Newton iteration count and the solution are bit-identical with
//!    and without an armed context.

#![allow(clippy::unwrap_used, clippy::expect_used)] // test code: panicking on setup failure is the point
use remix::analysis::{dc_operating_point, OpOptions};
use remix::core::mixer::{LoDrive, ReconfigurableMixer, RfDrive};
use remix::core::{MixerConfig, MixerMode};
use remix::telemetry::{MemorySink, Telemetry};
use std::sync::Arc;
use std::time::Instant;

/// A million relaxed-atomic increments through a pre-fetched handle —
/// the pattern the solver hot loops use — must stay far below human
/// (and CI) perception. The bound is deliberately generous: this test
/// exists to catch a mutex or allocation sneaking into [`Counter::add`],
/// which would blow past it by orders of magnitude, not to benchmark.
#[test]
fn noop_sink_counter_hot_loop_is_cheap() {
    let telemetry = Telemetry::new(); // NoopSink: nothing observes
    let _guard = telemetry.arm();
    let counter = remix::telemetry::counter("overhead.test.increments");
    let _span = remix::telemetry::span("overhead.test.loop");
    let start = Instant::now();
    for _ in 0..1_000_000 {
        counter.add(1);
    }
    let elapsed = start.elapsed();
    assert_eq!(
        telemetry.snapshot().counter("overhead.test.increments"),
        Some(1_000_000)
    );
    assert!(
        elapsed.as_secs_f64() < 2.0,
        "1e6 counter increments took {elapsed:?}; the disabled-telemetry \
         hot path regressed from a relaxed atomic add"
    );
}

/// Hooks that fire while no context is armed must also stay near-free:
/// the disarmed check is one thread-local read.
#[test]
fn disarmed_hooks_are_cheap() {
    assert!(!remix::telemetry::is_armed());
    let start = Instant::now();
    for _ in 0..1_000_000 {
        remix::telemetry::counter_add("overhead.test.disarmed", 1);
    }
    let elapsed = start.elapsed();
    assert!(
        elapsed.as_secs_f64() < 2.0,
        "1e6 disarmed hook calls took {elapsed:?}"
    );
}

/// Observation must not perturb the observed solve: the full-mixer
/// operating point converges in the same number of Newton iterations to
/// the same solution whether or not telemetry is armed, and the armed
/// run's metrics actually recorded the work.
#[test]
fn armed_newton_matches_disarmed_newton() {
    let mixer = ReconfigurableMixer::new(MixerConfig::default());
    let (ckt, _) = mixer.build(MixerMode::Active, &RfDrive::Bias, &LoDrive::held(2.4e9));

    let plain = dc_operating_point(&ckt, &OpOptions::default()).unwrap();

    let sink = Arc::new(MemorySink::new());
    let telemetry = Telemetry::with_sink(sink.clone());
    let observed = {
        let _guard = telemetry.arm();
        dc_operating_point(&ckt, &OpOptions::default()).unwrap()
    };

    assert_eq!(plain.iterations, observed.iterations);
    assert_eq!(plain.solution, observed.solution);

    let snap = telemetry.snapshot();
    let iters = snap
        .counter("remix.analysis.convergence.iterations")
        .expect("armed solve should record homotopy iterations");
    assert_eq!(iters, observed.iterations as u64);
    let op_span = snap
        .span("remix.analysis.op")
        .expect("armed solve should record an op span");
    assert!(op_span.count >= 1);
    assert!(
        snap.counter("remix.numerics.lu.factorizations")
            .unwrap_or(0)
            > 0,
        "armed solve should count LU factorizations"
    );
    // The Newton kernel counts every iteration once; each makes exactly
    // one successful factorization on a clean solve.
    let newton = snap.counter("remix.analysis.newton.iterations");
    assert_eq!(newton, Some(iters));
    assert_eq!(newton, snap.counter("remix.numerics.lu.factorizations"));
}
