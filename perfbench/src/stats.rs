//! Order statistics, batched call timing and the metric-name grammar.

use std::hint::black_box;
use std::time::Instant;

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
///
/// If `values` is empty or holds a NaN.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// First quartile, median and third quartile, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (the default
/// "exclusive" method) computes the cut points. A single value is its
/// own quartiles.
///
/// # Panics
///
/// If `values` is empty or holds a NaN.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let s = sorted(values);
    let ld = s.len();
    if ld == 1 {
        return [s[0]; 3];
    }
    // Exact integer index arithmetic; `delta` goes negative (or past
    // `n`) at the clamped ends, extrapolating like Python does.
    let (ld, m, n) = (ld as i64, ld as i64 + 1, 4i64);
    let mut out = [0.0; 3];
    for (k, slot) in out.iter_mut().enumerate() {
        let i = k as i64 + 1;
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m - j * n) as f64;
        let (lo, hi) = (s[j as usize - 1], s[j as usize]);
        *slot = (lo * (n as f64 - delta) + hi * delta) / n as f64;
    }
    out
}

/// Inter-quartile distance as a share of the median: the spread the
/// benchmark's bounds are judged against.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2.abs()
}

/// Median seconds per call of `f` over `batches` batches, each repeating
/// `f` often enough to last at least `batch_s` (calibrated on one timed
/// call after a warm-up call): short calls are timed in bulk, so neither
/// the timer's resolution nor one preempted call sets the figure.
pub fn per_call_s<T>(batches: usize, batch_s: f64, mut f: impl FnMut() -> T) -> f64 {
    black_box(f());
    let t = Instant::now();
    black_box(f());
    let once = t.elapsed().as_secs_f64().max(1e-8);
    let reps = ((batch_s / once).ceil() as usize).clamp(1, 1_000_000);
    let per_call: Vec<f64> = (0..batches)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..reps {
                black_box(f());
            }
            t.elapsed().as_secs_f64() / reps as f64
        })
        .collect();
    median(&per_call)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of no values");
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("order statistic of a NaN"));
    s
}

/// Whether `name` is a valid metric or workload name: 1 to 64 of
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok_char)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// Whether `unit` is a valid unit: 1 to 16 of `[A-Za-z0-9_/%.-]`.
pub fn valid_unit(unit: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-');
    (1..=16).contains(&unit.len()) && unit.chars().all(ok_char)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.5]), 7.5);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 1.0, 4.0, 2.0, 3.0]), [1.5, 3.0, 4.5]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([2, 4, 8], n=4) == [2.0, 4.0, 8.0]
        assert_eq!(quartiles(&[8.0, 2.0, 4.0]), [2.0, 4.0, 8.0]);
    }

    #[test]
    fn spread_is_iqr_over_median() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((relative_spread(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(relative_spread(&[2.0; 10]), 0.0);
    }

    #[test]
    fn per_call_s_times_whole_batches() {
        let mut calls = 0u64;
        let s = per_call_s(5, 1e-3, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_micros(200));
        });
        // Warm-up and calibration, then 5 batches of ceil(1 ms / once).
        assert!(
            calls >= 2 + 5 && (calls - 2).is_multiple_of(5),
            "{calls} calls"
        );
        assert!((200e-6..50e-3).contains(&s), "{s} s per call");
    }

    #[test]
    fn name_grammar() {
        for ok in [
            "wall_s",
            "tran.busy_s",
            "op.attempts.gmin_ladder",
            "0x",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in [
            "",
            ".lead",
            "_lead",
            "has space",
            "a/b",
            "ünï",
            &"x".repeat(65),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for ok in ["s", "ms", "1/s", "%", "count", "frac", "MB"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "m s", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }
}
