//! Conversion-gain measurement.
//!
//! Conversion gain of a down-converter is the ratio of the IF output
//! amplitude to the RF input amplitude, in dB. This module provides the
//! bookkeeping plus a tone reader for output sample records (behavioral
//! chains or circuit transients).

use remix_dsp::tone::tone_amplitude;

/// Conversion gain from input/output amplitudes (20·log10).
///
/// # Panics
///
/// Panics unless both amplitudes are positive.
pub fn conversion_gain_db(a_in: f64, a_out: f64) -> f64 {
    assert!(a_in > 0.0 && a_out > 0.0, "amplitudes must be positive");
    20.0 * (a_out / a_in).log10()
}

/// A single conversion-gain measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConvGainPoint {
    /// RF frequency (Hz).
    pub f_rf: f64,
    /// IF frequency (Hz).
    pub f_if: f64,
    /// Conversion gain (dB).
    pub gain_db: f64,
}

/// Measures the amplitude of an arbitrary (possibly off-plan) tone in the
/// tail of a record — convenience for LO-feedthrough checks.
pub fn measure_tone(output: &[f64], n: usize, f: f64, fs: f64) -> f64 {
    assert!(output.len() >= n);
    tone_amplitude(&output[output.len() - n..], f, fs)
}

/// The −3 dB band edges of a gain curve `(freqs, gain_db)`.
///
/// Returns `(low_edge, high_edge)`; either may be `None` when the curve
/// never drops 3 dB below its peak on that side.
pub fn band_edges_3db(freqs: &[f64], gain_db: &[f64]) -> (Option<f64>, Option<f64>) {
    assert_eq!(freqs.len(), gain_db.len());
    let (peak_idx, peak) = remix_numerics::interp::argmax(gain_db);
    let target = peak - 3.0;
    let low = if peak_idx > 0 {
        remix_numerics::interp::last_crossing(&freqs[..=peak_idx], &gain_db[..=peak_idx], target)
    } else {
        None
    };
    let high = if peak_idx + 1 < freqs.len() {
        remix_numerics::interp::first_crossing(&freqs[peak_idx..], &gain_db[peak_idx..], target)
    } else {
        None
    };
    (low, high)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gain_db_basics() {
        assert!((conversion_gain_db(0.01, 0.1) - 20.0).abs() < 1e-12);
        assert!((conversion_gain_db(0.1, 0.1) - 0.0).abs() < 1e-12);
        assert!(conversion_gain_db(0.1, 0.05) < 0.0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_amplitude() {
        let _ = conversion_gain_db(0.0, 1.0);
    }

    #[test]
    fn band_edges_of_bandpass_curve() {
        let freqs = [1e9, 2e9, 3e9, 4e9, 5e9, 6e9];
        let gain = [20.0, 28.0, 29.0, 29.0, 26.5, 20.0];
        let (lo, hi) = band_edges_3db(&freqs, &gain);
        let lo = lo.unwrap();
        let hi = hi.unwrap();
        assert!(lo > 1e9 && lo < 2e9, "lo = {lo:.3e}");
        assert!(hi > 5e9 && hi < 6e9, "hi = {hi:.3e}");
    }

    #[test]
    fn band_edges_monotone_curve() {
        // Monotonically falling: no low edge, a high edge.
        let freqs = [1.0, 2.0, 3.0];
        let gain = [10.0, 5.0, 0.0];
        let (lo, hi) = band_edges_3db(&freqs, &gain);
        assert!(lo.is_none());
        assert!((hi.unwrap() - 1.6).abs() < 1e-9);
    }

    #[test]
    fn measure_tone_offplan() {
        let fs = 1e9;
        let x = remix_dsp::signal::tone(0.25, 125e6, 0.0, fs, 4096);
        let a = measure_tone(&x, 4096, 125e6, fs);
        assert!((a - 0.25).abs() < 1e-9);
    }
}
