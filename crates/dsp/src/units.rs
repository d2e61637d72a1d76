//! RF unit conversions and newtypes.
//!
//! The measurement layer traffics in dB quantities referenced to different
//! bases (dBm into 50 Ω, plain ratios). Newtypes keep them from being
//! mixed up (the API guidelines’ newtype advice).

use std::fmt;
use std::ops::{Add, Sub};

/// Reference impedance for power conversions (Ω).
pub const Z0: f64 = 50.0;

/// Boltzmann constant (J/K).
pub const BOLTZMANN: f64 = 1.380649e-23;

/// Standard noise-figure reference temperature (K).
pub const T0: f64 = 290.0;

/// Converts decibels to a power ratio.
#[inline]
pub fn db_to_ratio(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts decibels to an amplitude ratio.
#[inline]
pub fn db_to_amplitude(db: f64) -> f64 {
    10f64.powf(db / 20.0)
}

/// Watts → dBm.
#[inline]
pub fn watts_to_dbm(w: f64) -> f64 {
    10.0 * (w / 1e-3).log10()
}

/// dBm → watts.
#[inline]
pub fn dbm_to_watts(dbm: f64) -> f64 {
    1e-3 * 10f64.powf(dbm / 10.0)
}

/// Peak sinusoid amplitude (V) into `z` ohms → dBm.
///
/// `P = Vpk²/(2·z)`.
#[inline]
pub fn vpeak_to_dbm(vpk: f64, z: f64) -> f64 {
    watts_to_dbm(vpk * vpk / (2.0 * z))
}

/// dBm → peak sinusoid amplitude (V) into `z` ohms.
#[inline]
pub fn dbm_to_vpeak(dbm: f64, z: f64) -> f64 {
    (2.0 * z * dbm_to_watts(dbm)).sqrt()
}

/// A frequency in hertz (newtype over `f64`).
///
/// # Examples
///
/// ```
/// use remix_dsp::units::Freq;
/// let f = Freq::ghz(2.45);
/// assert_eq!(f.in_hz(), 2.45e9);
/// assert_eq!(f.in_mhz(), 2450.0);
/// assert_eq!(format!("{f}"), "2.45 GHz");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Freq(f64);

impl Freq {
    /// From hertz.
    pub const fn hz(v: f64) -> Self {
        Freq(v)
    }
    /// From kilohertz.
    pub fn khz(v: f64) -> Self {
        Freq(v * 1e3)
    }
    /// From megahertz.
    pub fn mhz(v: f64) -> Self {
        Freq(v * 1e6)
    }
    /// From gigahertz.
    pub fn ghz(v: f64) -> Self {
        Freq(v * 1e9)
    }
    /// In hertz.
    pub fn in_hz(self) -> f64 {
        self.0
    }
    /// In megahertz.
    pub fn in_mhz(self) -> f64 {
        self.0 / 1e6
    }
    /// Angular frequency ω = 2πf (rad/s).
    pub fn omega(self) -> f64 {
        2.0 * std::f64::consts::PI * self.0
    }
}

impl Add for Freq {
    type Output = Freq;
    fn add(self, rhs: Freq) -> Freq {
        Freq(self.0 + rhs.0)
    }
}

impl Sub for Freq {
    type Output = Freq;
    fn sub(self, rhs: Freq) -> Freq {
        Freq(self.0 - rhs.0)
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let v = self.0;
        if v.abs() >= 1e9 {
            write!(f, "{} GHz", v / 1e9)
        } else if v.abs() >= 1e6 {
            write!(f, "{} MHz", v / 1e6)
        } else if v.abs() >= 1e3 {
            write!(f, "{} kHz", v / 1e3)
        } else {
            write!(f, "{v} Hz")
        }
    }
}

/// A power level in dBm (newtype over `f64`).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct PowerDbm(pub f64);

impl PowerDbm {
    /// Creates from a dBm value.
    pub const fn new(dbm: f64) -> Self {
        PowerDbm(dbm)
    }
    /// The dBm value.
    pub fn dbm(self) -> f64 {
        self.0
    }
    /// In watts.
    pub fn watts(self) -> f64 {
        dbm_to_watts(self.0)
    }
}

impl fmt::Display for PowerDbm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} dBm", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_to_ratios() {
        assert!((db_to_ratio(3.0) - 1.995).abs() < 1e-2);
        assert!((db_to_amplitude(6.0) - 1.995).abs() < 1e-2);
    }

    #[test]
    fn dbm_watts() {
        assert!((watts_to_dbm(1e-3) - 0.0).abs() < 1e-12);
        assert!((watts_to_dbm(1.0) - 30.0).abs() < 1e-12);
        assert!((dbm_to_watts(0.0) - 1e-3).abs() < 1e-18);
    }

    #[test]
    fn dbm_vpeak_50ohm() {
        // 0 dBm into 50 Ω: Vpk = sqrt(2·50·1mW) = 0.3162 V.
        let v = dbm_to_vpeak(0.0, Z0);
        assert!((v - 0.31622776601683794).abs() < 1e-12);
        assert!((vpeak_to_dbm(v, Z0) - 0.0).abs() < 1e-12);
    }

    #[test]
    fn freq_constructors_and_display() {
        assert_eq!(Freq::khz(1.0).in_hz(), 1e3);
        assert_eq!(Freq::mhz(5.0).in_hz(), 5e6);
        assert_eq!(Freq::ghz(2.4).in_hz(), 2.4e9);
        assert_eq!(Freq::hz(10.0).to_string(), "10 Hz");
        assert_eq!(Freq::khz(100.0).to_string(), "100 kHz");
        assert_eq!(Freq::mhz(5.0).to_string(), "5 MHz");
        assert_eq!(Freq::ghz(2.4).to_string(), "2.4 GHz");
    }

    #[test]
    fn freq_arithmetic() {
        let lo = Freq::ghz(2.4);
        let if_f = Freq::mhz(5.0);
        assert_eq!((lo + if_f).in_hz(), 2.405e9);
        assert_eq!((lo - if_f).in_hz(), 2.395e9);
        assert!((Freq::hz(1.0).omega() - 2.0 * std::f64::consts::PI).abs() < 1e-12);
    }

    #[test]
    fn power_dbm_type() {
        let p = PowerDbm::new(-10.0);
        assert_eq!(p.dbm(), -10.0);
        assert!((p.watts() - 1e-4).abs() < 1e-12);
        assert_eq!(p.to_string(), "-10.00 dBm");
        assert!(PowerDbm::new(0.0) > p);
    }
}
