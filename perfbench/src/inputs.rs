//! Seed → generated inputs. The library under test receives only what
//! these functions return; the same seed always yields the same inputs,
//! and [`DEFAULT_SEED`] reproduces the inputs of the existing bench bins
//! (`spot_transient`, `table1`, `corners`, `npath_zin`).
//!
//! Every grid is chosen so that a seed moves *which* inputs run but not
//! *how much* work they cost: the step count of a transient point is
//! fixed, the PSS grid holds LO frequencies that converge in the same
//! number of relaxation rounds, the corner set has a fixed size, and the
//! N-path LO grid is the same for every probe bin.

use remix_core::corners::{Corner, ProcessCorner};
use remix_core::MixerMode;
use remix_topo::ZinConfig;

/// The seed whose inputs are the existing bins' inputs.
pub const DEFAULT_SEED: u64 = 0;

/// IF of every transient conversion-gain point (Hz).
pub const F_IF: f64 = 5e6;

/// `spot_transient`'s four `(mode, f_LO)` points.
pub const SPOT_POINTS: [(MixerMode, f64); 4] = [
    (MixerMode::Passive, 0.48e9),
    (MixerMode::Passive, 1.2e9),
    (MixerMode::Active, 1.2e9),
    (MixerMode::Active, 2.4e9),
];

/// Relative f_LO offsets a seed picks from, independently per spot
/// point: ±2 % in 0.5 % steps keeps every point in band and the
/// circuit-vs-model gap inside the 3 dB check.
pub const TRAN_LO_GRID: [f64; 9] = [-0.02, -0.015, -0.01, -0.005, 0.0, 0.005, 0.01, 0.015, 0.02];

/// `table1`'s PSS LO frequency (Hz).
pub const PSS_DEFAULT_LO: f64 = 0.48e9;

/// Sub-band PSS LO frequencies (Hz) a seed picks from: the stretch
/// below `table1`'s point where both modes converge in the same number
/// of relaxation rounds (active 6, passive 4), so every choice costs
/// the same factorizations to within 3 %.
pub const PSS_LO_GRID: [f64; 5] = [0.46e9, 0.465e9, 0.47e9, 0.475e9, 0.48e9];

/// Temperatures (°C) of the corner grid: −40 … 125 °C in 5 °C steps.
/// FS at 15 and 20 °C exhausts the operating-point ladder today (a solver
/// defect, not fixed here); those two corners fail on every seed and are
/// counted in `failed`, and they are where the gmin, source-ramp and
/// pseudo-transient stages run longest.
pub fn corner_temps() -> Vec<f64> {
    (0..=33).map(|k| -40.0 + 5.0 * f64::from(k)).collect()
}

/// N-path probe-bin offsets a seed picks from (grid bins around 10).
pub const NPATH_PROBE_OFFSETS: [i64; 3] = [-1, 0, 1];

/// SplitMix64: a tiny, well-mixed, seedable generator.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// A generator for `seed` salted by the input family, so families
    /// draw independent streams from one seed.
    pub fn new(seed: u64, salt: u64) -> Self {
        SplitMix64(seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A uniform index below `n` (`n` > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// `tran_mixer`: the `(mode, f_LO)` points, two per mode.
pub fn tran_points(seed: u64) -> Vec<(MixerMode, f64)> {
    if seed == DEFAULT_SEED {
        return SPOT_POINTS.to_vec();
    }
    let mut rng = SplitMix64::new(seed, 1);
    SPOT_POINTS
        .iter()
        .map(|&(mode, f)| {
            let offset = TRAN_LO_GRID[rng.below(TRAN_LO_GRID.len())];
            (mode, f * (1.0 + offset))
        })
        .collect()
}

/// `pss_mixer`: the sub-band LO frequency both modes run at.
pub fn pss_lo(seed: u64) -> f64 {
    if seed == DEFAULT_SEED {
        return PSS_DEFAULT_LO;
    }
    PSS_LO_GRID[SplitMix64::new(seed, 2).below(PSS_LO_GRID.len())]
}

/// The `corners` bin's seven corners: every process corner at 27 °C
/// plus TT cold and hot.
pub fn bin_corners() -> Vec<Corner> {
    let mut corners = Vec::new();
    for process in ProcessCorner::all() {
        for temp_c in [-40.0, 27.0, 85.0] {
            if process != ProcessCorner::Tt && temp_c != 27.0 {
                continue;
            }
            corners.push(Corner {
                process,
                temp_c,
                vdd: None,
            });
        }
    }
    corners
}

/// `extract_corners`: the bin's seven corners followed by every process
/// corner at every [`corner_temps`] temperature (nominal supply), in a
/// seeded order. The set, and so the work, is the same for every seed;
/// the seed moves the order in which the pool meets the corners.
pub fn corners(seed: u64) -> Vec<Corner> {
    let mut grid: Vec<Corner> = ProcessCorner::all()
        .into_iter()
        .flat_map(|process| {
            corner_temps().into_iter().map(move |temp_c| Corner {
                process,
                temp_c,
                vdd: None,
            })
        })
        .collect();
    let mut rng = SplitMix64::new(seed, 3);
    for i in (1..grid.len()).rev() {
        grid.swap(i, rng.below(i + 1));
    }
    let mut out = bin_corners();
    out.extend(grid);
    out
}

/// `npath_zin`: the LO sweep. The seed moves the probe bin by at most
/// one grid bin; the LO grid stays `npath_zin`'s 6 … 14 MHz, so the
/// probe lands at another offset inside it and every seed integrates
/// the same LO points.
pub fn zin_config(seed: u64) -> ZinConfig {
    let base = ZinConfig::centered(1e6, 10, 4);
    if seed == DEFAULT_SEED {
        return base;
    }
    let offset = NPATH_PROBE_OFFSETS[SplitMix64::new(seed, 4).below(NPATH_PROBE_OFFSETS.len())];
    ZinConfig {
        rf_bin: (10 + offset) as usize,
        ..base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_seed_reproduces_the_bins() {
        assert_eq!(tran_points(DEFAULT_SEED), SPOT_POINTS.to_vec());
        assert_eq!(pss_lo(DEFAULT_SEED), 0.48e9);
        assert_eq!(zin_config(DEFAULT_SEED), ZinConfig::centered(1e6, 10, 4));
        let corners = corners(DEFAULT_SEED);
        assert_eq!(corners.len(), 7 + 5 * 34);
        let bin = bin_corners();
        assert_eq!(bin.len(), 7);
        assert_eq!(&corners[..7], &bin[..]);
    }

    #[test]
    fn same_seed_same_inputs() {
        for seed in [1, 2, 17, u64::MAX] {
            assert_eq!(tran_points(seed), tran_points(seed));
            assert_eq!(pss_lo(seed), pss_lo(seed));
            assert_eq!(corners(seed), corners(seed));
            assert_eq!(zin_config(seed), zin_config(seed));
        }
    }

    #[test]
    fn seeds_stay_on_their_grids() {
        for seed in 1..200u64 {
            for ((mode, f), (nominal_mode, nominal)) in tran_points(seed).iter().zip(SPOT_POINTS) {
                assert_eq!(*mode, nominal_mode);
                assert!(TRAN_LO_GRID
                    .iter()
                    .any(|o| (f / nominal - 1.0 - o).abs() < 1e-12));
            }
            assert!(PSS_LO_GRID.contains(&pss_lo(seed)));
            let mut seeded = corners(seed)[7..].to_vec();
            let mut reference = corners(DEFAULT_SEED)[7..].to_vec();
            let key = |c: &Corner| (c.process.label(), (c.temp_c * 10.0) as i64);
            seeded.sort_by_key(key);
            reference.sort_by_key(key);
            assert_eq!(seeded, reference, "same corner set for every seed");
            for temp_c in [15.0, 20.0] {
                let fs = Corner {
                    process: ProcessCorner::Fs,
                    temp_c,
                    vdd: None,
                };
                assert!(seeded.contains(&fs), "FS {temp_c} °C runs on every seed");
            }
            assert!(seeded
                .iter()
                .all(|c| c.vdd.is_none() && corner_temps().contains(&c.temp_c)));
            let zin = zin_config(seed);
            assert_eq!(zin.lo_bins, (6..=14).collect::<Vec<_>>());
            assert!((9..=11).contains(&zin.rf_bin));
        }
    }

    #[test]
    fn seeds_vary_the_inputs() {
        let distinct = |f: &dyn Fn(u64) -> String| {
            let mut seen: Vec<String> = (1..50u64).map(f).collect();
            seen.sort();
            seen.dedup();
            seen.len()
        };
        assert!(distinct(&|s| format!("{:?}", tran_points(s))) > 10);
        assert!(distinct(&|s| format!("{:?}", corners(s))) > 10);
        assert_eq!(distinct(&|s| format!("{}", pss_lo(s))), PSS_LO_GRID.len());
        assert_eq!(distinct(&|s| format!("{}", zin_config(s).rf_bin)), 3);
    }
}
