//! Profile ↔ cache-simulator calibration.
//!
//! A [`crate::core_model::CoreModel`] can source its miss rates either from
//! the profile's paper-shaped constants (deterministic, the default for
//! experiments) or from *measurement*: running the benchmark's synthetic
//! address stream through the real cache hierarchy. The measured path keeps
//! the substrate honest — the working-set and locality parameters must
//! actually produce the claimed cache behaviour — and is compared against
//! the constants in tests and in an ablation bench.

use crate::cache::{Cache, Hierarchy};
use crate::config::CacheConfig;
use cpm_workloads::{AddressStream, BenchmarkProfile};

/// Memory references per kilo-instruction assumed by the calibrator
/// (≈ 30 % loads+stores — the standard x86 integer mix).
pub const REFS_PER_KILO_INSTRUCTION: f64 = 300.0;

/// Reference count for the warmup pass.
const WARMUP_REFS: usize = 60_000;
/// Reference count for the measurement pass.
const MEASURE_REFS: usize = 200_000;

/// Miss rates measured by driving the cache simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MeasuredRates {
    /// L1 misses per kilo-instruction.
    pub l1_mpki: f64,
    /// L2 misses per kilo-instruction (DRAM accesses).
    pub l2_mpki: f64,
    /// Raw L1 miss ratio.
    pub l1_miss_ratio: f64,
    /// Raw local L2 miss ratio (of L1 misses).
    pub l2_miss_ratio: f64,
}

/// Runs `profile`'s address stream through a fresh hierarchy and reports
/// measured miss rates. A pure function of (profile, cache config, seed):
/// the stream is seeded deterministically and the hierarchy starts cold.
pub fn calibrate(profile: &BenchmarkProfile, cache: &CacheConfig, seed: u64) -> MeasuredRates {
    let mut h = Hierarchy::new(cache);
    let mut stream = AddressStream::new(profile, seed);
    for _ in 0..WARMUP_REFS {
        h.access(stream.next_address());
    }
    h.reset_stats();
    for _ in 0..MEASURE_REFS {
        h.access(stream.next_address());
    }
    let l1_ratio = h.l1.miss_ratio();
    let l2_ratio = h.l2.miss_ratio();
    MeasuredRates {
        l1_mpki: REFS_PER_KILO_INSTRUCTION * l1_ratio,
        l2_mpki: REFS_PER_KILO_INSTRUCTION * l1_ratio * l2_ratio,
        l1_miss_ratio: l1_ratio,
        l2_miss_ratio: l2_ratio,
    }
}

/// Calibrates a *co-running group* that shares one physically-unified L2:
/// each core keeps its private L1, but all L1 misses compete for a single
/// L2 of `l2_bytes_per_core × n` bytes. Streams are interleaved
/// round-robin (the per-interval interleaving a real shared cache sees),
/// so cache-hungry neighbours evict each other's lines — the destructive
/// interference a per-core-slice model cannot show.
///
/// Address streams are offset per core so distinct cores never alias the
/// same lines.
pub fn calibrate_shared(
    profiles: &[BenchmarkProfile],
    cache: &CacheConfig,
    seed: u64,
) -> Vec<MeasuredRates> {
    assert!(!profiles.is_empty(), "need at least one co-runner");
    let n = profiles.len();
    let shared_l2_bytes = cache.l2_bytes_per_core * n;
    let mut l1s: Vec<Cache> = (0..n)
        .map(|_| Cache::new(cache.l1_bytes, cache.l1_ways, cache.line_bytes))
        .collect();
    let mut l2 = Cache::new(shared_l2_bytes, cache.l2_ways, cache.line_bytes);
    let mut streams: Vec<AddressStream> = profiles
        .iter()
        .enumerate()
        .map(|(i, p)| AddressStream::new(p, seed.wrapping_add(i as u64)))
        .collect();
    // Each core's addresses live in a disjoint 1 TiB region so distinct
    // cores never alias the same lines.
    let place = |i: usize, a: u64| a + ((i as u64) << 40);
    // Track per-core L2 stats by hand (the shared cache's counters mix
    // everyone together).
    let mut l1_miss = vec![0u64; n];
    let mut l2_miss = vec![0u64; n];
    let mut refs = vec![0u64; n];
    let total = (WARMUP_REFS + MEASURE_REFS) * n;
    for k in 0..total {
        let i = k % n;
        let addr = place(i, streams[i].next_address());
        let warm = k < WARMUP_REFS * n;
        if !warm {
            refs[i] += 1;
        }
        if !l1s[i].access(addr) {
            let hit = l2.access(addr);
            if !warm {
                l1_miss[i] += 1;
                if !hit {
                    l2_miss[i] += 1;
                }
            }
        }
    }
    (0..n)
        .map(|i| {
            let l1_ratio = l1_miss[i] as f64 / refs[i].max(1) as f64;
            let l2_local = if l1_miss[i] == 0 {
                0.0
            } else {
                l2_miss[i] as f64 / l1_miss[i] as f64
            };
            MeasuredRates {
                l1_mpki: REFS_PER_KILO_INSTRUCTION * l1_ratio,
                l2_mpki: REFS_PER_KILO_INSTRUCTION * l1_ratio * l2_local,
                l1_miss_ratio: l1_ratio,
                l2_miss_ratio: l2_local,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cpm_workloads::{parsec, InputSet};

    fn cfg() -> CacheConfig {
        CacheConfig::paper_default()
    }

    #[test]
    fn small_working_set_fits_in_l2() {
        // blackscholes (2 MB working set > 512 KB slice, but heavy temporal
        // reuse) should show far lower DRAM traffic than canneal.
        let bs = calibrate(&parsec::blackscholes(), &cfg(), 1);
        let cn = calibrate(&parsec::canneal(), &cfg(), 1);
        assert!(
            cn.l2_mpki > 2.0 * bs.l2_mpki,
            "canneal {} vs blackscholes {}",
            cn.l2_mpki,
            bs.l2_mpki
        );
    }

    #[test]
    fn native_input_increases_measured_dram_traffic() {
        let sim_large = calibrate(&parsec::facesim(), &cfg(), 2);
        let native = calibrate(&parsec::facesim().with_input(InputSet::Native), &cfg(), 2);
        assert!(
            native.l2_mpki > sim_large.l2_mpki,
            "native {} ≤ sim-large {}",
            native.l2_mpki,
            sim_large.l2_mpki
        );
    }

    #[test]
    fn measured_rates_are_internally_consistent() {
        for p in parsec::all() {
            let r = calibrate(&p, &cfg(), 3);
            assert!(r.l1_mpki >= r.l2_mpki, "{}: L2 ⊆ L1 misses", p.name);
            assert!((0.0..=1.0).contains(&r.l1_miss_ratio));
            assert!((0.0..=1.0).contains(&r.l2_miss_ratio));
            assert!(r.l1_mpki <= REFS_PER_KILO_INSTRUCTION);
        }
    }

    #[test]
    fn shared_l2_interference_hurts_the_small_working_set() {
        // blackscholes solo vs blackscholes co-running with three copies of
        // native canneal in one shared L2: the hog evicts the victim's
        // resident set and its DRAM traffic rises.
        let cfg = cfg();
        let victim = parsec::blackscholes();
        let hog = parsec::canneal().with_input(InputSet::Native);
        let solo = calibrate_shared(std::slice::from_ref(&victim), &cfg, 5)[0];
        let together = calibrate_shared(&[victim, hog.clone(), hog.clone(), hog], &cfg, 5)[0];
        // LRU protects the victim's frequently re-touched hot set fairly
        // well, so the interference is measurable but not catastrophic.
        assert!(
            together.l2_mpki > 1.08 * solo.l2_mpki,
            "co-running L2 MPKI {} vs solo {}",
            together.l2_mpki,
            solo.l2_mpki
        );
    }

    #[test]
    fn shared_calibration_of_one_matches_private_shape() {
        // A single "co-runner" sees the same geometry as the private-slice
        // path; measured rates should land close.
        let cfg = cfg();
        let p = parsec::freqmine();
        let private = calibrate(&p, &cfg, 9);
        let shared = calibrate_shared(&[p], &cfg, 9)[0];
        assert!(
            (shared.l1_miss_ratio - private.l1_miss_ratio).abs() < 0.05,
            "L1 ratios diverge: {} vs {}",
            shared.l1_miss_ratio,
            private.l1_miss_ratio
        );
    }

    #[test]
    fn calibration_is_deterministic_per_seed() {
        let a = calibrate(&parsec::vips(), &cfg(), 9);
        let b = calibrate(&parsec::vips(), &cfg(), 9);
        assert_eq!(a, b);
    }

    #[test]
    fn measured_class_ordering_matches_profile_intent() {
        // The measured DRAM traffic should rank the M-role natives above
        // the C-role sim-large benchmarks — the substrate agrees with the
        // constants on who is memory-bound.
        let c_role: f64 = ["bschls", "btrack", "fmine", "x264"]
            .iter()
            .map(|s| calibrate(&parsec::by_short(s).unwrap(), &cfg(), 4).l2_mpki)
            .sum::<f64>()
            / 4.0;
        let m_role: f64 = ["sclust", "fsim", "canneal", "vips"]
            .iter()
            .map(|s| {
                calibrate(
                    &parsec::by_short(s).unwrap().with_input(InputSet::Native),
                    &cfg(),
                    4,
                )
                .l2_mpki
            })
            .sum::<f64>()
            / 4.0;
        assert!(
            m_role > 1.5 * c_role,
            "measured M-role {m_role} vs C-role {c_role}"
        );
    }
}
