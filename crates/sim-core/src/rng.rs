//! Derived RNG streams and the shared splitmix64 family.
//!
//! Every crate in the workspace that needs cheap, stateless, seedable
//! hashing — retry jitter, synthetic payloads, storm schedules, frontier
//! arrivals — uses the same splitmix64 finalizer. This module is the one
//! home for that finalizer; the per-crate copies it replaced are locked
//! against it by bit-identity tests below.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// The golden-ratio increment from the splitmix64 reference
/// implementation (Steele, Lea & Flood 2014).
pub const GOLDEN_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// The splitmix64 finalizer: a bijective avalanche mix of a 64-bit
/// state. Pure and stateless — callers build whatever stream algebra
/// they need (`seed + index * GOLDEN_GAMMA`, xor-folded tuples, …) and
/// finalize with this.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One step of the classic splitmix64 sequence: advance the state by
/// [`GOLDEN_GAMMA`] and finalize. Feeding the output back in as the next
/// input walks the reference stream.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    mix64(x.wrapping_add(GOLDEN_GAMMA))
}

/// Finalizes `seed + index * GOLDEN_GAMMA`: the i-th draw of a seeded
/// stream without materialising the intermediate states. Used for storm
/// schedules and frontier arrivals where draws are indexed, not chained.
#[inline]
pub fn mix_indexed(seed: u64, index: u64) -> u64 {
    mix64(seed.wrapping_add(index.wrapping_mul(GOLDEN_GAMMA)))
}

/// Derives an independent RNG for `(seed, stream, index)` via the
/// splitmix64 finalizer, so consecutive indices yield unrelated streams.
/// Sweep points and TOP-RL pretraining segments draw their workloads from
/// it, which is what lets either resume in any order.
pub fn derive_rng(seed: u64, stream: u64, index: u64) -> StdRng {
    StdRng::seed_from_u64(mix64(seed ^ stream ^ index.wrapping_mul(GOLDEN_GAMMA)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::RngCore;

    #[test]
    fn same_inputs_same_stream() {
        let mut a = derive_rng(1, 2, 3);
        let mut b = derive_rng(1, 2, 3);
        for _ in 0..16 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn adjacent_indices_diverge() {
        let mut a = derive_rng(1, 2, 3);
        let mut b = derive_rng(1, 2, 4);
        assert_ne!(a.next_u64(), b.next_u64());
    }

    /// The verbatim splitmix64 copy that used to live in
    /// `npu-serve/src/retry.rs`, `bench/src/overload.rs` and
    /// `bench/src/chaos.rs` before the dedup.
    fn legacy_classic(seed: u64) -> u64 {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// The verbatim indexed mix that used to live in
    /// `faults/src/fleet.rs` before the dedup.
    fn legacy_indexed(seed: u64, index: u64) -> u64 {
        let mut z = seed.wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Bit-identity lock: the shared helpers must reproduce every
    /// retired per-crate copy exactly, or previously-published schedules
    /// (retry jitter, storm timings, chaos payloads) silently shift.
    #[test]
    fn shared_helpers_match_retired_per_crate_copies() {
        let probes = [
            0u64,
            1,
            42,
            0xDEAD_BEEF,
            GOLDEN_GAMMA,
            u64::MAX,
            u64::MAX - 1,
            0x0123_4567_89AB_CDEF,
        ];
        for &x in &probes {
            assert_eq!(splitmix64(x), legacy_classic(x), "classic form at {x:#x}");
            for index in [0u64, 1, 7, 1 << 40, u64::MAX] {
                assert_eq!(
                    mix_indexed(x, index),
                    legacy_indexed(x, index),
                    "indexed form at ({x:#x}, {index})"
                );
            }
        }
        // Pin absolute values too, so the lock survives an accidental
        // rewrite of both sides.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(mix_indexed(0, 0), 0);
        assert_eq!(mix_indexed(1, 0), 0x5692_161D_100B_05E5);
    }

    /// `derive_rng` stayed on the same finalizer through the refactor.
    #[test]
    fn derive_rng_still_uses_the_shared_finalizer() {
        let mut a = derive_rng(7, 11, 13);
        let mut b = StdRng::seed_from_u64(mix64(7 ^ 11 ^ 13u64.wrapping_mul(GOLDEN_GAMMA)));
        for _ in 0..8 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }
}
