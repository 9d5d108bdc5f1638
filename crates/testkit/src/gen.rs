//! Input generation: a thin, test-friendly facade over [`ClanRng`].

use clanbft_crypto::digest::Hasher;
use clanbft_crypto::prng::ClanRng;

/// A per-case input generator.
///
/// Range methods mirror Rust range notation: `*_in(lo, hi)` is half-open
/// `[lo, hi)`, matching the `lo..hi` strategy ranges the proptest-based
/// suites used.
pub struct Gen {
    rng: ClanRng,
}

impl Gen {
    /// A generator for case `case` of the run keyed by `run_seed`.
    ///
    /// Each case gets an independent stream (keyed by hashing both values),
    /// so replaying case *k* never requires generating cases `0..k`.
    pub fn for_case(run_seed: u64, case: u64) -> Gen {
        let key = Hasher::new("clanbft/testkit-case")
            .chain_u64(run_seed)
            .chain_u64(case)
            .finalize();
        Gen {
            rng: ClanRng::from_seed(key.0),
        }
    }

    /// A full-range `u64` (the `any::<u64>()` equivalent).
    pub fn u64(&mut self) -> u64 {
        self.rng.next_u64()
    }

    /// A uniform `u64` in `[lo, hi)`.
    pub fn u64_in(&mut self, lo: u64, hi: u64) -> u64 {
        self.rng.gen_u64(lo, hi)
    }

    /// A full-range `u32`.
    pub fn u32(&mut self) -> u32 {
        self.rng.next_u32()
    }

    /// A uniform `u32` in `[lo, hi)`.
    pub fn u32_in(&mut self, lo: u32, hi: u32) -> u32 {
        self.rng.gen_u64(lo as u64, hi as u64) as u32
    }

    /// A uniform `usize` in `[lo, hi)`.
    pub fn usize_in(&mut self, lo: usize, hi: usize) -> usize {
        self.rng.gen_usize(lo, hi)
    }

    /// A full-range `u8`.
    pub fn u8(&mut self) -> u8 {
        self.rng.next_u64() as u8
    }

    /// A uniform `u8` in `[lo, hi)`.
    pub fn u8_in(&mut self, lo: u8, hi: u8) -> u8 {
        self.rng.gen_u64(lo as u64, hi as u64) as u8
    }

    /// A fair coin.
    pub fn bool(&mut self) -> bool {
        self.rng.gen_bool()
    }

    /// A vector with length drawn from `[min_len, max_len)` and elements
    /// from `element` (the `prop::collection::vec` equivalent).
    pub fn vec<T>(
        &mut self,
        min_len: usize,
        max_len: usize,
        mut element: impl FnMut(&mut Gen) -> T,
    ) -> Vec<T> {
        let len = self.usize_in(min_len, max_len);
        (0..len).map(|_| element(self)).collect()
    }

    /// A byte vector with length in `[min_len, max_len)`.
    pub fn bytes(&mut self, min_len: usize, max_len: usize) -> Vec<u8> {
        let len = self.usize_in(min_len, max_len);
        let mut out = vec![0u8; len];
        self.rng.fill_bytes(&mut out);
        out
    }

    /// Four full-range `u64`s (the `uniform4(any::<u64>())` equivalent).
    pub fn array4_u64(&mut self) -> [u64; 4] {
        [self.u64(), self.u64(), self.u64(), self.u64()]
    }

    /// Direct access to the underlying PRNG for anything not covered above.
    pub fn rng(&mut self) -> &mut ClanRng {
        &mut self.rng
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cases_are_independent_streams() {
        let a: Vec<u64> = {
            let mut g = Gen::for_case(1, 0);
            (0..4).map(|_| g.u64()).collect()
        };
        let b: Vec<u64> = {
            let mut g = Gen::for_case(1, 1);
            (0..4).map(|_| g.u64()).collect()
        };
        let a2: Vec<u64> = {
            let mut g = Gen::for_case(1, 0);
            (0..4).map(|_| g.u64()).collect()
        };
        assert_ne!(a, b);
        assert_eq!(a, a2);
    }

    #[test]
    fn vec_respects_length_range() {
        let mut g = Gen::for_case(2, 0);
        for _ in 0..100 {
            let v = g.vec(2, 5, |g| g.bool());
            assert!((2..5).contains(&v.len()));
        }
    }
}
