//! The workspace's one seeded hash.
//!
//! Every pseudo-random decision in the reproduction — DRAM latency
//! jitter, counter read skew, fault and spurious-CAS rolls, KV arrivals,
//! zipfian keys and retry backoff, crash and stress plans, chain
//! shuffles and synthetic graphs — is a pure function of a seed through
//! the SplitMix64 finalizer below. No OS entropy and no wall clock, so a run replays
//! bit for bit on any host at any `--jobs` count.
//!
//! Two forms cover every use: [`splitmix64`] hashes a key built from the
//! decision's coordinates (seed, site, sequence number), and [`Rng`] is
//! the sequential stream over the same finalizer, for code that draws
//! one value after another.

/// The SplitMix64 increment (2^64 divided by the golden ratio).
const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// SplitMix64: advances `x` by one stream step and finalizes it.
#[inline]
pub fn splitmix64(x: u64) -> u64 {
    let mut x = x.wrapping_add(GAMMA);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a hash to `[0, 1)` through its top 53 bits — exactly the
/// integers an `f64` mantissa holds, so every output is equally likely.
#[inline]
pub fn unit_f64(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// A deterministic SplitMix64 stream: the `k`-th value drawn from
/// `Rng::new(s)` is `splitmix64(s + k·γ)`, counting from `k = 1`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// Seeds the stream.
    #[inline]
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    /// Next raw 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GAMMA);
        splitmix64(self.0)
    }

    /// Next value uniform in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        unit_f64(self.next_u64())
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    #[inline]
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.next_u64() % bound
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix64_known_answers() {
        // splitmix64(0) is the first output of the reference SplitMix64
        // generator seeded with 0.
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(1), 0x910A_2DEC_8902_5CC1);
    }

    #[test]
    fn rng_stream_is_splitmix64_of_the_gamma_ladder() {
        let expect = [
            0xC02D_8A5E_87AF_EA62,
            0x43EC_2BE5_44B5_89B6,
            0xC8E9_8CD6_9731_6060,
        ];
        let mut rng = Rng::new(9);
        for (k, want) in (1u64..).zip(expect) {
            assert_eq!(splitmix64(9u64.wrapping_add(k.wrapping_mul(GAMMA))), want);
            assert_eq!(rng.next_u64(), want, "draw {k}");
        }
        assert_eq!(Rng::new(9).next_f64(), unit_f64(expect[0]));
    }

    #[test]
    fn unit_f64_spans_the_half_open_unit_interval() {
        assert_eq!(unit_f64(0), 0.0);
        assert_eq!(unit_f64(u64::MAX), 1.0 - 2f64.powi(-53));
        // The signed form the jitter and skew models use stays in
        // [-1, 1).
        for i in 0..1000u64 {
            let v = 2.0 * unit_f64(splitmix64(i)) - 1.0;
            assert!((-1.0..1.0).contains(&v), "{v}");
        }
    }
}
