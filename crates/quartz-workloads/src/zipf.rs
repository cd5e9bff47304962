//! Zipfian key sampling for the key-value store driver.
//!
//! Key-value workloads are typically skewed; the driver samples keys from
//! a Zipf(θ) distribution over `n` items using the standard inverse-CDF
//! rejection-free method of Gray et al. (the same generator YCSB uses).

use quartz_platform::seed::Rng;

use crate::error::WorkloadError;

/// A Zipf-distributed sampler over `0..n`.
///
/// Construction sums `n` powers for the normaliser ζ(n, θ); streams
/// that share `n` and `θ` should build one sampler and derive the rest
/// with [`Zipf::reseeded`], which copies the normaliser.
#[derive(Clone, Debug)]
pub struct Zipf {
    n: u64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    /// `1 + 0.5^θ`: a draw whose `u · ζ(n)` falls below it is key 1.
    second_bound: f64,
    rng: Rng,
}

impl Zipf {
    /// Creates a sampler over `0..n` with skew `theta` in `[0, 1)`.
    /// `theta = 0` is uniform; `0.99` is YCSB's default hot-spot skew.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `theta` is outside `[0, 1)`. Use
    /// [`Zipf::try_new`] to handle bad configurations as typed errors.
    pub fn new(n: u64, theta: f64, seed: u64) -> Self {
        Self::try_new(n, theta, seed).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible constructor.
    ///
    /// # Errors
    ///
    /// [`WorkloadError::EmptyDomain`] when `n` is zero,
    /// [`WorkloadError::OutOfRange`] when `theta` ∉ `[0, 1)` (or is not
    /// finite).
    pub fn try_new(n: u64, theta: f64, seed: u64) -> Result<Self, WorkloadError> {
        if n == 0 {
            return Err(WorkloadError::EmptyDomain {
                what: "zipf key space",
            });
        }
        if !theta.is_finite() || !(0.0..1.0).contains(&theta) {
            return Err(WorkloadError::OutOfRange {
                what: "zipf theta",
                value: theta,
                bounds: "[0, 1)",
            });
        }
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2: f64 = (1..=2.min(n)).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        Ok(Zipf {
            n,
            alpha,
            zetan,
            eta,
            second_bound: 1.0 + 0.5f64.powf(theta),
            rng: Rng::new(seed),
        })
    }

    /// The same distribution drawn from a fresh stream seeded with
    /// `seed`: the key sequence equals `Zipf::try_new(n, θ, seed)`'s,
    /// without summing the normaliser again.
    pub fn reseeded(&self, seed: u64) -> Zipf {
        Zipf {
            rng: Rng::new(seed),
            ..self.clone()
        }
    }

    /// Samples the next key.
    pub fn sample(&mut self) -> u64 {
        let u = self.rng.next_f64();
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < self.second_bound {
            return 1;
        }
        let v = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
        v.min(self.n - 1)
    }

    /// Number of items.
    pub fn n(&self) -> u64 {
        self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_in_range() {
        let mut z = Zipf::new(1000, 0.99, 7);
        for _ in 0..10_000 {
            assert!(z.sample() < 1000);
        }
    }

    #[test]
    fn skew_concentrates_on_head() {
        let mut z = Zipf::new(10_000, 0.99, 7);
        let mut head = 0u64;
        let trials = 50_000;
        for _ in 0..trials {
            if z.sample() < 100 {
                head += 1;
            }
        }
        // With theta=0.99 the top 1% of keys draw a large share.
        let frac = head as f64 / trials as f64;
        assert!(frac > 0.4, "head fraction {frac}");
    }

    #[test]
    fn near_uniform_when_theta_zero() {
        let mut z = Zipf::new(1000, 0.0, 7);
        let mut head = 0u64;
        let trials = 50_000;
        for _ in 0..trials {
            if z.sample() < 100 {
                head += 1;
            }
        }
        let frac = head as f64 / trials as f64;
        assert!((frac - 0.1).abs() < 0.02, "uniform head fraction {frac}");
    }

    #[test]
    fn deterministic_for_seed() {
        let a: Vec<u64> = {
            let mut z = Zipf::new(100, 0.5, 3);
            (0..50).map(|_| z.sample()).collect()
        };
        let b: Vec<u64> = {
            let mut z = Zipf::new(100, 0.5, 3);
            (0..50).map(|_| z.sample()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn reseeded_streams_draw_the_keys_of_fresh_samplers() {
        for n in [1u64, 2, 1000, 20_000] {
            for theta in [0.0, 0.5, 0.9, 0.99] {
                let shared = Zipf::new(n, theta, 1);
                for seed in [0u64, 7, 0x9E37_79B9_7F4A_7C15, u64::MAX] {
                    let mut fresh = Zipf::try_new(n, theta, seed).unwrap();
                    let mut derived = shared.reseeded(seed);
                    for i in 0..10_000 {
                        assert_eq!(
                            derived.sample(),
                            fresh.sample(),
                            "n {n}, theta {theta}, seed {seed}: draw {i}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn rejects_bad_theta() {
        let _ = Zipf::new(10, 1.0, 0);
    }

    #[test]
    fn try_new_reports_typed_errors() {
        use crate::error::WorkloadError;
        assert!(matches!(
            Zipf::try_new(0, 0.5, 1),
            Err(WorkloadError::EmptyDomain {
                what: "zipf key space"
            })
        ));
        assert!(matches!(
            Zipf::try_new(10, 1.0, 1),
            Err(WorkloadError::OutOfRange {
                what: "zipf theta",
                ..
            })
        ));
        assert!(matches!(
            Zipf::try_new(10, f64::NAN, 1),
            Err(WorkloadError::OutOfRange { .. })
        ));
        assert!(Zipf::try_new(10, 0.99, 1).is_ok());
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// Skew values exercised by the distribution-shape property.
        const THETAS: [f64; 3] = [0.0, 0.5, 0.9];

        /// Analytic mass of the top `k` of `n` zipfian keys.
        fn head_mass(n: u64, k: u64, theta: f64) -> f64 {
            let zk: f64 = (1..=k).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            let zn: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
            zk / zn
        }

        proptest! {
            #[test]
            fn sequences_are_deterministic_per_seed_and_stream(
                n in 10u64..10_000,
                ti in 0usize..3,
                seed in 0u64..1 << 48,
            ) {
                let theta = THETAS[ti];
                let sample = |s: u64| -> Vec<u64> {
                    let mut z = Zipf::new(n, theta, s);
                    (0..100).map(|_| z.sample()).collect()
                };
                // Same (seed, stream) ⇒ identical sequence.
                prop_assert_eq!(sample(seed), sample(seed));
                // A different stream id decorrelates the sequence.
                prop_assert_ne!(sample(seed), sample(seed.wrapping_add(1)));
            }

            #[test]
            fn head_frequency_matches_analytic_mass(
                ti in 0usize..3,
                seed in 0u64..1 << 32,
            ) {
                let theta = THETAS[ti];
                let n = 1_000u64;
                let k = 100u64;
                let expect = head_mass(n, k, theta);
                let mut z = Zipf::new(n, theta, seed);
                let trials = 20_000u64;
                let head = (0..trials).filter(|_| z.sample() < k).count();
                let got = head as f64 / trials as f64;
                // Gray's inverse-CDF method is approximate; allow its
                // documented few-percent error plus sampling noise.
                prop_assert!(
                    (got - expect).abs() < 0.06,
                    "theta={}: head freq {} vs analytic {}",
                    theta,
                    got,
                    expect
                );
            }
        }
    }
}
