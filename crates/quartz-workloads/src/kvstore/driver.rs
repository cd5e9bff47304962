//! The key-value benchmark driver (Fig. 15/16 workload).
//!
//! Preloads the store, then runs `threads` workers issuing a zipfian
//! put/get mix, reporting the `put/s` and `get/s` throughputs the paper's
//! Fig. 15 validates.

use std::sync::Arc;

use quartz::Quartz;
use quartz_platform::time::Duration;
use quartz_threadsim::ThreadCtx;

use crate::error::WorkloadError;
use crate::kvstore::btree::KvStore;
use crate::zipf::Zipf;

/// Benchmark parameters.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KvBenchConfig {
    /// Keys preloaded before the timed phase.
    pub preload_keys: u64,
    /// Operations per worker thread.
    pub ops_per_thread: u64,
    /// Worker threads (the paper sweeps 1, 2, 4, 8).
    pub threads: usize,
    /// Fraction of operations that are gets (rest are puts).
    pub get_fraction: f64,
    /// Zipfian skew of the key distribution.
    pub zipf_theta: f64,
    /// Host CPU work per get, in ns (key hashing, node search, version
    /// validation — MassTree spends on the order of a microsecond of CPU
    /// per operation on its 140M-key trees).
    pub get_compute_ns: f64,
    /// Host CPU work per put, in ns.
    pub put_compute_ns: f64,
    /// Seed for key sampling.
    pub seed: u64,
}

impl Default for KvBenchConfig {
    fn default() -> Self {
        KvBenchConfig {
            preload_keys: 20_000,
            ops_per_thread: 10_000,
            threads: 1,
            get_fraction: 0.5,
            zipf_theta: 0.9,
            get_compute_ns: 800.0,
            put_compute_ns: 1_000.0,
            seed: 0x4B56,
        }
    }
}

/// Benchmark output.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct KvBenchResult {
    /// Wall time of the timed phase.
    pub elapsed: Duration,
    /// Get operations completed.
    pub gets: u64,
    /// Put operations completed.
    pub puts: u64,
    /// Thread-time spent inside get operations (sums across threads).
    pub get_time: Duration,
    /// Thread-time spent inside put operations (sums across threads).
    pub put_time: Duration,
}

impl KvBenchResult {
    /// Get service rate: completed gets per second of time the threads
    /// spent serving gets (the per-operation-class rate of Fig. 15).
    pub fn gets_per_sec(&self) -> f64 {
        if self.get_time.is_zero() {
            return 0.0;
        }
        self.gets as f64 / (self.get_time.as_ns_f64() * 1e-9)
    }

    /// Put service rate: completed puts per second of put-serving time.
    pub fn puts_per_sec(&self) -> f64 {
        if self.put_time.is_zero() {
            return 0.0;
        }
        self.puts as f64 / (self.put_time.as_ns_f64() * 1e-9)
    }

    /// Combined wall-clock throughput of the mixed phase.
    pub fn ops_per_sec(&self) -> f64 {
        (self.gets + self.puts) as f64 / (self.elapsed.as_ns_f64() * 1e-9)
    }
}

/// Preloads `store` with `keys` sequential keys (scrambled insert order).
pub fn preload(ctx: &mut ThreadCtx, store: &KvStore, quartz: Option<&Quartz>, keys: u64) {
    let mut k = 1u64;
    for _ in 0..keys {
        k = (k
            .wrapping_mul(2_862_933_555_777_941_757)
            .wrapping_add(3_037_000_493))
            % keys.max(2);
        store.put(ctx, quartz, k, k ^ 0xABCD);
    }
    // Ensure the keyspace is fully populated despite LCG collisions.
    for k in 0..keys {
        store.put(ctx, quartz, k, k ^ 0xABCD);
    }
}

/// Validates a [`KvBenchConfig`] against the driver's documented domain.
///
/// # Errors
///
/// Typed errors for zero workers, an empty key space, or a get
/// fraction / zipf skew outside range.
pub fn validate_config(config: &KvBenchConfig) -> Result<(), WorkloadError> {
    validated_keys(config).map(drop)
}

/// Validates `config` and builds the key sampler each simulated thread
/// reseeds ([`Zipf::reseeded`]), so one run sums the zipf normaliser
/// once.
fn validated_keys(config: &KvBenchConfig) -> Result<Zipf, WorkloadError> {
    if config.threads == 0 {
        return Err(WorkloadError::ZeroWorkers {
            what: "kv benchmark threads",
        });
    }
    if config.preload_keys == 0 {
        return Err(WorkloadError::EmptyDomain {
            what: "kv benchmark key space",
        });
    }
    if !config.get_fraction.is_finite() || !(0.0..=1.0).contains(&config.get_fraction) {
        return Err(WorkloadError::OutOfRange {
            what: "kv get fraction",
            value: config.get_fraction,
            bounds: "[0, 1]",
        });
    }
    // Delegates the theta check so both paths report identically.
    Zipf::try_new(config.preload_keys, config.zipf_theta, config.seed)
}

/// Runs the timed put/get phase from the calling (coordinator) thread.
///
/// # Panics
///
/// Panics on an invalid configuration (see [`validate_config`]). Use
/// [`try_run_kv_benchmark`] to handle that as a typed error.
pub fn run_kv_benchmark(
    ctx: &mut ThreadCtx,
    store: &Arc<KvStore>,
    quartz: Option<Arc<Quartz>>,
    config: &KvBenchConfig,
) -> KvBenchResult {
    try_run_kv_benchmark(ctx, store, quartz, config).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible variant of [`run_kv_benchmark`]: validates the
/// configuration before spawning any simulated thread.
///
/// # Errors
///
/// See [`validate_config`].
pub fn try_run_kv_benchmark(
    ctx: &mut ThreadCtx,
    store: &Arc<KvStore>,
    quartz: Option<Arc<Quartz>>,
    config: &KvBenchConfig,
) -> Result<KvBenchResult, WorkloadError> {
    let keys = validated_keys(config)?;
    let t0 = ctx.now();
    let tallies: Arc<parking_lot::Mutex<(u64, u64, Duration, Duration)>> = Arc::new(
        parking_lot::Mutex::new((0, 0, Duration::ZERO, Duration::ZERO)),
    );
    let mut kids = Vec::with_capacity(config.threads);
    for t in 0..config.threads {
        let store = Arc::clone(store);
        let quartz = quartz.clone();
        let cfg = *config;
        let tallies = Arc::clone(&tallies);
        let mut zipf = keys.reseeded(cfg.seed.wrapping_add(t as u64 * 1_000_003));
        kids.push(ctx.spawn(move |c| {
            let mut coin = cfg.seed.wrapping_mul(t as u64 | 1);
            let (mut gets, mut puts) = (0u64, 0u64);
            let (mut get_time, mut put_time) = (Duration::ZERO, Duration::ZERO);
            for i in 0..cfg.ops_per_thread {
                let key = zipf.sample();
                coin = coin
                    .wrapping_mul(6_364_136_223_846_793_005)
                    .wrapping_add(1_442_695_040_888_963_407);
                let is_get = ((coin >> 33) as f64 / (1u64 << 31) as f64) < cfg.get_fraction;
                let op_start = c.now();
                if is_get {
                    c.compute_ns(cfg.get_compute_ns);
                    store.get(c, key);
                    gets += 1;
                    get_time += c.now().saturating_duration_since(op_start);
                } else {
                    c.compute_ns(cfg.put_compute_ns);
                    store.put(c, quartz.as_deref(), key, i);
                    puts += 1;
                    put_time += c.now().saturating_duration_since(op_start);
                }
            }
            let mut tl = tallies.lock();
            tl.0 += gets;
            tl.1 += puts;
            tl.2 += get_time;
            tl.3 += put_time;
        }));
    }
    for k in kids {
        ctx.join(k);
    }
    let elapsed = ctx.now().saturating_duration_since(t0);
    let (gets, puts, get_time, put_time) = *tallies.lock();
    Ok(KvBenchResult {
        elapsed,
        gets,
        puts,
        get_time,
        put_time,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    use quartz_memsim::{MemSimConfig, MemorySystem};
    use quartz_platform::{Architecture, NodeId, Platform, PlatformConfig};
    use quartz_threadsim::Engine;

    use crate::kvstore::btree::KvConfig;

    fn run(threads: usize, ops: u64) -> KvBenchResult {
        let platform =
            Platform::new(PlatformConfig::new(Architecture::SandyBridge).with_perfect_counters());
        let mem = Arc::new(MemorySystem::new(
            platform,
            MemSimConfig::default().without_jitter(),
        ));
        let out = Arc::new(parking_lot::Mutex::new(None));
        let o = Arc::clone(&out);
        Engine::new(mem).run(move |ctx| {
            let store = Arc::new(KvStore::create(ctx, KvConfig::new(NodeId(0))));
            preload(ctx, &store, None, 5_000);
            let cfg = KvBenchConfig {
                preload_keys: 5_000,
                ops_per_thread: ops,
                threads,
                ..KvBenchConfig::default()
            };
            *o.lock() = Some(run_kv_benchmark(ctx, &store, None, &cfg));
        });
        let r = out.lock().take().unwrap();
        r
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        use crate::error::WorkloadError;
        let bad_threads = KvBenchConfig {
            threads: 0,
            ..KvBenchConfig::default()
        };
        assert!(matches!(
            validate_config(&bad_threads),
            Err(WorkloadError::ZeroWorkers { .. })
        ));
        let bad_keys = KvBenchConfig {
            preload_keys: 0,
            ..KvBenchConfig::default()
        };
        assert!(matches!(
            validate_config(&bad_keys),
            Err(WorkloadError::EmptyDomain { .. })
        ));
        let bad_mix = KvBenchConfig {
            get_fraction: 1.5,
            ..KvBenchConfig::default()
        };
        assert!(matches!(
            validate_config(&bad_mix),
            Err(WorkloadError::OutOfRange { .. })
        ));
        let bad_theta = KvBenchConfig {
            zipf_theta: 2.0,
            ..KvBenchConfig::default()
        };
        assert!(matches!(
            validate_config(&bad_theta),
            Err(WorkloadError::OutOfRange { .. })
        ));
        assert!(validate_config(&KvBenchConfig::default()).is_ok());
    }

    #[test]
    fn throughput_is_positive_and_accounted() {
        let r = run(1, 2_000);
        assert_eq!(r.gets + r.puts, 2_000);
        assert!(r.ops_per_sec() > 0.0);
        assert!(r.gets_per_sec() > 0.0);
        assert!(r.puts_per_sec() > 0.0);
    }

    #[test]
    fn more_threads_scale_throughput() {
        let one = run(1, 2_000);
        let four = run(4, 2_000);
        let speedup = four.ops_per_sec() / one.ops_per_sec();
        assert!(
            speedup > 1.8,
            "4 threads should outpace 1 (lock-striped): {speedup}"
        );
    }
}
