//! The assembled memory system.
//!
//! [`MemorySystem`] ties together per-core L1/L2, per-socket L3, the
//! stride prefetcher, the TLB, and the throttleable DRAM channels, and
//! feeds the raw PMU events the emulator will read. All timing is
//! computed against the caller-supplied virtual `now` so the
//! discrete-event thread scheduler stays in charge of time.

use std::collections::{HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use quartz_platform::pmu::RawEvent;
use quartz_platform::seed::{splitmix64, unit_f64};
use quartz_platform::time::{Duration, SimTime};
use quartz_platform::{NodeId, Platform};

use crate::addr::{Addr, LINE_SIZE};
use crate::alloc::NumaAllocator;
use crate::cache::{Cache, Evicted, Lookup};
use crate::config::MemSimConfig;
use crate::dram::DramChannels;
use crate::error::MemSimError;
use crate::persist::{PersistObserver, WritebackCause};
use crate::prefetch::Prefetcher;
use crate::stats::MemStats;
use crate::tlb::Tlb;

/// Which level of the hierarchy served a load.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ServiceLevel {
    /// Private L1 data cache.
    L1,
    /// Private L2.
    L2,
    /// Shared last-level cache.
    L3,
    /// A prefetch still in flight (line-fill buffer hit).
    PrefetchInFlight,
    /// Served by a dirty cache-to-cache snoop transfer from another
    /// core's private cache (HITM). Invisible to the Table 1 counters.
    SnoopHitm,
    /// DRAM on the accessing core's local node.
    DramLocal,
    /// DRAM on a remote node.
    DramRemote,
}

impl ServiceLevel {
    /// Whether this level is past L2 (contributes to
    /// `STALLS_L2_PENDING`).
    pub fn past_l2(self) -> bool {
        !matches!(self, ServiceLevel::L1 | ServiceLevel::L2)
    }
}

/// Outcome of a single load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AccessResult {
    /// Exposed latency of the access (the time the core stalls).
    pub stall: Duration,
    /// Where the data came from.
    pub served: ServiceLevel,
}

/// Hasher for the maps keyed by simulated line number: one multiply,
/// with the high half folded down because the map indexes buckets by
/// the low bits and strided line numbers share theirs. The keys come
/// from the simulation, not from outside input, so flooding resistance
/// buys nothing; and nothing iterates these maps, so the hasher cannot
/// change any output.
#[derive(Default)]
struct LineHasher(u64);

impl Hasher for LineHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let h = (self.0 ^ n).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by simulated line number.
type LineMap<V> = HashMap<u64, V, BuildHasherDefault<LineHasher>>;

struct Inner {
    l1: Vec<Cache>,
    l2: Vec<Cache>,
    /// One per socket.
    l3: Vec<Cache>,
    /// Cores whose private caches received a fill since the last
    /// `invalidate_caches`, in first-fill order; `is_active` flags the
    /// same cores. Every core outside the set has an empty L1 and L2,
    /// so the store's write-invalidate visits only these: a probe of a
    /// cache that was never filled cannot match any line.
    active_cores: Vec<usize>,
    is_active: Vec<bool>,
    tlbs: Vec<Tlb>,
    prefetchers: Vec<Prefetcher>,
    channels: DramChannels,
    /// Prefetches in flight: line -> instant the data arrives in L3.
    inflight: LineMap<SimTime>,
    /// Coherence registry: cache lines held Modified in a core's
    /// *private* (L1/L2) caches: line -> owning core. Stores
    /// write-invalidate other owners; loads that miss the shared L3 but
    /// hit another core's modified line are served by a cache-to-cache
    /// snoop transfer (HITM) instead of DRAM.
    dirty_owner: LineMap<usize>,
    /// Outstanding RFO completions per core (store misses).
    rfo: Vec<VecDeque<SimTime>>,
    /// Outstanding write-combining (streaming-store) completions per core.
    wc: Vec<VecDeque<SimTime>>,
    stats: MemStats,
    /// Deterministic jitter sequence number.
    seq: u64,
    /// Scratch buffer for prefetch candidates.
    pf_buf: Vec<u64>,
    /// Optional persistence-event tap (see [`crate::persist`]).
    /// Callbacks run with this lock held: observers must not call
    /// back into the memory system.
    observer: Option<Arc<dyn PersistObserver>>,
    /// Cached `observer.is_some()`: the per-access paths branch on this
    /// plain bool, so observer-off runs never inspect (let alone clone)
    /// the `Option<Arc<dyn …>>` per event.
    obs_on: bool,
}

impl Inner {
    /// Emits a persistence event iff an observer is installed — one
    /// branch on the cached flag in the common (observer-off) case.
    #[inline]
    fn persist_event(&self, emit: impl FnOnce(&dyn PersistObserver)) {
        if self.obs_on {
            if let Some(obs) = self.observer.as_deref() {
                emit(obs);
            }
        }
    }

    /// Adds `core` to the active-core set; called before every fill of
    /// its L1 or L2.
    #[inline]
    fn mark_active(&mut self, core: usize) {
        if !self.is_active[core] {
            self.is_active[core] = true;
            self.active_cores.push(core);
        }
    }

    /// Drops `line`'s in-flight prefetch record, if any. A run that never
    /// prefetches keeps the map empty, so this skips the hash and probe.
    #[inline]
    fn drop_inflight(&mut self, line: u64) {
        if !self.inflight.is_empty() {
            self.inflight.remove(&line);
        }
    }
}

/// The fixed latencies of the hierarchy, converted from the platform's
/// and the configuration's nanosecond figures once, at construction.
struct Latencies {
    l1: Duration,
    l2: Duration,
    l3: Duration,
    /// A dirty cache-to-cache (HITM) snoop transfer.
    hitm: Duration,
    /// A TLB miss's page walk.
    walk: Duration,
    /// Local DRAM's band as `(average, jitter half-width)` in ns.
    local_dram: (f64, f64),
    /// Remote DRAM's band, likewise.
    remote_dram: (f64, f64),
}

/// The simulated memory system of one machine.
pub struct MemorySystem {
    platform: Platform,
    config: MemSimConfig,
    allocator: NumaAllocator,
    lat: Latencies,
    /// `core_socket[core]`: the socket (and local node) of each core.
    core_socket: Box<[usize]>,
    /// Whether a persistence observer is installed; written under the
    /// `inner` lock together with `Inner::observer`, so
    /// [`MemorySystem::persist_observer`] can answer "none" without
    /// taking that lock.
    observed: AtomicBool,
    inner: Mutex<Inner>,
}

/// Write-combining buffer depth for streaming stores.
const WC_BUFFERS: usize = 8;

/// Fixed instruction cost of a non-temporal store.
const STREAM_STORE_COST: Duration = Duration::from_ps(500);

/// Fixed instruction cost of a `clflushopt`.
const FLUSH_OPT_COST: Duration = Duration::from_ns(1);

/// Fixed instruction cost of a `clflush` that finds nothing to write back.
const FLUSH_BASE: Duration = Duration::from_ns(4);

/// Memory-controller acceptance time for a synchronous flush writeback on
/// top of queueing and transfer.
const FLUSH_ACCEPT: Duration = Duration::from_ns(10);

/// Latency multiplier for a dirty cache-to-cache (HITM) snoop transfer
/// relative to a plain L3 hit.
const SNOOP_HITM_FACTOR: f64 = 1.8;

impl MemorySystem {
    /// Builds the memory system of `platform`.
    pub fn new(platform: Platform, config: MemSimConfig) -> Self {
        let topo = platform.topology();
        let cores = topo.num_cores();
        let sockets = topo.num_sockets();
        let channels = DramChannels::new(
            topo.num_nodes(),
            config.channels_per_node,
            config.channel_bw_gbps,
            quartz_platform::time::Duration::from_ns(config.queue_skew_tolerance_ns),
            platform.thermal_view(),
        );
        let inner = Inner {
            l1: (0..cores).map(|_| Cache::new(config.l1)).collect(),
            l2: (0..cores).map(|_| Cache::new(config.l2)).collect(),
            l3: (0..sockets).map(|_| Cache::new(config.l3)).collect(),
            active_cores: Vec::new(),
            is_active: vec![false; cores],
            tlbs: (0..cores).map(|_| Tlb::new(config.tlb)).collect(),
            prefetchers: (0..cores)
                .map(|_| Prefetcher::new(config.prefetch))
                .collect(),
            channels,
            inflight: LineMap::default(),
            dirty_owner: LineMap::default(),
            rfo: (0..cores).map(|_| VecDeque::new()).collect(),
            wc: (0..cores).map(|_| VecDeque::new()).collect(),
            stats: MemStats::new(topo.num_nodes()),
            seq: 0,
            pf_buf: Vec::new(),
            observer: None,
            obs_on: false,
        };
        let allocator =
            NumaAllocator::new(topo.num_nodes(), config.node_capacity, config.tlb.hugepages);
        let params = platform.arch_params();
        let lat = Latencies {
            l1: Duration::from_ns_f64(params.l1_ns),
            l2: Duration::from_ns_f64(params.l2_ns),
            l3: Duration::from_ns_f64(params.l3_ns),
            hitm: Duration::from_ns_f64(params.l3_ns * SNOOP_HITM_FACTOR),
            walk: Duration::from_ns_f64(config.tlb.walk_ns),
            local_dram: (
                params.local_dram_ns.avg_ns as f64,
                params.local_dram_ns.jitter_ns(),
            ),
            remote_dram: (
                params.remote_dram_ns.avg_ns as f64,
                params.remote_dram_ns.jitter_ns(),
            ),
        };
        let core_socket = (0..cores)
            .map(|c| topo.socket_of(quartz_platform::CoreId(c)).0)
            .collect();
        MemorySystem {
            platform,
            config,
            allocator,
            lat,
            core_socket,
            observed: AtomicBool::new(false),
            inner: Mutex::new(inner),
        }
    }

    /// The platform this memory system belongs to.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The configuration in effect.
    pub fn config(&self) -> &MemSimConfig {
        &self.config
    }

    /// Allocates `bytes` on `node`.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures ([`MemSimError`]).
    pub fn alloc(&self, node: NodeId, bytes: u64) -> Result<Addr, MemSimError> {
        self.allocator.alloc(node, bytes)
    }

    /// Frees an allocation.
    ///
    /// # Errors
    ///
    /// Propagates allocator failures ([`MemSimError`]).
    pub fn free(&self, addr: Addr) -> Result<(), MemSimError> {
        self.allocator.free(addr)
    }

    /// A snapshot of ground-truth statistics.
    pub fn stats(&self) -> MemStats {
        self.inner.lock().stats.clone()
    }

    /// Installs (or removes, with `None`) the persistence-event
    /// observer. Callbacks are delivered synchronously at the
    /// simulation point with the internal lock held — observers must
    /// not call back into this memory system (see [`crate::persist`]).
    pub fn set_persist_observer(&self, observer: Option<Arc<dyn PersistObserver>>) {
        let mut g = self.inner.lock();
        g.obs_on = observer.is_some();
        self.observed.store(g.obs_on, Ordering::Release);
        g.observer = observer;
    }

    /// The currently installed persistence observer, if any. Answers
    /// "none" from an atomic flag, without the memory system's lock.
    pub fn persist_observer(&self) -> Option<Arc<dyn PersistObserver>> {
        // Acquire pairs with the Release store in `set_persist_observer`:
        // a caller ordered after an install sees the flag set.
        if !self.observed.load(Ordering::Acquire) {
            return None;
        }
        self.inner.lock().observer.clone()
    }

    /// Zeroes ground-truth statistics.
    pub fn reset_stats(&self) {
        self.inner.lock().stats.reset();
    }

    /// Invalidates all caches, TLBs, prefetch streams and queue state —
    /// the equivalent of the paper's cache invalidation between trials
    /// (§4.7). Dirty lines are dropped, not written back.
    pub fn invalidate_caches(&self) {
        self.invalidate_caches_inner(&mut self.inner.lock());
    }

    fn invalidate_caches_inner(&self, g: &mut Inner) {
        for c in
            g.l1.iter_mut()
                .chain(g.l2.iter_mut())
                .chain(g.l3.iter_mut())
        {
            c.invalidate_all();
        }
        g.active_cores.clear();
        g.is_active.fill(false);
        for t in &mut g.tlbs {
            t.flush();
        }
        for p in &mut g.prefetchers {
            p.reset();
        }
        g.channels.reset();
        g.inflight.clear();
        g.dirty_owner.clear();
        for q in g.rfo.iter_mut().chain(g.wc.iter_mut()) {
            q.clear();
        }
        g.persist_event(|obs| obs.caches_invalidated());
    }

    #[inline]
    fn socket_of(&self, core: usize) -> usize {
        self.core_socket[core]
    }

    /// Whether `node` is local to `core` (node k is socket k's).
    #[inline]
    fn is_local(&self, core: usize, node: NodeId) -> bool {
        self.core_socket[core] == node.0
    }

    fn dram_latency(&self, core: usize, node: NodeId, seq: u64, addr: Addr) -> (Duration, bool) {
        let local = self.is_local(core, node);
        let (mut ns, jitter_ns) = if local {
            self.lat.local_dram
        } else {
            self.lat.remote_dram
        };
        if self.config.jitter {
            let key = splitmix64(self.config.seed ^ addr.0.wrapping_mul(0x9E37_79B9) ^ seq);
            ns += jitter_ns * (2.0 * unit_f64(key) - 1.0);
        }
        (Duration::from_ns_f64(ns), local)
    }

    /// Performs one dependent load.
    ///
    /// The L1-hit case is fully inlined here: translate, touch, count,
    /// return — before any prefetcher, coherence, persist-observer or
    /// DRAM-queue logic is even considered. That case dominates every
    /// workload, so it is the per-access throughput ceiling.
    pub fn load(&self, core: usize, addr: Addr, now: SimTime) -> AccessResult {
        let mut g = self.inner.lock();
        let g = &mut *g;
        let mut extra = Duration::ZERO;
        if !g.tlbs[core].translate(addr) {
            g.stats.tlb_misses += 1;
            extra = self.lat.walk;
        }
        if g.l1[core].touch(addr) == Lookup::Hit {
            // An L1 hit feeds no PMU event and no stall accounting
            // (`past_l2` is false) — bumping the hit counter is the
            // whole story.
            g.stats.l1_hits += 1;
            return AccessResult {
                stall: extra + self.lat.l1,
                served: ServiceLevel::L1,
            };
        }
        let r = self.load_miss(g, core, addr, extra, now);
        self.account_load(g, core, r, now);
        r
    }

    /// Performs a batch of *independent* loads issued together (the
    /// memory-level-parallelism path). Misses overlap up to the MSHR
    /// limit; the returned duration is the total exposed stall, which is
    /// what `STALLS_L2_PENDING` accumulates.
    pub fn load_batch(&self, core: usize, addrs: &[Addr], now: SimTime) -> Duration {
        self.load_batch_inner(&mut self.inner.lock(), core, addrs, now)
    }

    fn load_batch_inner(
        &self,
        g: &mut Inner,
        core: usize,
        addrs: &[Addr],
        now: SimTime,
    ) -> Duration {
        let mut total = Duration::ZERO;
        let mut group_start = now;
        let mut group_max = Duration::ZERO;
        let mut group_len = 0usize;
        for &addr in addrs {
            let r = self.load_inner(g, core, addr, group_start);
            self.account_load_events_only(g, core, r);
            if r.served.past_l2() {
                group_max = group_max.max(r.stall);
                group_len += 1;
                if group_len == self.config.mshrs {
                    total += group_max;
                    group_start += group_max;
                    group_max = Duration::ZERO;
                    group_len = 0;
                }
            }
        }
        total += group_max;
        g.stats.load_stall += total;
        self.platform.pmu().add(
            core,
            RawEvent::StallCyclesL2Pending,
            self.stall_cycles(total, now),
        );
        total
    }

    /// Converts a stall span into counted cycles at the frequency the
    /// core is actually running at. With DVFS enabled the cycle counters
    /// tick faster or slower than nominal, which is exactly the
    /// cycles-vs-nanoseconds hazard the paper disables DVFS to avoid
    /// (§6).
    fn stall_cycles(&self, stall: Duration, now: SimTime) -> u64 {
        let nominal = self.platform.frequency().duration_to_cycles(stall);
        let mult = self.platform.dvfs().multiplier(now);
        if mult == 1.0 {
            nominal
        } else {
            (nominal as f64 * mult).round() as u64
        }
    }

    fn account_load(&self, g: &mut Inner, core: usize, r: AccessResult, now: SimTime) {
        self.account_load_events_only(g, core, r);
        if r.served.past_l2() {
            g.stats.load_stall += r.stall;
            self.platform.pmu().add(
                core,
                RawEvent::StallCyclesL2Pending,
                self.stall_cycles(r.stall, now),
            );
        }
    }

    fn account_load_events_only(&self, g: &mut Inner, core: usize, r: AccessResult) {
        let pmu = self.platform.pmu();
        match r.served {
            ServiceLevel::L1 => g.stats.l1_hits += 1,
            ServiceLevel::L2 => g.stats.l2_hits += 1,
            ServiceLevel::L3 => {
                g.stats.l3_hits += 1;
                pmu.add(core, RawEvent::L3HitLoads, 1);
            }
            ServiceLevel::PrefetchInFlight => {
                g.stats.prefetch_inflight_hits += 1;
                pmu.add(core, RawEvent::L3HitLoads, 1);
            }
            ServiceLevel::SnoopHitm => {
                // XSNP_HITM is not in the Table 1 event set: stall
                // cycles are counted (past_l2) but neither the hit nor
                // the miss counters move.
                g.stats.snoop_hitm += 1;
            }
            ServiceLevel::DramLocal => {
                g.stats.dram_local += 1;
                pmu.add(core, RawEvent::L3MissLocalLoads, 1);
            }
            ServiceLevel::DramRemote => {
                g.stats.dram_remote += 1;
                pmu.add(core, RawEvent::L3MissRemoteLoads, 1);
            }
        }
    }

    /// Core load path: resolves the service level, updates caches,
    /// triggers prefetches. Does not touch PMU/stat accounting (the
    /// batch path accounts separately).
    fn load_inner(&self, g: &mut Inner, core: usize, addr: Addr, now: SimTime) -> AccessResult {
        let mut extra = Duration::ZERO;
        if !g.tlbs[core].translate(addr) {
            g.stats.tlb_misses += 1;
            extra = self.lat.walk;
        }
        if g.l1[core].touch(addr) == Lookup::Hit {
            return AccessResult {
                stall: extra + self.lat.l1,
                served: ServiceLevel::L1,
            };
        }
        self.load_miss(g, core, addr, extra, now)
    }

    /// Everything past an L1 miss: L2/L3 probes, coherence snoops,
    /// prefetch issue, DRAM queueing. `extra` carries the TLB-walk cost
    /// already charged by the caller.
    fn load_miss(
        &self,
        g: &mut Inner,
        core: usize,
        addr: Addr,
        extra: Duration,
        now: SimTime,
    ) -> AccessResult {
        if g.l2[core].touch(addr) == Lookup::Hit {
            self.fill_l1(g, core, addr, false, now);
            return AccessResult {
                stall: extra + self.lat.l2,
                served: ServiceLevel::L2,
            };
        }

        // L2 miss: the prefetcher observes the demand stream here. Its
        // candidates go into the scratch buffer, which goes back to
        // `Inner` with its capacity once they are issued, so a miss that
        // triggers prefetches allocates nothing.
        let mut pf = std::mem::take(&mut g.pf_buf);
        pf.clear();
        g.prefetchers[core].observe(addr.line(), &mut pf);

        let socket = self.socket_of(core);
        let served;
        let stall;
        if let Some(&owner) = g.dirty_owner.get(&addr.line()) {
            if owner != core {
                // Another core holds the line Modified: cache-to-cache
                // HITM transfer. The Table 1 event set only counts
                // XSNP_NONE hits and DRAM-sourced misses, so this load
                // is invisible to the emulator's hit/miss mix even
                // though its stall cycles are counted — a genuine
                // limitation of the counter set on real hardware too.
                g.l1[owner].invalidate(addr);
                g.l2[owner].invalidate(addr);
                g.dirty_owner.remove(&addr.line());
                // The modified data lands in the shared L3 (dirty) and
                // in the requester's private caches. This path never
                // probed the L3, so its fill probes for the line.
                let ev = g.l3[socket].fill(addr, true);
                self.retire_l3_victim(g, ev, now);
                self.fill_l2_l1(g, core, addr, false, now);
                let stall = extra + self.lat.hitm;
                for &line in &pf {
                    self.issue_prefetch(g, core, line, now);
                }
                g.pf_buf = pf;
                return AccessResult {
                    stall,
                    served: ServiceLevel::SnoopHitm,
                };
            }
        }
        if g.l3[socket].touch(addr) == Lookup::Hit {
            // Is this a prefetched line still in flight?
            if let Some(&ready) = g.inflight.get(&addr.line()) {
                if ready > now {
                    served = ServiceLevel::PrefetchInFlight;
                    stall = ready.duration_since(now);
                } else {
                    g.inflight.remove(&addr.line());
                    served = ServiceLevel::L3;
                    stall = self.lat.l3;
                }
            } else {
                served = ServiceLevel::L3;
                stall = self.lat.l3;
            }
            self.fill_l2_l1(g, core, addr, false, now);
        } else {
            // DRAM access.
            let node = addr.node();
            g.seq += 1;
            let seq = g.seq;
            let (base, local) = self.dram_latency(core, node, seq, addr);
            let t = g.channels.reserve(node, addr.line(), now);
            g.stats.node_bytes[node.0] += LINE_SIZE;
            served = if local {
                ServiceLevel::DramLocal
            } else {
                ServiceLevel::DramRemote
            };
            stall = base + t.queue_wait;
            self.fill_l3(g, socket, addr, false, now);
            self.fill_l2_l1(g, core, addr, false, now);
        }

        // Issue prefetches for candidate lines.
        for &line in &pf {
            self.issue_prefetch(g, core, line, now);
        }
        g.pf_buf = pf;

        AccessResult {
            stall: extra + stall,
            served,
        }
    }

    fn issue_prefetch(&self, g: &mut Inner, core: usize, line: u64, now: SimTime) {
        let addr = Addr(line * LINE_SIZE);
        let node = addr.node();
        if node.0 >= self.platform.topology().num_nodes() {
            return;
        }
        let socket = self.socket_of(core);
        if g.l3[socket].contains(addr) || g.inflight.contains_key(&line) {
            return;
        }
        g.seq += 1;
        let seq = g.seq;
        let (base, _) = self.dram_latency(core, node, seq, addr);
        let t = g.channels.reserve(node, line, now);
        let ready = now + t.queue_wait + base;
        g.stats.prefetches_issued += 1;
        g.stats.node_bytes[node.0] += LINE_SIZE;
        self.fill_l3(g, socket, addr, false, now);
        g.inflight.insert(line, ready);
    }

    // The fill helpers below fill a line their caller has just missed on
    // in that cache, so each skips the fill's probe
    // (`Cache::fill_after_miss`). The one fill that may find its line
    // resident, the HITM transfer's L3 fill, calls `Cache::fill`.

    fn fill_l1(&self, g: &mut Inner, core: usize, addr: Addr, dirty: bool, now: SimTime) {
        g.mark_active(core);
        if let Some(ev) = g.l1[core].fill_after_miss(addr, dirty) {
            if ev.dirty {
                let victim = Addr(ev.line * LINE_SIZE);
                // Dirty L1 victim moves to L2.
                if g.l2[core].touch_dirty(victim) == Lookup::Miss {
                    self.fill_l2_only(g, core, victim, true, now);
                }
            }
        }
    }

    fn fill_l2_only(&self, g: &mut Inner, core: usize, addr: Addr, dirty: bool, now: SimTime) {
        g.mark_active(core);
        if let Some(ev) = g.l2[core].fill_after_miss(addr, dirty) {
            if ev.dirty {
                let victim = Addr(ev.line * LINE_SIZE);
                // The modified line leaves the private domain.
                if g.dirty_owner.get(&ev.line) == Some(&core) {
                    g.dirty_owner.remove(&ev.line);
                }
                let socket = self.socket_of(core);
                if g.l3[socket].touch_dirty(victim) == Lookup::Miss {
                    self.fill_l3(g, socket, victim, true, now);
                }
            }
        }
    }

    fn fill_l2_l1(&self, g: &mut Inner, core: usize, addr: Addr, dirty: bool, now: SimTime) {
        self.fill_l2_only(g, core, addr, dirty, now);
        self.fill_l1(g, core, addr, dirty, now);
    }

    fn fill_l3(&self, g: &mut Inner, socket: usize, addr: Addr, dirty: bool, now: SimTime) {
        let ev = g.l3[socket].fill_after_miss(addr, dirty);
        self.retire_l3_victim(g, ev, now);
    }

    /// Drops an L3 victim's in-flight record and writes it back if dirty.
    fn retire_l3_victim(&self, g: &mut Inner, ev: Option<Evicted>, now: SimTime) {
        if let Some(ev) = ev {
            g.drop_inflight(ev.line);
            if ev.dirty {
                // Dirty L3 victim: write back to its home node.
                let victim = Addr(ev.line * LINE_SIZE);
                let node = victim.node();
                if node.0 < self.platform.topology().num_nodes() {
                    let t = g.channels.reserve(node, ev.line, now);
                    g.stats.writebacks += 1;
                    g.stats.node_bytes[node.0] += LINE_SIZE;
                    g.persist_event(|obs| {
                        obs.writeback(ev.line, WritebackCause::Eviction, now, t.completes_at)
                    });
                }
            }
        }
    }

    /// Performs a regular (write-back, posted) store. Stores retire into
    /// the store buffer and rarely stall; on a miss the read-for-ownership
    /// consumes DRAM bandwidth in the background, and the core only stalls
    /// when the store buffer is full — which is why the paper's epoch
    /// model cannot see slow NVM writes and `pflush` exists (§3.1).
    pub fn store(&self, core: usize, addr: Addr, now: SimTime) -> Duration {
        self.store_inner(&mut self.inner.lock(), core, addr, now)
    }

    fn store_inner(&self, g: &mut Inner, core: usize, addr: Addr, now: SimTime) -> Duration {
        let mut cost = self.lat.l1;
        if !g.tlbs[core].translate(addr) {
            g.stats.tlb_misses += 1;
            cost += self.lat.walk;
        }
        // Write-invalidate: every other core's copy (shared or
        // modified) of this line is invalidated before we take it
        // Modified. Only active cores can hold a copy.
        for &c in &g.active_cores {
            if c != core {
                g.l1[c].invalidate(addr);
                g.l2[c].invalidate(addr);
            }
        }
        g.dirty_owner.insert(addr.line(), core);
        g.persist_event(|obs| obs.store_dirtied(core, addr.line(), now));
        if g.l1[core].touch_dirty(addr) == Lookup::Hit {
            return cost;
        }
        if g.l2[core].touch_dirty(addr) == Lookup::Hit {
            self.fill_l1(g, core, addr, true, now);
            return cost;
        }
        let socket = self.socket_of(core);
        if g.l3[socket].touch_dirty(addr) == Lookup::Hit {
            self.fill_l2_l1(g, core, addr, true, now);
            return cost;
        }
        // Store miss: read-for-ownership from DRAM, posted.
        let node = addr.node();
        g.seq += 1;
        let seq = g.seq;
        let (base, local) = self.dram_latency(core, node, seq, addr);
        let t = g.channels.reserve(node, addr.line(), now);
        g.stats.rfos += 1;
        g.stats.node_bytes[node.0] += LINE_SIZE;
        self.account_store_miss(g, core, local);
        let completion = now + t.queue_wait + base;
        g.rfo[core].push_back(completion);
        if g.rfo[core].len() > self.config.store_buffer {
            let oldest = g.rfo[core].pop_front().expect("non-empty");
            if oldest > now {
                let stall = oldest.duration_since(now);
                g.stats.store_stall += stall;
                self.platform.pmu().add(
                    core,
                    RawEvent::StallCyclesStoreBuffer,
                    self.stall_cycles(stall, now),
                );
                cost += stall;
            }
        }
        self.fill_l3(g, socket, addr, true, now);
        self.fill_l2_l1(g, core, addr, true, now);
        cost
    }

    /// Performs a non-temporal (streaming, e.g. `movnt`) store that
    /// bypasses the caches. Used by the STREAM benchmark to measure raw
    /// memory bandwidth (paper §3.1, Fig. 8).
    pub fn store_stream(&self, core: usize, addr: Addr, now: SimTime) -> Duration {
        self.store_stream_inner(&mut self.inner.lock(), core, addr, now)
    }

    fn store_stream_inner(&self, g: &mut Inner, core: usize, addr: Addr, now: SimTime) -> Duration {
        let mut cost = STREAM_STORE_COST;
        if !g.tlbs[core].translate(addr) {
            g.stats.tlb_misses += 1;
            cost += self.lat.walk;
        }
        // NT stores invalidate any cached copy (in every core).
        if let Some(owner) = g.dirty_owner.remove(&addr.line()) {
            g.l1[owner].invalidate(addr);
            g.l2[owner].invalidate(addr);
        }
        g.l1[core].invalidate(addr);
        g.l2[core].invalidate(addr);
        let socket = self.socket_of(core);
        g.l3[socket].invalidate(addr);
        // The line left the L3, so a prefetch of it is no longer in
        // flight there (as in `invalidate_line`).
        g.drop_inflight(addr.line());
        let node = addr.node();
        let t = g.channels.reserve(node, addr.line(), now);
        g.stats.stream_stores += 1;
        g.stats.node_bytes[node.0] += LINE_SIZE;
        self.account_store_miss(g, core, self.is_local(core, node));
        g.persist_event(|obs| {
            obs.writeback(addr.line(), WritebackCause::Streaming, now, t.completes_at)
        });
        g.wc[core].push_back(t.completes_at);
        if g.wc[core].len() > WC_BUFFERS {
            let oldest = g.wc[core].pop_front().expect("non-empty");
            if oldest > now {
                let stall = oldest.duration_since(now);
                g.stats.store_stall += stall;
                self.platform.pmu().add(
                    core,
                    RawEvent::StallCyclesStoreBuffer,
                    self.stall_cycles(stall, now),
                );
                cost += stall;
            }
        }
        cost
    }

    /// Accounts one store-path DRAM access (RFO or streaming store) to
    /// the ground-truth stats and the store-miss PMU events. Flush
    /// writebacks deliberately never come through here: `pflush` already
    /// charges flushed lines, so double-feeding them into the asymmetric
    /// write model would price every persisted line twice.
    fn account_store_miss(&self, g: &mut Inner, core: usize, local: bool) {
        let pmu = self.platform.pmu();
        if local {
            g.stats.store_miss_local += 1;
            pmu.add(core, RawEvent::StoreMissLocal, 1);
        } else {
            g.stats.store_miss_remote += 1;
            pmu.add(core, RawEvent::StoreMissRemote, 1);
        }
    }

    /// `clflush`: writes back (if dirty) and invalidates a line, stalling
    /// until the writeback is accepted by the memory controller. The basis
    /// of the emulator's `pflush` (paper §3.1).
    pub fn flush(&self, core: usize, addr: Addr, now: SimTime) -> Duration {
        self.flush_inner(&mut self.inner.lock(), core, addr, now)
    }

    fn flush_inner(&self, g: &mut Inner, core: usize, addr: Addr, now: SimTime) -> Duration {
        g.stats.flushes += 1;
        let dirty = self.invalidate_line(g, core, addr);
        if dirty {
            let node = addr.node();
            let t = g.channels.reserve(node, addr.line(), now);
            g.stats.writebacks += 1;
            g.stats.node_bytes[node.0] += LINE_SIZE;
            g.persist_event(|obs| {
                obs.writeback(addr.line(), WritebackCause::Flush, now, t.completes_at)
            });
            t.queue_wait + t.transfer_time + FLUSH_ACCEPT
        } else {
            g.persist_event(|obs| obs.clean_flush(addr.line(), now));
            FLUSH_BASE
        }
    }

    /// `clflushopt`: writes back and invalidates without stalling;
    /// returns the instant the writeback completes, for `pcommit`-style
    /// draining (paper §6).
    pub fn flush_opt(&self, core: usize, addr: Addr, now: SimTime) -> (Duration, SimTime) {
        self.flush_opt_inner(&mut self.inner.lock(), core, addr, now)
    }

    fn flush_opt_inner(
        &self,
        g: &mut Inner,
        core: usize,
        addr: Addr,
        now: SimTime,
    ) -> (Duration, SimTime) {
        g.stats.flushes += 1;
        let dirty = self.invalidate_line(g, core, addr);
        if dirty {
            let node = addr.node();
            let t = g.channels.reserve(node, addr.line(), now);
            g.stats.writebacks += 1;
            g.stats.node_bytes[node.0] += LINE_SIZE;
            g.persist_event(|obs| {
                obs.writeback(addr.line(), WritebackCause::FlushOpt, now, t.completes_at)
            });
            (FLUSH_OPT_COST, t.completes_at)
        } else {
            g.persist_event(|obs| obs.clean_flush(addr.line(), now));
            (FLUSH_OPT_COST, now)
        }
    }

    fn invalidate_line(&self, g: &mut Inner, core: usize, addr: Addr) -> bool {
        let mut dirty = false;
        // clflush is architecturally global: snoop out any modified copy.
        if let Some(owner) = g.dirty_owner.remove(&addr.line()) {
            if let Some(d) = g.l1[owner].invalidate(addr) {
                dirty |= d;
            }
            if let Some(d) = g.l2[owner].invalidate(addr) {
                dirty |= d;
            }
        }
        if let Some(d) = g.l1[core].invalidate(addr) {
            dirty |= d;
        }
        if let Some(d) = g.l2[core].invalidate(addr) {
            dirty |= d;
        }
        let socket = self.socket_of(core);
        if let Some(d) = g.l3[socket].invalidate(addr) {
            dirty |= d;
        }
        g.drop_inflight(addr.line());
        dirty
    }
}

impl std::fmt::Debug for MemorySystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MemorySystem")
            .field("arch", &self.platform.arch())
            .field("config", &self.config)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz_platform::{Architecture, PlatformConfig};

    fn mem(arch: Architecture) -> MemorySystem {
        let platform = Platform::new(PlatformConfig::new(arch).with_perfect_counters());
        MemorySystem::new(platform, MemSimConfig::default().without_jitter())
    }

    /// The latencies and the core-to-socket table computed once at
    /// construction equal what the access paths used to compute per
    /// access.
    #[test]
    fn precomputed_latencies_and_sockets_match_their_sources() {
        for arch in Architecture::ALL {
            let m = mem(arch);
            let params = m.platform().arch_params();
            assert_eq!(m.lat.l1, Duration::from_ns_f64(params.l1_ns));
            assert_eq!(m.lat.l2, Duration::from_ns_f64(params.l2_ns));
            assert_eq!(m.lat.l3, Duration::from_ns_f64(params.l3_ns));
            assert_eq!(
                m.lat.hitm,
                Duration::from_ns_f64(params.l3_ns * SNOOP_HITM_FACTOR)
            );
            assert_eq!(m.lat.walk, Duration::from_ns_f64(m.config().tlb.walk_ns));
            for (cached, band) in [
                (m.lat.local_dram, params.local_dram_ns),
                (m.lat.remote_dram, params.remote_dram_ns),
            ] {
                assert_eq!(cached, (band.avg_ns as f64, band.jitter_ns()));
            }
            assert_eq!(STREAM_STORE_COST, Duration::from_ns_f64(0.5));
            assert_eq!(FLUSH_OPT_COST, Duration::from_ns_f64(1.0));
            assert_eq!(FLUSH_BASE, Duration::from_ns_f64(4.0));
            assert_eq!(FLUSH_ACCEPT, Duration::from_ns_f64(10.0));
            let topo = m.platform().topology();
            for core in 0..topo.num_cores() {
                let c = quartz_platform::CoreId(core);
                assert_eq!(m.socket_of(core), topo.socket_of(c).0);
                for node in 0..topo.num_nodes() {
                    assert_eq!(
                        m.is_local(core, NodeId(node)),
                        topo.is_local(c, NodeId(node))
                    );
                }
            }
        }
    }

    /// The cores whose L1 and L2 and the sockets whose L3 are built.
    fn built(m: &MemorySystem) -> [Vec<usize>; 3] {
        let g = m.inner.lock();
        let on = |cs: &[Cache]| (0..cs.len()).filter(|&i| cs[i].is_built()).collect();
        [on(&g.l1), on(&g.l2), on(&g.l3)]
    }

    /// A machine builds no cache; each is built by its first fill, so a
    /// run pays only for the cores and sockets it touches.
    #[test]
    fn caches_are_built_at_their_first_fill() {
        let m = mem(Architecture::IvyBridge);
        assert_eq!(built(&m), [vec![], vec![], vec![]]);
        let a = m.alloc(NodeId(0), 4096).unwrap();
        m.load(0, a, SimTime::ZERO);
        assert_eq!(built(&m), [vec![0], vec![0], vec![0]]);
        let far = m.platform().topology().num_cores() - 1;
        assert_eq!(m.socket_of(far), 1);
        m.store(far, a, SimTime::from_ns(200));
        assert_eq!(built(&m), [vec![0, far], vec![0, far], vec![0, 1]]);
    }

    #[test]
    fn load_hierarchy_levels() {
        let m = mem(Architecture::IvyBridge);
        let a = m.alloc(NodeId(0), 4096).unwrap();
        let r1 = m.load(0, a, SimTime::ZERO);
        assert_eq!(r1.served, ServiceLevel::DramLocal);
        // First touch pays DRAM latency plus a TLB page walk.
        assert!((r1.stall.as_ns_f64() - 117.0).abs() < 1.0, "{}", r1.stall);
        let r2 = m.load(0, a, SimTime::from_ns(200));
        assert_eq!(r2.served, ServiceLevel::L1);
    }

    #[test]
    fn remote_load_is_slower() {
        let m = mem(Architecture::IvyBridge);
        // Core 0 is on socket 0; node 1 is remote.
        let a = m.alloc(NodeId(1), 4096).unwrap();
        // Warm the TLB with a neighbouring line so the second access is a
        // pure DRAM latency measurement.
        m.load(0, a.offset_by(64), SimTime::ZERO);
        let r = m.load(0, a, SimTime::from_ns(300));
        assert_eq!(r.served, ServiceLevel::DramRemote);
        assert!((r.stall.as_ns_f64() - 176.0).abs() < 1.0, "{}", r.stall);
    }

    #[test]
    fn pmu_events_fed_correctly() {
        let m = mem(Architecture::Haswell);
        let a = m.alloc(NodeId(0), 4096).unwrap();
        let b = m.alloc(NodeId(1), 4096).unwrap();
        m.load(0, a, SimTime::ZERO);
        m.load(0, b, SimTime::ZERO);
        let pmu = m.platform().pmu();
        assert_eq!(pmu.raw(0, RawEvent::L3MissLocalLoads), 1);
        assert_eq!(pmu.raw(0, RawEvent::L3MissRemoteLoads), 1);
        assert!(pmu.raw(0, RawEvent::StallCyclesL2Pending) > 0);
        // L1 hit adds nothing further.
        let before = pmu.raw(0, RawEvent::StallCyclesL2Pending);
        m.load(0, a, SimTime::from_ns(500));
        assert_eq!(pmu.raw(0, RawEvent::StallCyclesL2Pending), before);
    }

    #[test]
    fn batch_loads_overlap() {
        let m = mem(Architecture::IvyBridge);
        // 8 independent lines on different channels/sets.
        let addrs: Vec<Addr> = (0..8).map(|_| m.alloc(NodeId(0), 4096).unwrap()).collect();
        let stall = m.load_batch(0, &addrs, SimTime::ZERO);
        // All 8 fit in 10 MSHRs: total stall ≈ one DRAM latency, not 8.
        let ns = stall.as_ns_f64();
        assert!(ns < 2.0 * 87.0, "batch stall {ns} ns should be ~1 latency");
        assert!(ns >= 80.0);
        assert_eq!(m.stats().dram_local, 8);
    }

    #[test]
    fn batch_beyond_mshrs_serializes_groups() {
        let m = mem(Architecture::IvyBridge);
        let addrs: Vec<Addr> = (0..20).map(|_| m.alloc(NodeId(0), 4096).unwrap()).collect();
        let stall = m.load_batch(0, &addrs, SimTime::ZERO).as_ns_f64();
        // 20 misses / 10 MSHRs = 2 groups ≈ 2 latencies (plus TLB walks
        // and channel queueing).
        assert!(stall > 1.5 * 87.0 && stall < 4.0 * 87.0, "{stall}");
    }

    #[test]
    fn sequential_scan_gets_prefetched() {
        let m = mem(Architecture::IvyBridge);
        let a = m.alloc(NodeId(0), 1 << 20).unwrap();
        let mut now = SimTime::ZERO;
        let mut dram_stalls = 0u32;
        for i in 0..2_000u64 {
            let r = m.load(0, a.offset_by(i * 64), now);
            now += r.stall + Duration::from_ns(1);
            if matches!(r.served, ServiceLevel::DramLocal) {
                dram_stalls += 1;
            }
        }
        let s = m.stats();
        assert!(s.prefetches_issued > 500, "prefetcher should engage: {s:?}");
        assert!(
            (dram_stalls as f64) < 0.5 * 2_000.0,
            "most loads served without full DRAM stall: {dram_stalls}"
        );
    }

    #[test]
    fn pointer_chase_defeats_prefetcher() {
        let m = mem(Architecture::IvyBridge);
        let a = m.alloc(NodeId(0), 1 << 22).unwrap();
        // Visit lines in a scrambled order with large strides.
        let mut now = SimTime::ZERO;
        let lines = 1 << 14;
        let mut idx = 1u64;
        let mut dram = 0;
        for _ in 0..2_000 {
            idx = (idx.wrapping_mul(1_103_515_245).wrapping_add(12_345)) % lines;
            let r = m.load(0, a.offset_by(idx * 64), now);
            now += r.stall;
            if matches!(r.served, ServiceLevel::DramLocal) {
                dram += 1;
            }
        }
        assert!(dram > 1_500, "random chase mostly misses: {dram}");
    }

    #[test]
    fn stores_are_posted() {
        let m = mem(Architecture::IvyBridge);
        let a = m.alloc(NodeId(0), 1 << 20).unwrap();
        // Warm the TLB so the store cost is isolated from the page walk.
        m.load(0, a.offset_by(64), SimTime::ZERO);
        let stalls_before = m.platform().pmu().raw(0, RawEvent::StallCyclesL2Pending);
        // A store miss does not stall for the full DRAM latency.
        let cost = m.store(0, a, SimTime::from_ns(300));
        assert!(cost.as_ns_f64() < 20.0, "store cost {cost}");
        assert_eq!(m.stats().rfos, 1);
        // The store added no load-stall cycles.
        assert_eq!(
            m.platform().pmu().raw(0, RawEvent::StallCyclesL2Pending),
            stalls_before
        );
    }

    #[test]
    fn store_buffer_backpressure() {
        let m = mem(Architecture::IvyBridge);
        let a = m.alloc(NodeId(0), 1 << 24).unwrap();
        let mut now = SimTime::ZERO;
        let mut stalled = Duration::ZERO;
        for i in 0..200u64 {
            let c = m.store(0, a.offset_by(i * 4096 + (i % 7) * 64), now);
            now += c;
            stalled += c;
        }
        // Eventually the RFO buffer fills and stores stall.
        assert!(m.stats().store_stall > Duration::ZERO);
        assert!(stalled.as_ns_f64() > 100.0);
        // Buffer-full waits surface as store-buffer stall cycles, the
        // store-side analogue of STALLS_L2_PENDING.
        assert!(m.platform().pmu().raw(0, RawEvent::StallCyclesStoreBuffer) > 0);
    }

    #[test]
    fn store_misses_feed_store_side_pmu_events() {
        let m = mem(Architecture::Haswell);
        let local = m.alloc(NodeId(0), 4096).unwrap();
        let remote = m.alloc(NodeId(1), 4096).unwrap();
        m.store(0, local, SimTime::ZERO);
        m.store(0, remote, SimTime::from_ns(100));
        let pmu = m.platform().pmu();
        assert_eq!(pmu.raw(0, RawEvent::StoreMissLocal), 1);
        assert_eq!(pmu.raw(0, RawEvent::StoreMissRemote), 1);
        assert_eq!(m.stats().store_miss_local, 1);
        assert_eq!(m.stats().store_miss_remote, 1);
        // Streaming stores count as store misses too.
        m.store_stream(0, local.offset_by(128), SimTime::from_ns(200));
        assert_eq!(pmu.raw(0, RawEvent::StoreMissLocal), 2);
        assert_eq!(m.stats().store_misses(), 3);
        // A store that hits in cache feeds nothing further...
        m.store(0, local, SimTime::from_ns(300));
        assert_eq!(m.stats().store_misses(), 3);
        // ...and neither does flushing a dirty line: pflush already
        // charges flushed lines, so the flush writeback must not be
        // double-counted as a store miss.
        m.flush(0, remote, SimTime::from_ns(400));
        assert_eq!(pmu.raw(0, RawEvent::StoreMissRemote), 1);
        assert_eq!(m.stats().store_misses(), 3);
        // Load-side counters never moved.
        assert_eq!(pmu.raw(0, RawEvent::L3MissLocalLoads), 0);
    }

    #[test]
    fn flush_writes_back_dirty_lines() {
        let m = mem(Architecture::IvyBridge);
        let a = m.alloc(NodeId(0), 4096).unwrap();
        m.store(0, a, SimTime::ZERO);
        let stall = m.flush(0, a, SimTime::from_ns(100));
        assert!(stall.as_ns_f64() >= 10.0, "dirty flush stalls: {stall}");
        // Line is gone: next load misses to DRAM.
        let r = m.load(0, a, SimTime::from_ns(500));
        assert_eq!(r.served, ServiceLevel::DramLocal);
        // Clean flush is cheap.
        let stall2 = m.flush(0, a, SimTime::from_ns(900));
        // The loaded line is clean, so only invalidation cost.
        assert!(stall2 <= FLUSH_ACCEPT + Duration::from_ns(10));
    }

    #[test]
    fn flush_opt_does_not_stall() {
        let m = mem(Architecture::IvyBridge);
        let a = m.alloc(NodeId(0), 4096).unwrap();
        m.store(0, a, SimTime::ZERO);
        let (cost, done) = m.flush_opt(0, a, SimTime::from_ns(50));
        assert!(cost.as_ns_f64() <= 2.0);
        assert!(done > SimTime::from_ns(50));
    }

    #[test]
    fn throttling_reduces_achieved_bandwidth() {
        let m = mem(Architecture::SandyBridge);
        let kmod = m.platform().kernel_module();
        let a = m.alloc(NodeId(0), 1 << 24).unwrap();

        let run = |m: &MemorySystem, start: SimTime| -> f64 {
            m.reset_stats();
            let mut now = start;
            for i in 0..4_000u64 {
                let c = m.store_stream(0, a.offset_by((i % 100_000) * 64), now);
                now += c;
            }
            let elapsed = now.duration_since(start);
            m.stats().bandwidth_gbps(elapsed)
        };

        let full = run(&m, SimTime::ZERO);
        kmod.set_dimm_throttle(quartz_platform::SocketId(0), 0x200)
            .unwrap();
        m.invalidate_caches();
        let throttled = run(&m, SimTime::from_ms(100));
        assert!(
            throttled < full / 4.0,
            "throttled {throttled} vs full {full}"
        );
    }

    /// A streaming store takes its line out of the L3 and with it the
    /// line's in-flight prefetch record, so the stream's next prefetch
    /// of that line is issued rather than skipped as already in flight.
    #[test]
    fn streaming_store_drops_the_in_flight_record() {
        let m = mem(Architecture::IvyBridge);
        let a = m.alloc(NodeId(0), 1 << 16).unwrap();
        let line = |k: u64| a.offset_by(k * LINE_SIZE);
        let mut now = SimTime::ZERO;
        // Three sequential loads reach the trigger: lines 3.. are
        // prefetched and in flight.
        for k in 0..3 {
            now += m.load(0, line(k), now).stall;
        }
        let five = line(5);
        {
            let g = m.inner.lock();
            assert!(g.l3[0].contains(five));
            assert!(g.inflight.contains_key(&five.line()));
        }
        now += m.store_stream(0, five, now);
        {
            let g = m.inner.lock();
            assert!(!g.l3[0].contains(five), "the streaming store evicts");
            assert!(
                !g.inflight.contains_key(&five.line()),
                "no in-flight record outlives its line"
            );
        }
        // The next load of the stream prefetches line 5 again.
        let issued = m.stats().prefetches_issued;
        m.load(0, line(3), now);
        let g = m.inner.lock();
        assert!(g.l3[0].contains(five), "line 5 prefetched again");
        assert!(g.inflight.contains_key(&five.line()));
        assert!(g.stats.prefetches_issued > issued);
    }

    #[test]
    fn invalidate_caches_forces_remisses() {
        let m = mem(Architecture::IvyBridge);
        let a = m.alloc(NodeId(0), 4096).unwrap();
        m.load(0, a, SimTime::ZERO);
        m.invalidate_caches();
        let r = m.load(0, a, SimTime::from_ns(10_000));
        assert_eq!(r.served, ServiceLevel::DramLocal);
    }

    #[test]
    fn persist_observer_sees_store_flush_and_clean_flush() {
        use crate::persist::{PersistObserver, WritebackCause};

        #[derive(Default)]
        struct Rec {
            events: Mutex<Vec<String>>,
        }
        impl PersistObserver for Rec {
            fn store_dirtied(&self, core: usize, line: u64, _now: SimTime) {
                self.events.lock().push(format!("store c{core} l{line}"));
            }
            fn writeback(
                &self,
                line: u64,
                cause: WritebackCause,
                initiated: SimTime,
                completes_at: SimTime,
            ) {
                assert!(completes_at > initiated, "writeback must take time");
                self.events
                    .lock()
                    .push(format!("wb {} l{line}", cause.label()));
            }
            fn clean_flush(&self, line: u64, _now: SimTime) {
                self.events.lock().push(format!("clean l{line}"));
            }
            fn caches_invalidated(&self) {
                self.events.lock().push("inval".into());
            }
        }

        let m = mem(Architecture::IvyBridge);
        assert!(m.persist_observer().is_none());
        let rec = Arc::new(Rec::default());
        m.set_persist_observer(Some(rec.clone()));
        assert!(m.persist_observer().is_some());
        let a = m.alloc(NodeId(0), 4096).unwrap();
        let line = a.line();
        m.store(0, a, SimTime::ZERO);
        m.flush(0, a, SimTime::from_ns(100));
        // Line is gone: a second flush is clean.
        m.flush(0, a, SimTime::from_ns(200));
        m.store_stream(0, a, SimTime::from_ns(300));
        m.invalidate_caches();
        let events = rec.events.lock().clone();
        assert_eq!(
            events,
            vec![
                format!("store c0 l{line}"),
                format!("wb flush l{line}"),
                format!("clean l{line}"),
                format!("wb streaming l{line}"),
                "inval".to_string(),
            ]
        );
        // Uninstall: no further events.
        m.set_persist_observer(None);
        assert!(m.persist_observer().is_none());
        m.store(0, a, SimTime::from_ns(400));
        assert_eq!(rec.events.lock().len(), events.len());
    }

    /// Hoisting the observer check onto a cached flag must not change
    /// what a run computes: the same workload with and without an
    /// observer installed produces identical ground-truth stats, and the
    /// observer still sees every event (count pinned here, exact stream
    /// pinned by `persist_observer_sees_store_flush_and_clean_flush`).
    #[test]
    fn observer_presence_does_not_change_stats() {
        struct Counter(Mutex<u64>);
        impl PersistObserver for Counter {
            fn store_dirtied(&self, _core: usize, _line: u64, _now: SimTime) {
                *self.0.lock() += 1;
            }
            fn writeback(&self, _line: u64, _cause: WritebackCause, _i: SimTime, _c: SimTime) {
                *self.0.lock() += 1;
            }
            fn clean_flush(&self, _line: u64, _now: SimTime) {
                *self.0.lock() += 1;
            }
            fn caches_invalidated(&self) {
                *self.0.lock() += 1;
            }
        }

        let workload = |m: &MemorySystem| {
            let a = m.alloc(NodeId(0), 1 << 16).unwrap();
            let mut now = SimTime::ZERO;
            for i in 0..300u64 {
                let r = m.load(0, a.offset_by((i % 40) * 64), now);
                now += r.stall;
                now += m.store(1, a.offset_by((i % 17) * 64), now);
                if i % 5 == 0 {
                    now += m.flush(0, a.offset_by((i % 17) * 64), now);
                }
                if i % 9 == 0 {
                    now += m.store_stream(0, a.offset_by(4096 + i * 64), now);
                }
            }
            m.invalidate_caches();
            m.stats()
        };

        let plain = workload(&mem(Architecture::IvyBridge));
        let observed = mem(Architecture::IvyBridge);
        let counter = Arc::new(Counter(Mutex::new(0)));
        observed.set_persist_observer(Some(counter.clone()));
        let with_obs = workload(&observed);
        assert_eq!(plain, with_obs, "observer must be side-effect free");
        assert!(*counter.0.lock() > 300, "observer saw the event stream");
    }

    #[test]
    fn stats_reset() {
        let m = mem(Architecture::IvyBridge);
        let a = m.alloc(NodeId(0), 4096).unwrap();
        m.load(0, a, SimTime::ZERO);
        assert!(m.stats().total_loads() > 0);
        m.reset_stats();
        assert_eq!(m.stats().total_loads(), 0);
    }

    /// One memory operation, with the address it accesses.
    enum Op {
        Load(Addr),
        LoadBatch(Vec<Addr>),
        Store(Addr),
        StoreStream(Addr),
        Flush(Addr),
        FlushOpt(Addr),
        InvalidateCaches,
    }

    /// Issues `op` from `core` at `now` and returns what it costs the
    /// core.
    fn issue(m: &MemorySystem, core: usize, op: &Op, now: SimTime) -> Duration {
        match op {
            Op::Load(a) => m.load(core, *a, now).stall,
            Op::LoadBatch(addrs) => m.load_batch(core, addrs, now),
            Op::Store(a) => m.store(core, *a, now),
            Op::StoreStream(a) => m.store_stream(core, *a, now),
            Op::Flush(a) => m.flush(core, *a, now),
            Op::FlushOpt(a) => m.flush_opt(core, *a, now).0,
            Op::InvalidateCaches => {
                m.invalidate_caches();
                Duration::ZERO
            }
        }
    }

    /// A live run that keeps every operation it issues with its core
    /// and issue time, so the same list can be issued into another
    /// machine.
    struct LiveRun {
        mem: MemorySystem,
        now: SimTime,
        issued: Vec<(usize, Op, SimTime)>,
    }

    impl LiveRun {
        fn new(mem: MemorySystem) -> Self {
            LiveRun {
                mem,
                now: SimTime::ZERO,
                issued: Vec::new(),
            }
        }

        /// Issues `op` now and advances the clock by its cost.
        fn issue(&mut self, core: usize, op: Op) {
            let cost = issue(&self.mem, core, &op, self.now);
            self.issued.push((core, op, self.now));
            self.now += cost;
        }

        /// Issues the kept list into `m` at the recorded times.
        fn issue_into(&self, m: &MemorySystem) {
            for (core, op, now) in &self.issued {
                issue(m, *core, op, *now);
            }
        }
    }

    /// The live run's operations, issued at their recorded times into a
    /// fresh, identically configured machine, reproduce the
    /// ground-truth stats exactly.
    #[test]
    fn replay_matches_live_run_byte_identically() {
        let mut live = LiveRun::new(mem(Architecture::IvyBridge));
        let a = live.mem.alloc(NodeId(0), 1 << 16).unwrap();
        for i in 0..200u64 {
            live.issue(0, Op::Load(a.offset_by((i % 50) * 64)));
            live.issue(1, Op::Store(a.offset_by((i % 13) * 64)));
            if i % 7 == 0 {
                live.issue(0, Op::Flush(a.offset_by((i % 13) * 64)));
            }
            if i % 11 == 0 {
                let batch = (0..4).map(|k| a.offset_by(8192 + k * 64)).collect();
                live.issue(0, Op::LoadBatch(batch));
            }
            if i % 17 == 0 {
                live.issue(1, Op::StoreStream(a.offset_by(16_384 + i * 64)));
            }
            if i % 19 == 0 {
                live.issue(1, Op::FlushOpt(a.offset_by((i % 13) * 64)));
            }
        }
        live.issue(0, Op::InvalidateCaches);

        // Same config, fresh machine — but allocate the same region so
        // node mapping matches.
        let fresh = mem(Architecture::IvyBridge);
        fresh.alloc(NodeId(0), 1 << 16).unwrap();
        live.issue_into(&fresh);
        assert_eq!(live.mem.stats(), fresh.stats());
    }

    /// The same operations issued into a machine with a smaller L1 load
    /// as often but hit the L1 less.
    #[test]
    fn replay_under_different_config_diverges() {
        let mut live = LiveRun::new(mem(Architecture::IvyBridge));
        let a = live.mem.alloc(NodeId(0), 1 << 18).unwrap();
        // A 16 KiB working set looped repeatedly: resident in the
        // default 32 KiB L1, thrashes a 4 KiB one.
        for i in 0..2_000u64 {
            live.issue(0, Op::Load(a.offset_by((i % 256) * 64)));
        }

        let platform =
            Platform::new(PlatformConfig::new(Architecture::IvyBridge).with_perfect_counters());
        let mut cfg = MemSimConfig::default().without_jitter();
        cfg.l1 = crate::config::CacheGeometry::new(4 * 1024, 2); // tiny L1
        let small = MemorySystem::new(platform, cfg);
        small.alloc(NodeId(0), 1 << 18).unwrap();
        live.issue_into(&small);
        let (live, small) = (live.mem.stats(), small.stats());
        assert_eq!(live.total_loads(), small.total_loads(), "same access count");
        assert!(
            small.l1_hits < live.l1_hits,
            "smaller L1 must hit less: {} vs {}",
            small.l1_hits,
            live.l1_hits
        );
    }
}

#[cfg(test)]
mod coherence_tests {
    use super::*;
    use quartz_platform::{Architecture, PlatformConfig};

    fn mem() -> MemorySystem {
        let platform =
            Platform::new(PlatformConfig::new(Architecture::IvyBridge).with_perfect_counters());
        MemorySystem::new(platform, MemSimConfig::default().without_jitter())
    }

    #[test]
    fn store_invalidates_other_cores_copies() {
        let m = mem();
        let a = m.alloc(NodeId(0), 4096).unwrap();
        // Core 1 caches the line.
        m.load(1, a, SimTime::ZERO);
        assert_eq!(m.load(1, a, SimTime::from_ns(200)).served, ServiceLevel::L1);
        // Core 0 writes it: core 1's private copy must be gone. Its next
        // read is a HITM snoop from core 0's modified line.
        m.store(0, a, SimTime::from_ns(400));
        let r = m.load(1, a, SimTime::from_ns(600));
        assert_eq!(r.served, ServiceLevel::SnoopHitm);
        // After the transfer the line is shared: core 1 hits privately.
        assert_eq!(m.load(1, a, SimTime::from_ns(800)).served, ServiceLevel::L1);
    }

    #[test]
    fn snoop_hitm_is_invisible_to_table1_counters() {
        let m = mem();
        let a = m.alloc(NodeId(0), 4096).unwrap();
        m.store(0, a, SimTime::ZERO);
        let pmu = m.platform().pmu();
        let hits_before = pmu.raw(1, RawEvent::L3HitLoads);
        let miss_before = pmu.raw(1, RawEvent::L3MissLocalLoads);
        let stalls_before = pmu.raw(1, RawEvent::StallCyclesL2Pending);
        let r = m.load(1, a, SimTime::from_ns(300));
        assert_eq!(r.served, ServiceLevel::SnoopHitm);
        // Stall cycles counted; neither hit nor miss moved.
        assert_eq!(pmu.raw(1, RawEvent::L3HitLoads), hits_before);
        assert_eq!(pmu.raw(1, RawEvent::L3MissLocalLoads), miss_before);
        assert!(pmu.raw(1, RawEvent::StallCyclesL2Pending) > stalls_before);
        assert_eq!(m.stats().snoop_hitm, 1);
    }

    #[test]
    fn snoop_is_faster_than_dram_but_slower_than_l3() {
        let m = mem();
        let a = m.alloc(NodeId(0), 4096).unwrap();
        m.store(0, a, SimTime::ZERO);
        let r = m.load(1, a, SimTime::from_ns(300));
        let ns = r.stall.as_ns_f64();
        let params = m.platform().arch_params();
        assert!(ns > params.l3_ns, "snoop slower than L3 hit: {ns}");
        assert!(
            ns < params.local_dram_ns.avg_ns as f64,
            "but faster than DRAM: {ns}"
        );
    }

    #[test]
    fn clflush_snoops_out_remote_dirty_copy() {
        let m = mem();
        let a = m.alloc(NodeId(0), 4096).unwrap();
        m.store(0, a, SimTime::ZERO);
        // Core 3 flushes a line core 0 holds modified: the writeback
        // must happen (dirty found via the snoop).
        let stall = m.flush(3, a, SimTime::from_ns(300));
        assert!(stall.as_ns_f64() >= 10.0, "dirty writeback: {stall}");
        // Nobody holds it now: next load goes to DRAM.
        let r = m.load(0, a, SimTime::from_ns(900));
        assert_eq!(r.served, ServiceLevel::DramLocal);
    }

    #[test]
    fn own_store_then_own_load_stays_private() {
        let m = mem();
        let a = m.alloc(NodeId(0), 4096).unwrap();
        m.store(0, a, SimTime::ZERO);
        assert_eq!(m.load(0, a, SimTime::from_ns(200)).served, ServiceLevel::L1);
    }

    #[test]
    fn store_invalidates_a_core_refilled_after_invalidate_caches() {
        let m = mem();
        let a = m.alloc(NodeId(0), 4096).unwrap();
        // Core 39 caches the line; invalidating the caches empties the
        // active-core set, and the reload must register core 39 again.
        m.load(39, a, SimTime::ZERO);
        m.invalidate_caches();
        m.load(39, a, SimTime::from_ns(1_000));
        assert_eq!(
            m.load(39, a, SimTime::from_ns(1_200)).served,
            ServiceLevel::L1
        );
        // Core 0's store must reach core 39's copy.
        m.store(0, a, SimTime::from_ns(1_400));
        let r = m.load(39, a, SimTime::from_ns(1_600));
        assert_eq!(r.served, ServiceLevel::SnoopHitm);
    }

    #[test]
    fn ping_pong_between_writers() {
        let m = mem();
        let a = m.alloc(NodeId(0), 4096).unwrap();
        let mut now = SimTime::ZERO;
        for i in 0..10 {
            let writer = i % 2;
            let reader = 1 - writer;
            m.store(writer, a, now);
            now += Duration::from_ns(100);
            let r = m.load(reader, a, now);
            now += r.stall;
            assert_eq!(r.served, ServiceLevel::SnoopHitm, "round {i}");
            now += Duration::from_ns(100);
        }
    }
}

#[cfg(test)]
mod active_core_tests {
    use super::*;
    use crate::config::CacheGeometry;
    use proptest::prelude::*;
    use quartz_platform::{Architecture, PlatformConfig};

    /// The cores the sequences run on: both sockets, first and last.
    const CORES: [usize; 4] = [0, 7, 21, 39];
    /// Lines per node the sequences touch.
    const LINES: u64 = 96;

    /// A full 40-core IvyBridge with tiny caches, so short sequences
    /// evict through every fill path (dirty L1 victims into L2, L2
    /// victims into L3, dirty L3 victims to DRAM).
    fn machine() -> (MemorySystem, [Addr; 2]) {
        let platform =
            Platform::new(PlatformConfig::new(Architecture::IvyBridge).with_perfect_counters());
        assert_eq!(platform.topology().num_cores(), 40);
        let config = MemSimConfig {
            l1: CacheGeometry::new(512, 2),
            l2: CacheGeometry::new(2048, 4),
            l3: CacheGeometry::new(8192, 8),
            ..MemSimConfig::default()
        };
        let m = MemorySystem::new(platform, config);
        let bases = [
            m.alloc(NodeId(0), LINES * LINE_SIZE).unwrap(),
            m.alloc(NodeId(1), LINES * LINE_SIZE).unwrap(),
        ];
        (m, bases)
    }

    /// The active-core set is exactly `expected`, and every core
    /// outside it holds no valid L1 or L2 line.
    fn check(m: &MemorySystem, expected: &[bool]) {
        let g = m.inner.lock();
        assert_eq!(g.is_active, expected, "active flags");
        let mut listed = g.active_cores.clone();
        listed.sort_unstable();
        listed.dedup();
        assert_eq!(listed.len(), g.active_cores.len(), "no core listed twice");
        let flagged: Vec<usize> = (0..expected.len()).filter(|&c| expected[c]).collect();
        assert_eq!(listed, flagged, "list and flags agree");
        for c in (0..g.l1.len()).filter(|&c| !g.is_active[c]) {
            assert_eq!(g.l1[c].occupancy(), 0, "inactive core {c} holds L1 lines");
            assert_eq!(g.l2[c].occupancy(), 0, "inactive core {c} holds L2 lines");
        }
    }

    proptest! {
        /// For any sequence of loads, batches, stores, streaming
        /// stores, flushes and cache invalidations, the active-core set
        /// holds exactly the cores that loaded or stored since the last
        /// invalidation, and no other core's private caches hold a
        /// line — the invariant that lets a store write-invalidate only
        /// the active cores.
        #[test]
        fn inactive_cores_hold_no_private_lines(
            ops in proptest::collection::vec((0u8..7, 0usize..4, 0u64..LINES, 0usize..2), 1..160),
        ) {
            let (m, bases) = machine();
            let line = |node: usize, l: u64| bases[node].offset_by(l * LINE_SIZE);
            let mut expected = vec![false; 40];
            let mut now = SimTime::ZERO;
            for &(op, core, l, node) in &ops {
                let core = CORES[core];
                let a = line(node, l);
                let d = match op {
                    0 => m.load(core, a, now).stall,
                    1 => m.load_batch(core, &[a, line(1 - node, (l * 7 + 1) % LINES)], now),
                    2 => m.store(core, a, now),
                    3 => m.store_stream(core, a, now),
                    4 => m.flush(core, a, now),
                    5 => m.flush_opt(core, a, now).0,
                    _ => {
                        m.invalidate_caches();
                        Duration::ZERO
                    }
                };
                match op {
                    0..=2 => expected[core] = true,
                    6 => expected.fill(false),
                    _ => {}
                }
                check(&m, &expected);
                now += d + Duration::from_ns(1);
            }
        }
    }
}
