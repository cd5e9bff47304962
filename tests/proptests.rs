//! Property-based tests over the core data structures and model
//! invariants (proptest).

use proptest::prelude::*;

use quartz::model;
use quartz_memsim::cache::{Cache, Lookup};
use quartz_memsim::{Addr, CacheGeometry, MemorySystem, NumaAllocator};
use quartz_platform::pmu::{EventKind, FidelityModel, RawEvent};
use quartz_platform::time::{Duration, Frequency, SimTime};
use quartz_platform::{Architecture, NodeId};
use quartz_workloads::chain::{Chain, Rng};
use quartz_workloads::zipf::Zipf;

proptest! {
    // ------------------------------------------------------------------
    // Time arithmetic.
    // ------------------------------------------------------------------

    #[test]
    fn time_add_sub_roundtrips(base in 0u64..1 << 50, delta in 0u64..1 << 40) {
        let t = SimTime::from_ps(base);
        let d = Duration::from_ps(delta);
        prop_assert_eq!((t + d).duration_since(t), d);
        prop_assert_eq!((t + d) - d, t);
    }

    #[test]
    fn cycle_conversion_is_nearly_inverse(mhz in 800u64..4_000, cycles in 0u64..1 << 40) {
        let f = Frequency::from_mhz(mhz);
        let back = f.duration_to_cycles(f.cycles_to_duration(cycles));
        // Integer rounding may lose at most one cycle.
        prop_assert!(back <= cycles && cycles - back <= 1);
    }

    #[test]
    fn duration_from_f64_is_monotone(a in 0.0f64..1e9, b in 0.0f64..1e9) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(Duration::from_ns_f64(lo) <= Duration::from_ns_f64(hi));
    }

    // ------------------------------------------------------------------
    // Addresses.
    // ------------------------------------------------------------------

    #[test]
    fn addr_node_encoding_roundtrips(node in 0usize..16, offset in 0u64..1 << 40) {
        let a = Addr::on_node(NodeId(node), offset);
        prop_assert_eq!(a.node(), NodeId(node));
        prop_assert_eq!(a.offset(), offset);
    }

    #[test]
    fn addr_line_base_is_aligned(node in 0usize..4, offset in 0u64..1 << 30) {
        let a = Addr::on_node(NodeId(node), offset);
        prop_assert_eq!(a.line_base().offset() % 64, 0);
        prop_assert_eq!(a.line(), a.line_base().line());
    }

    // ------------------------------------------------------------------
    // Cache invariants.
    // ------------------------------------------------------------------

    #[test]
    fn cache_occupancy_never_exceeds_capacity(
        ways in 1usize..8,
        sets_log2 in 0u32..5,
        accesses in proptest::collection::vec(0u64..1 << 16, 1..200),
    ) {
        let sets = 1u64 << sets_log2;
        let size = sets * ways as u64 * 64;
        let mut cache = Cache::new(CacheGeometry::new(size, ways));
        let capacity = (sets as usize) * ways;
        for off in accesses {
            let a = Addr::on_node(NodeId(0), off * 64);
            if cache.touch(a) == Lookup::Miss {
                cache.fill(a, off % 3 == 0);
            }
            prop_assert!(cache.occupancy() <= capacity);
            // A just-filled line is always present.
            prop_assert!(cache.contains(a));
        }
    }

    #[test]
    fn cache_invalidate_removes_line(offsets in proptest::collection::vec(0u64..256, 1..50)) {
        let mut cache = Cache::new(CacheGeometry::new(4 * 1024, 4));
        for &off in &offsets {
            let a = Addr::on_node(NodeId(0), off * 64);
            cache.fill(a, false);
            cache.invalidate(a);
            prop_assert!(!cache.contains(a));
        }
    }

    // ------------------------------------------------------------------
    // Allocator invariants.
    // ------------------------------------------------------------------

    #[test]
    fn allocations_never_overlap(sizes in proptest::collection::vec(1u64..10_000, 1..40)) {
        let alloc = NumaAllocator::new(1, 1 << 30, false);
        let mut regions: Vec<(u64, u64)> = Vec::new();
        for bytes in sizes {
            let a = alloc.alloc(NodeId(0), bytes).unwrap();
            let start = a.offset();
            for &(s, e) in &regions {
                prop_assert!(start + bytes <= s || start >= e, "overlap");
            }
            regions.push((start, start + bytes));
        }
    }

    #[test]
    fn free_then_alloc_same_size_reuses(bytes in 64u64..100_000) {
        let alloc = NumaAllocator::new(1, 1 << 30, false);
        let a = alloc.alloc(NodeId(0), bytes).unwrap();
        alloc.free(a).unwrap();
        let b = alloc.alloc(NodeId(0), bytes).unwrap();
        prop_assert_eq!(a, b);
    }

    // ------------------------------------------------------------------
    // Analytic model invariants.
    // ------------------------------------------------------------------

    #[test]
    fn eq3_output_is_bounded_by_input_stalls(
        stalls in 0.0f64..1e12,
        hits in 0.0f64..1e9,
        misses in 0.0f64..1e9,
        w in 1.0f64..20.0,
    ) {
        let out = model::stalls_from_counters(stalls, hits, misses, w);
        prop_assert!(out >= 0.0);
        prop_assert!(out <= stalls * (1.0 + 1e-12));
    }

    #[test]
    fn eq2_delay_is_nonnegative_and_linear_in_target(
        stall_ns in 0.0f64..1e9,
        dram in 50.0f64..200.0,
        extra in 0.0f64..2_000.0,
    ) {
        let d1 = model::delay_stall_based_ns(stall_ns, dram, dram + extra);
        prop_assert!(d1 >= 0.0);
        let d2 = model::delay_stall_based_ns(stall_ns, dram, dram + 2.0 * extra);
        prop_assert!(d2 >= d1);
        // Below-substrate targets clamp to zero, never negative.
        prop_assert_eq!(model::delay_stall_based_ns(stall_ns, dram, dram - 1.0), 0.0);
    }

    #[test]
    fn stall_split_is_a_partition(
        total in 0.0f64..1e9,
        m_loc in 0u64..1_000_000,
        m_rem in 0u64..1_000_000,
        lat_loc in 50.0f64..150.0,
        lat_rem in 150.0f64..300.0,
    ) {
        let rem = model::split_remote_stall_ns(total, m_loc, m_rem, lat_loc, lat_rem);
        prop_assert!(rem >= 0.0);
        prop_assert!(rem <= total * (1.0 + 1e-12));
        // All-remote gets everything; all-local gets nothing.
        if m_loc == 0 && m_rem > 0 {
            prop_assert!((rem - total).abs() <= total * 1e-9 + 1e-9);
        }
        if m_rem == 0 {
            prop_assert_eq!(rem, 0.0);
        }
    }

    /// The asymmetric write model degenerates *exactly* to the symmetric
    /// one when write and read latency coincide: by linearity of Eq. 2,
    /// pricing load stalls and store-buffer stalls separately at the
    /// same latency equals pricing their sum once. This is the
    /// regression guard for the symmetric-byte-identity contract.
    #[test]
    fn asymmetric_delay_degenerates_when_latencies_match(
        ldm_ns in 0.0f64..1e9,
        sb_ns in 0.0f64..1e9,
        dram in 50.0f64..200.0,
        extra in 0.0f64..2_000.0,
    ) {
        let nvm = dram + extra;
        let asym = model::delay_asymmetric_ns(ldm_ns, sb_ns, dram, nvm, nvm);
        let sym = model::delay_stall_based_ns(ldm_ns + sb_ns, dram, nvm);
        let tol = sym.abs() * 1e-12 + 1e-9;
        prop_assert!((asym - sym).abs() <= tol, "{asym} != {sym}");
    }

    /// The write term is independent of the read latency and linear in
    /// the write-latency difference — read- and write-side pricing never
    /// bleed into each other.
    #[test]
    fn asymmetric_terms_are_independent(
        ldm_ns in 0.0f64..1e8,
        sb_ns in 0.0f64..1e8,
        dram in 50.0f64..200.0,
        r_extra in 0.0f64..2_000.0,
        w_extra in 0.0f64..2_000.0,
    ) {
        let d = model::delay_asymmetric_ns(ldm_ns, sb_ns, dram, dram + r_extra, dram + w_extra);
        let read = model::delay_stall_based_ns(ldm_ns, dram, dram + r_extra);
        let write = model::delay_stall_based_ns(sb_ns, dram, dram + w_extra);
        prop_assert!((d - (read + write)).abs() <= (read + write).abs() * 1e-12 + 1e-9);
        // A write latency at or below the substrate zeroes only the
        // write term.
        let d0 = model::delay_asymmetric_ns(ldm_ns, sb_ns, dram, dram + r_extra, dram);
        prop_assert!((d0 - read).abs() <= read.abs() * 1e-12 + 1e-9);
    }

    /// §3.3 latency-weighted split: the local and remote shares are an
    /// *exact* partition of the total stall time (what Eq. 2 charges is
    /// never more or less than what was measured), and the remote share
    /// grows with the remote latency — a slower remote memory soaks up
    /// a larger fraction of the same stall time.
    #[test]
    fn stall_split_shares_sum_and_remote_share_is_monotone_in_latency(
        total in 0.0f64..1e9,
        m_loc in 1u64..1_000_000,
        m_rem in 1u64..1_000_000,
        lat_loc in 50.0f64..150.0,
        lat_rem in 150.0f64..300.0,
        bump in 1.0f64..500.0,
    ) {
        let rem = model::split_remote_stall_ns(total, m_loc, m_rem, lat_loc, lat_rem);
        // The local share is the complement: swap the roles.
        let loc = model::split_remote_stall_ns(total, m_rem, m_loc, lat_rem, lat_loc);
        prop_assert!(
            (rem + loc - total).abs() <= total * 1e-9 + 1e-9,
            "shares must partition the total: {rem} + {loc} != {total}"
        );
        // Remote share is monotone in the remote latency.
        let rem_slower = model::split_remote_stall_ns(total, m_loc, m_rem, lat_loc, lat_rem + bump);
        prop_assert!(rem_slower >= rem - 1e-9);
        // Degenerate cases are exact, not approximate.
        prop_assert_eq!(model::split_remote_stall_ns(total, m_loc, 0, lat_loc, lat_rem), 0.0);
        prop_assert_eq!(model::split_remote_stall_ns(0.0, m_loc, m_rem, lat_loc, lat_rem), 0.0);
    }

    /// The degradation clamp chain: whatever garbage `LDM_STALL` the
    /// (possibly wrapped, skewed, or mis-read) counters produce, the
    /// injected delay lands in `[0, budget × (NVM/DRAM − 1)]` — the
    /// physical maximum if every budget cycle were a memory stall.
    #[test]
    fn clamped_delay_is_within_epoch_budget(
        ldm_stall in -1e6f64..1e18,
        span in 0u64..1 << 40,
        compute in 0u64..1 << 20,
        rdpmc in 0u64..1 << 16,
        mhz in 800u64..4_000,
        dram in 50.0f64..200.0,
        extra in 0.0f64..2_000.0,
    ) {
        let nvm = dram + extra;
        let budget_cycles = model::epoch_budget_cycles(span, compute, rdpmc);
        let (stall, _) = model::clamp_stall_cycles(ldm_stall, budget_cycles);
        prop_assert!(stall >= 0.0 && stall <= budget_cycles as f64);
        let f = Frequency::from_mhz(mhz);
        let budget_ns = f.cycles_to_duration(budget_cycles).as_ns_f64();
        let stall_ns = f.cycles_to_duration(stall.round() as u64).as_ns_f64();
        let raw = model::delay_stall_based_ns(stall_ns, dram, nvm);
        let (delay, _) = model::clamp_delay_ns(raw, budget_ns, dram, nvm);
        let cap = budget_ns * (nvm / dram - 1.0);
        prop_assert!(delay >= 0.0);
        prop_assert!(delay <= cap * (1.0 + 1e-9) + 1e-9, "{delay} > {cap}");
        // And a clamped value is a fixed point: clamping twice is
        // clamping once.
        let (again, fired) = model::clamp_delay_ns(delay, budget_ns, dram, nvm);
        prop_assert_eq!(again, delay);
        prop_assert!(!fired || delay == 0.0);
    }

    /// 48-bit wrap arithmetic: masked wrapping subtraction recovers the
    /// true increment for any park position and increment < 2^48.
    #[test]
    fn counter_wrap_math_recovers_increment(
        park in 0u64..(1u64 << 48),
        inc in 0u64..(1u64 << 47),
    ) {
        use quartz_platform::pmu::COUNTER_MASK;
        let now = park.wrapping_add(inc) & COUNTER_MASK;
        let delta = now.wrapping_sub(park) & COUNTER_MASK;
        prop_assert_eq!(delta, inc);
    }

    #[test]
    fn throttle_register_is_monotone(peak in 1.0f64..100.0, t1 in 0.0f64..100.0, t2 in 0.0f64..100.0) {
        let (lo, hi) = if t1 <= t2 { (t1, t2) } else { (t2, t1) };
        prop_assert!(
            model::throttle_register_for(lo, peak) <= model::throttle_register_for(hi, peak)
        );
        prop_assert!(model::throttle_register_for(hi, peak) <= 0xFFF);
        prop_assert!(model::throttle_register_for(lo, peak) >= 1);
    }

    // ------------------------------------------------------------------
    // Counter fidelity.
    // ------------------------------------------------------------------

    #[test]
    fn fidelity_skew_is_bounded(seed in 0u64..1 << 32, raw in 1u64..1 << 40) {
        for arch in Architecture::ALL {
            let params = arch.params();
            let m = FidelityModel::new(params, seed);
            let read = m.distort(EventKind::StallsL2Pending, raw) as f64;
            let rel = (read - raw as f64).abs() / raw as f64;
            // bias + ripple never exceeds 1.15x the amplitude.
            prop_assert!(rel <= 1.2 * params.stall_counter_skew + 1.0 / raw as f64);
        }
    }

    #[test]
    fn fidelity_is_deterministic(seed in 0u64..1 << 32, raw in 0u64..1 << 40) {
        let m = FidelityModel::new(Architecture::Haswell.params(), seed);
        prop_assert_eq!(
            m.distort(EventKind::L3Hit, raw),
            m.distort(EventKind::L3Hit, raw)
        );
    }

    // ------------------------------------------------------------------
    // Workload generators.
    // ------------------------------------------------------------------

    #[test]
    fn zipf_stays_in_range(n in 1u64..100_000, theta in 0.0f64..0.99, seed in 0u64..1 << 32) {
        let mut z = Zipf::new(n, theta, seed);
        for _ in 0..100 {
            prop_assert!(z.sample() < n);
        }
    }
}

// ----------------------------------------------------------------------
// Model-based tests: the set-associative cache against a reference LRU.
// ----------------------------------------------------------------------

/// Reference model: per-set vectors in exact LRU order.
#[derive(Default)]
struct RefCache {
    sets: u64,
    ways: usize,
    data: std::collections::HashMap<u64, Vec<(u64, bool)>>,
}

impl RefCache {
    fn new(sets: u64, ways: usize) -> Self {
        RefCache {
            sets,
            ways,
            data: Default::default(),
        }
    }

    fn set_of(&self, line: u64) -> u64 {
        line % self.sets
    }

    fn touch(&mut self, line: u64, dirty: bool) -> bool {
        let set = self.data.entry(self.set_of(line)).or_default();
        if let Some(pos) = set.iter().position(|(l, _)| *l == line) {
            let (l, d) = set.remove(pos);
            set.push((l, d || dirty));
            true
        } else {
            false
        }
    }

    /// A line already present is refreshed like a dirtying touch.
    fn fill(&mut self, line: u64, dirty: bool) -> Option<(u64, bool)> {
        if self.touch(line, dirty) {
            return None;
        }
        let ways = self.ways;
        let set = self.data.entry(self.set_of(line)).or_default();
        let evicted = if set.len() >= ways {
            Some(set.remove(0))
        } else {
            None
        };
        set.push((line, dirty));
        evicted
    }

    /// Removes the line from its set's list; returns its dirty bit.
    fn invalidate(&mut self, line: u64) -> Option<bool> {
        let set = self.data.entry(self.set_of(line)).or_default();
        let pos = set.iter().position(|(l, _)| *l == line)?;
        Some(set.remove(pos).1)
    }

    fn invalidate_all(&mut self) {
        self.data.clear();
    }

    fn occupancy(&self) -> usize {
        self.data.values().map(Vec::len).sum()
    }
}

/// Compares a real and a model eviction.
fn same_eviction(real: Option<quartz_memsim::cache::Evicted>, model: Option<(u64, bool)>) {
    match (real, model) {
        (None, None) => {}
        (Some(r), Some(m)) => {
            assert_eq!(r.line, m.0, "evicted different victims");
            assert_eq!(r.dirty, m.1, "victim dirtiness diverged");
        }
        (r, m) => panic!("eviction mismatch: {r:?} vs {m:?}"),
    }
}

/// The chain construction `Chain` replaced: the same Sattolo shuffle,
/// turned into a successor table (`next[perm[k]] = perm[k + 1]`) and
/// chased from `perm[0]`. Returns the first `steps` line indices visited.
fn successor_table_walk(len: u64, seed: u64, steps: usize) -> Vec<u64> {
    let n = len as usize;
    let mut perm: Vec<u32> = (0..len as u32).collect();
    let mut rng = Rng::new(seed);
    for i in (1..n).rev() {
        let j = rng.below(i as u64) as usize;
        perm.swap(i, j);
    }
    let mut next = vec![0u32; n];
    for k in 0..n {
        next[perm[k] as usize] = perm[(k + 1) % n];
    }
    let mut cur = perm[0];
    (0..steps)
        .map(|_| {
            let line = cur;
            cur = next[cur as usize];
            u64::from(line)
        })
        .collect()
}

proptest! {
    /// The cache against the reference LRU over random touches (a miss
    /// filled through the probe-free `fill_after_miss`), plain fills of
    /// present or absent lines, invalidations and whole-cache
    /// invalidations, on every geometry up to 16 sets of 16 ways. Lines
    /// come from twice the capacity, so sets both hit and evict.
    #[test]
    fn cache_matches_reference_lru_model(
        ways in 1usize..17,
        sets_log2 in 0u32..5,
        ops in proptest::collection::vec((0u8..128, 0u64..1 << 16, proptest::bool::ANY), 1..400),
    ) {
        let sets = 1u64 << sets_log2;
        let mut cache = Cache::new(CacheGeometry::new(sets * ways as u64 * 64, ways));
        let mut model = RefCache::new(sets, ways);
        let span = 2 * sets * ways as u64;
        for (kind, lineno, dirty) in ops {
            let a = Addr::on_node(NodeId(0), (lineno % span) * 64);
            let line = a.line();
            match kind {
                0 => {
                    cache.invalidate_all();
                    model.invalidate_all();
                }
                1..=8 => prop_assert_eq!(
                    cache.invalidate(a),
                    model.invalidate(line),
                    "invalidate diverged on line {}",
                    line
                ),
                9..=24 => same_eviction(cache.fill(a, dirty), model.fill(line, dirty)),
                _ => {
                    let hit_real = if dirty {
                        cache.touch_dirty(a) == Lookup::Hit
                    } else {
                        cache.touch(a) == Lookup::Hit
                    };
                    let hit_model = model.touch(line, dirty);
                    prop_assert_eq!(hit_real, hit_model, "hit/miss diverged on line {}", line);
                    if !hit_real {
                        same_eviction(cache.fill_after_miss(a, dirty), model.fill(line, dirty));
                    }
                }
            }
            prop_assert_eq!(cache.occupancy(), model.occupancy());
        }
    }

    // ------------------------------------------------------------------
    // Scheduler: mutual exclusion and determinism under random workloads.
    // ------------------------------------------------------------------

    #[test]
    fn mutex_never_admits_two_holders(
        thread_work in proptest::collection::vec(
            proptest::collection::vec(1u64..2_000, 1..12),
            2..5,
        ),
    ) {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
        use std::sync::Arc;
        let mem = quartz_bench::MachineSpec::new(Architecture::IvyBridge)
            .with_perfect_counters()
            .build();
        let engine = quartz_threadsim::Engine::new(mem);
        let inside = Arc::new(AtomicBool::new(false));
        let violations = Arc::new(AtomicU64::new(0));
        let i2 = Arc::clone(&inside);
        let v2 = Arc::clone(&violations);
        engine.run(move |ctx| {
            let m = ctx.mutex_new();
            let mut kids = Vec::new();
            for work in thread_work {
                let inside = Arc::clone(&i2);
                let violations = Arc::clone(&v2);
                kids.push(ctx.spawn(move |c| {
                    for ns in work {
                        c.mutex_lock(m);
                        if inside.swap(true, Ordering::SeqCst) {
                            violations.fetch_add(1, Ordering::SeqCst);
                        }
                        c.compute_ns(ns as f64);
                        inside.store(false, Ordering::SeqCst);
                        c.mutex_unlock(m);
                        c.compute_ns(7.0);
                    }
                }));
            }
            for k in kids {
                ctx.join(k);
            }
        });
        prop_assert_eq!(violations.load(std::sync::atomic::Ordering::SeqCst), 0);
    }

    // ------------------------------------------------------------------
    // Persistence primitives: the §6 ordering invariant.
    // ------------------------------------------------------------------

    /// For ANY store trace, making it durable with pessimistic
    /// `pflush` (spin per flush) must cost at least as much virtual
    /// time as the `pflush_opt`…`pcommit` pair (announce, overlap,
    /// drain once), and both must cost a strictly positive amount.
    /// Bonus dedupe property: the pending-flush set never exceeds the
    /// number of distinct lines and is fully drained by `pcommit`.
    #[test]
    fn pessimistic_flush_never_beats_opt_commit(
        lines in proptest::collection::vec(0u64..64, 1..32),
    ) {
        use quartz::{NvmTarget, QuartzConfig};

        let run = |optimized: bool, lines: Vec<u64>| -> (u64, usize, usize) {
            let mem = quartz_bench::MachineSpec::new(Architecture::IvyBridge)
                .with_perfect_counters()
                .with_no_jitter()
                .build();
            // A huge epoch keeps the monitor out of the measurement.
            let cfg = QuartzConfig::new(NvmTarget::new(300.0).with_write_delay_ns(450.0))
                .with_max_epoch(Duration::from_ms(100));
            let (out, _) = quartz_bench::run_workload(mem, Some(cfg), move |ctx, q| {
                let q = q.expect("quartz attached");
                let buf = q.pmalloc(ctx, 64 * 64).expect("pmalloc");
                let t0 = ctx.now();
                let mut pending_peak = 0usize;
                for &l in &lines {
                    let a = buf.offset_by(l * 64);
                    ctx.store(a);
                    if optimized {
                        q.pflush_opt(ctx, a);
                        pending_peak = pending_peak.max(q.pending_flushes(ctx));
                    } else {
                        q.pflush(ctx, a);
                    }
                }
                if optimized {
                    q.pcommit(ctx);
                }
                (
                    ctx.now().duration_since(t0).as_ps(),
                    pending_peak,
                    q.pending_flushes(ctx),
                )
            });
            out
        };

        let distinct = lines.iter().collect::<std::collections::HashSet<_>>().len();
        let (pessimistic_ps, _, _) = run(false, lines.clone());
        let (opt_ps, pending_peak, pending_after) = run(true, lines);
        prop_assert!(pessimistic_ps > 0 && opt_ps > 0);
        prop_assert!(
            pessimistic_ps >= opt_ps,
            "pflush trace ({pessimistic_ps} ps) must not be cheaper than \
             pflush_opt+pcommit ({opt_ps} ps)"
        );
        prop_assert!(
            pending_peak <= distinct,
            "pending flushes ({pending_peak}) exceeded distinct lines ({distinct})"
        );
        prop_assert_eq!(pending_after, 0, "pcommit must drain the pending set");
    }

    // ------------------------------------------------------------------
    // Memsim determinism.
    // ------------------------------------------------------------------

    /// For ANY access sequence — loads, batches, stores, streaming
    /// stores, flushes — the live run's operations, issued at their
    /// recorded times into a fresh machine of the same configuration,
    /// reproduce `MemStats` and the ground-truth PMU counts that Quartz
    /// reads through `rdpmc`, exactly.
    #[test]
    fn trace_replay_reproduces_stats(
        ops in proptest::collection::vec((0u8..6, 0u64..2_048, 0usize..2), 1..250),
    ) {
        let build = || {
            let mem = quartz_bench::MachineSpec::new(Architecture::IvyBridge)
                .with_seed(9)
                .build();
            let base = mem.alloc(NodeId(0), 2_048 * 64).unwrap();
            (mem, base)
        };
        let issue = |mem: &MemorySystem, base: Addr, (op, line, core): (u8, u64, usize), now| {
            let a = base.offset_by(line * 64);
            match op {
                0 => mem.load(core, a, now).stall,
                1 => mem.load_batch(
                    core,
                    &[a, base.offset_by(((line + 1) % 2_048) * 64)],
                    now,
                ),
                2 => mem.store(core, a, now),
                3 => mem.store_stream(core, a, now),
                4 => mem.flush(core, a, now),
                _ => mem.flush_opt(core, a, now).0,
            }
        };
        let (live, base) = build();
        let mut now = SimTime::ZERO;
        let mut issued = Vec::with_capacity(ops.len());
        for &op in &ops {
            issued.push(now);
            now += issue(&live, base, op, now) + Duration::from_ns(1);
        }
        let (fresh, base) = build();
        for (&op, &at) in ops.iter().zip(&issued) {
            issue(&fresh, base, op, at);
        }
        prop_assert_eq!(live.stats(), fresh.stats());
        for core in 0..2 {
            for ev in RawEvent::ALL {
                let raw = |m: &MemorySystem| m.platform().pmu().raw(core, ev);
                prop_assert_eq!(raw(&live), raw(&fresh), "core {} {:?}", core, ev);
            }
        }
    }

    #[test]
    fn simulation_end_time_is_deterministic(
        seeds in proptest::collection::vec(0u64..1_000, 2..4),
    ) {
        let run = |seeds: Vec<u64>| {
            let mem = quartz_bench::MachineSpec::new(Architecture::Haswell)
                .with_seed(42)
                .build();
            let engine = quartz_threadsim::Engine::new(mem);
            engine
                .run(move |ctx| {
                    let m = ctx.mutex_new();
                    let mut kids = Vec::new();
                    for s in seeds {
                        kids.push(ctx.spawn(move |c| {
                            let a = c.alloc_local(1 << 14);
                            for k in 0..40u64 {
                                c.mutex_lock(m);
                                c.load(a.offset_by(((k * 31 + s) % 256) * 64));
                                c.mutex_unlock(m);
                            }
                        }));
                    }
                    for k in kids {
                        ctx.join(k);
                    }
                })
                .end_time
                .as_ps()
        };
        prop_assert_eq!(run(seeds.clone()), run(seeds));
    }

    // ------------------------------------------------------------------
    // Pointer chains: the visit order against the successor table.
    // ------------------------------------------------------------------

    /// For ANY length and seed, a chain's first `2·len + 1` visits, as
    /// lines from the lowest, equal the successor table's walk, both
    /// through `step` and through `current_addr` plus `advance_cursor`.
    #[test]
    fn chain_walk_matches_successor_table(len in 2u64..4_096, seed in 0u64..u64::MAX) {
        use std::sync::{Arc, Mutex};
        let steps = 2 * len as usize + 1;
        let walks = Arc::new(Mutex::new((Vec::new(), Vec::new())));
        let out = Arc::clone(&walks);
        let mem = quartz_bench::MachineSpec::new(Architecture::IvyBridge).build();
        quartz_threadsim::Engine::new(mem).run(move |ctx| {
            let mut stepped = Chain::build(ctx, NodeId(0), len, seed);
            let mut advanced = stepped.clone();
            let via_step: Vec<Addr> = (0..steps)
                .map(|_| {
                    let a = stepped.current_addr();
                    stepped.step(ctx);
                    a
                })
                .collect();
            let via_cursor: Vec<Addr> = (0..steps)
                .map(|_| {
                    let a = advanced.current_addr();
                    advanced.advance_cursor();
                    a
                })
                .collect();
            *out.lock().unwrap() = (via_step, via_cursor);
        });
        let (via_step, via_cursor) = std::mem::take(&mut *walks.lock().unwrap());
        let want = successor_table_walk(len, seed, steps);
        let lines = |addrs: &[Addr]| -> Vec<u64> {
            let base = addrs.iter().min().expect("a walk").0;
            addrs.iter().map(|a| (a.0 - base) / 64).collect()
        };
        prop_assert!(lines(&via_step) == want, "step walk, len {}, seed {}", len, seed);
        prop_assert!(lines(&via_cursor) == want, "cursor walk, len {}, seed {}", len, seed);
    }
}
