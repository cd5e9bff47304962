//! A recoverable undo-log key-value table for crash-consistency
//! checking (the `quartz-crash` subsystem's reference workload).
//!
//! Layout in persistent memory (all metadata words on their own 64 B
//! lines; table slots packed 8 per line):
//!
//! ```text
//! base +   0   head  — sequence number of the op whose undo record is
//!                      valid (written & flushed *before* the data)
//! base +  64   done  — sequence number of the last completed op
//! base + 128   log   — LOG_CAP undo records, one line each:
//!                      [slot, old value, seq, checksum]
//! base + 128 + LOG_CAP*64   table — `slots` u64 values
//! ```
//!
//! The correct write protocol for op `seq` on key `k`:
//!
//! 1. write the undo record, `pflush_opt` + `pcommit` it;
//! 2. `head = seq`, `pflush` — the record is now authoritative;
//! 3. `table[k] = v`, `pflush`;
//! 4. `done = seq`, `pflush`, then *claim* `(table[k], done)` durable.
//!
//! Recovery inspects only the durable image: `head == done` means the
//! table is consistent as of `done` ops; `head == done + 1` means op
//! `head` was in flight — validate its undo record (seq + checksum)
//! and roll the slot back. Anything else is corruption.
//!
//! Two seeded-bug variants demonstrate the checker catching real
//! ordering bugs: [`UndoVariant::MissingDataFlush`] skips step 3's
//! flush (data may never reach NVM although `done` says it did);
//! [`UndoVariant::MisorderedCommit`] flushes the commit record before
//! the data (the §6 ordering mistake `pcommit` exists to prevent).

use std::sync::Arc;

use parking_lot::Mutex;
use quartz::{Quartz, QuartzConfig, QuartzError};
use quartz_crash::{CrashOutcome, CrashPlan, CrashRun, DurableImage, Pmem};
use quartz_memsim::{Addr, MemorySystem};
use quartz_platform::seed::splitmix64;
use quartz_threadsim::ThreadCtx;

/// Undo records kept in the circular log.
pub const LOG_CAP: u64 = 4;

/// Checksum perturbation so an all-zero record never validates.
const MAGIC: u64 = 0x51AC_717E_0DD5_EED5;

/// Which write-protocol variant an op uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UndoVariant {
    /// The full protocol above.
    Correct,
    /// Seeded bug: step 3 writes the data but never flushes it.
    MissingDataFlush,
    /// Seeded bug: the commit record is flushed *before* the data.
    MisorderedCommit,
}

impl UndoVariant {
    /// Short name for reports.
    pub fn label(self) -> &'static str {
        match self {
            UndoVariant::Correct => "correct",
            UndoVariant::MissingDataFlush => "missing_flush",
            UndoVariant::MisorderedCommit => "misordered_commit",
        }
    }
}

/// Workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct UndoLogSpec {
    /// Table slots (keys are `seq % slots`).
    pub slots: u64,
    /// Total operations.
    pub ops: u64,
    /// Seed for values and the crash-point grid.
    pub seed: u64,
    /// Protocol variant.
    pub variant: UndoVariant,
    /// Worker threads (> 1 exercises lock-hand-off crash points).
    pub threads: usize,
}

/// The persistent layout handle (plain addresses; freely copyable).
#[derive(Clone, Copy, Debug)]
pub struct UndoLogKv {
    base: Addr,
    slots: u64,
}

/// The key op `seq` (1-based) writes.
pub fn key_of(seq: u64, slots: u64) -> u64 {
    (seq - 1) % slots
}

/// The value op `seq` writes (deterministic, never zero).
pub fn value_of(seq: u64, seed: u64) -> u64 {
    splitmix64(seed ^ seq.wrapping_mul(0x9E37_79B9_7F4A_7C15)) | 1
}

/// The table contents after the first `count` ops.
pub fn golden_prefix(slots: u64, count: u64, seed: u64) -> Vec<u64> {
    let mut v = vec![0u64; slots as usize];
    for seq in 1..=count {
        v[key_of(seq, slots) as usize] = value_of(seq, seed);
    }
    v
}

impl UndoLogKv {
    /// Allocates the persistent layout (zeroed: the simulator models
    /// fresh allocations as zero, as does [`DurableImage`]).
    ///
    /// # Errors
    ///
    /// Propagates `pmalloc` failure.
    pub fn create(
        ctx: &mut ThreadCtx,
        q: &Arc<Quartz>,
        slots: u64,
    ) -> Result<UndoLogKv, QuartzError> {
        let table_lines = slots.div_ceil(8);
        let bytes = (2 + LOG_CAP + table_lines) * 64;
        let base = q.pmalloc(ctx, bytes)?;
        Ok(UndoLogKv { base, slots })
    }

    /// Table capacity.
    pub fn slots(&self) -> u64 {
        self.slots
    }

    fn head_addr(&self) -> Addr {
        self.base
    }
    fn done_addr(&self) -> Addr {
        self.base.offset_by(64)
    }
    fn rec_addr(&self, i: u64) -> Addr {
        self.base.offset_by(128 + (i % LOG_CAP) * 64)
    }
    fn slot_addr(&self, k: u64) -> Addr {
        self.base.offset_by(128 + LOG_CAP * 64 + k * 8)
    }

    /// Applies op `seq` (1-based; the caller serializes sequence
    /// numbers) under the given protocol variant.
    pub fn put(
        &self,
        ctx: &mut ThreadCtx,
        pm: &Pmem,
        variant: UndoVariant,
        seq: u64,
        k: u64,
        v: u64,
    ) {
        let slot = self.slot_addr(k);
        let old = pm.read_u64(ctx, slot);
        // 1. Undo record, made durable via the opt/commit pair (this is
        // what puts crash candidates *inside* the §6 window).
        let rec = self.rec_addr(seq - 1);
        pm.write_u64(ctx, rec, k);
        pm.write_u64(ctx, rec.offset_by(8), old);
        pm.write_u64(ctx, rec.offset_by(16), seq);
        pm.write_u64(ctx, rec.offset_by(24), k ^ old ^ seq ^ MAGIC);
        pm.flush_opt(ctx, rec);
        pm.commit(ctx);
        // 2. Record is authoritative from here.
        pm.write_u64(ctx, self.head_addr(), seq);
        pm.flush(ctx, self.head_addr());
        match variant {
            UndoVariant::Correct => {
                // 3. Data.
                pm.write_u64(ctx, slot, v);
                pm.flush(ctx, slot);
                // 4. Commit.
                pm.write_u64(ctx, self.done_addr(), seq);
                pm.flush(ctx, self.done_addr());
                pm.claim_persisted(ctx, &[(slot, v), (self.done_addr(), seq)]);
            }
            UndoVariant::MissingDataFlush => {
                pm.write_u64(ctx, slot, v);
                // BUG: the data line is never flushed.
                pm.write_u64(ctx, self.done_addr(), seq);
                pm.flush(ctx, self.done_addr());
                pm.claim_persisted(ctx, &[(slot, v), (self.done_addr(), seq)]);
            }
            UndoVariant::MisorderedCommit => {
                pm.write_u64(ctx, slot, v);
                pm.write_u64(ctx, self.done_addr(), seq);
                // BUG: the commit record becomes durable before the
                // data it commits.
                pm.flush(ctx, self.done_addr());
                pm.flush(ctx, slot);
                pm.claim_persisted(ctx, &[(slot, v), (self.done_addr(), seq)]);
            }
        }
    }

    /// Reconstructs the table from a post-crash durable image.
    ///
    /// Returns `(completed ops, table values)`.
    ///
    /// # Errors
    ///
    /// Reports unrecoverable states: a torn/invalid undo record when
    /// one is needed, or inconsistent `head`/`done` counters.
    pub fn recover(&self, image: &DurableImage) -> Result<(u64, Vec<u64>), String> {
        let head = image.read_u64(self.head_addr());
        let done = image.read_u64(self.done_addr());
        let mut values: Vec<u64> = (0..self.slots)
            .map(|k| image.read_u64(self.slot_addr(k)))
            .collect();
        if head == done {
            return Ok((done, values));
        }
        if head == done + 1 {
            // Op `head` was in flight: roll it back via its record.
            let rec = self.rec_addr(head - 1);
            let rk = image.read_u64(rec);
            let rold = image.read_u64(rec.offset_by(8));
            let rseq = image.read_u64(rec.offset_by(16));
            let rsum = image.read_u64(rec.offset_by(24));
            if rseq != head || rsum != rk ^ rold ^ rseq ^ MAGIC {
                return Err(format!(
                    "undo record for op {head} is torn or stale (seq {rseq})"
                ));
            }
            if rk >= self.slots {
                return Err(format!("undo record slot {rk} out of range"));
            }
            values[rk as usize] = rold;
            return Ok((done, values));
        }
        Err(format!("inconsistent counters: head {head}, done {done}"))
    }
}

/// Runs the workload once under crash tracking and returns the
/// checkable run plus the layout handle.
///
/// # Errors
///
/// Propagates emulator construction failures.
pub fn run_undo_log(
    spec: &UndoLogSpec,
    mem: Arc<MemorySystem>,
    config: QuartzConfig,
    random_points: usize,
) -> Result<(CrashRun, UndoLogKv), QuartzError> {
    let spec = *spec;
    CrashPlan::new(spec.seed)
        .with_random_points(random_points)
        .run(mem, config, move |ctx, q, pm| {
            let kv = UndoLogKv::create(ctx, q, spec.slots).expect("pmalloc");
            if spec.threads <= 1 {
                for seq in 1..=spec.ops {
                    kv.put(
                        ctx,
                        pm,
                        spec.variant,
                        seq,
                        key_of(seq, spec.slots),
                        value_of(seq, spec.seed),
                    );
                }
            } else {
                // Ops are serialized by a *simulated* mutex so the
                // releases are genuine lock hand-offs (each one a
                // crash candidate); the sequence counter is host-side
                // state only ever touched while holding that mutex.
                let m = ctx.mutex_new();
                let next: Arc<Mutex<u64>> = Arc::new(Mutex::new(0));
                let mut workers = Vec::new();
                for _ in 0..spec.threads {
                    let pm = pm.clone();
                    let next = Arc::clone(&next);
                    workers.push(ctx.spawn(move |tctx| loop {
                        tctx.mutex_lock(m);
                        let seq = {
                            let mut n = next.lock();
                            *n += 1;
                            *n
                        };
                        if seq > spec.ops {
                            tctx.mutex_unlock(m);
                            break;
                        }
                        kv.put(
                            tctx,
                            &pm,
                            spec.variant,
                            seq,
                            key_of(seq, spec.slots),
                            value_of(seq, spec.seed),
                        );
                        tctx.mutex_unlock(m);
                    }));
                }
                for w in workers {
                    ctx.join(w);
                }
            }
            kv
        })
}

/// Runs recovery + golden-state verification at every crash point.
pub fn check_undo_log(run: &CrashRun, kv: UndoLogKv, spec: &UndoLogSpec) -> Vec<CrashOutcome> {
    let seed = spec.seed;
    run.check(move |image| {
        let (count, values) = kv.recover(image)?;
        let golden = golden_prefix(kv.slots(), count, seed);
        if values == golden {
            Ok(())
        } else {
            Err(format!(
                "recovered table diverges from the {count}-op golden state"
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use quartz::NvmTarget;
    use quartz_memsim::MemSimConfig;
    use quartz_platform::{Architecture, Platform, PlatformConfig};

    fn machine() -> Arc<MemorySystem> {
        let p = Platform::new(PlatformConfig::new(Architecture::IvyBridge).with_perfect_counters());
        Arc::new(MemorySystem::new(
            p,
            MemSimConfig::default().without_jitter(),
        ))
    }

    fn cfg() -> QuartzConfig {
        QuartzConfig::new(NvmTarget::new(300.0).with_write_delay_ns(450.0))
    }

    fn spec(variant: UndoVariant, threads: usize) -> UndoLogSpec {
        UndoLogSpec {
            slots: 8,
            ops: 12,
            seed: 99,
            variant,
            threads,
        }
    }

    #[test]
    fn correct_variant_recovers_at_every_crash_point() {
        let s = spec(UndoVariant::Correct, 1);
        let (run, kv) = run_undo_log(&s, machine(), cfg(), 24).unwrap();
        let outcomes = check_undo_log(&run, kv, &s);
        assert!(!outcomes.is_empty());
        for o in &outcomes {
            assert!(
                o.recovered(),
                "crash at {:?} ({}) must recover: {:?} claims {:?}",
                o.at,
                o.label,
                o.verdict,
                o.violated_claims
            );
        }
        // The full run is recoverable at its end state with all ops.
        let (count, values) = kv
            .recover(&run.trace().image_at(run.trace().end()))
            .unwrap();
        assert_eq!(count, s.ops);
        assert_eq!(values, golden_prefix(s.slots, s.ops, s.seed));
    }

    #[test]
    fn missing_flush_is_detected() {
        let s = spec(UndoVariant::MissingDataFlush, 1);
        let (run, kv) = run_undo_log(&s, machine(), cfg(), 24).unwrap();
        let outcomes = check_undo_log(&run, kv, &s);
        let failures: Vec<_> = outcomes.iter().filter(|o| !o.recovered()).collect();
        assert!(!failures.is_empty(), "the missing flush must be caught");
        // The oracle specifically flags the lied-about data word.
        assert!(outcomes.iter().any(|o| !o.violated_claims.is_empty()));
    }

    #[test]
    fn misordered_commit_is_detected() {
        let s = spec(UndoVariant::MisorderedCommit, 1);
        let (run, kv) = run_undo_log(&s, machine(), cfg(), 24).unwrap();
        let outcomes = check_undo_log(&run, kv, &s);
        assert!(
            outcomes.iter().any(|o| !o.recovered()),
            "commit-before-data must be caught at some crash point"
        );
    }

    #[test]
    fn multithreaded_correct_variant_recovers_everywhere() {
        let s = spec(UndoVariant::Correct, 2);
        let (run, kv) = run_undo_log(&s, machine(), cfg(), 16).unwrap();
        assert!(
            run.points().iter().any(|(l, _)| l == "lock_handoff"),
            "MT run must produce lock-hand-off crash points"
        );
        for o in check_undo_log(&run, kv, &s) {
            assert!(o.recovered(), "{} at {:?}: {:?}", o.label, o.at, o.verdict);
        }
    }

    #[test]
    fn golden_prefix_replays_ops_in_sequence_order() {
        let g = golden_prefix(4, 6, 1);
        for seq in 1..=6u64 {
            if (seq..=6).all(|later| key_of(later, 4) != key_of(seq, 4) || later == seq) {
                assert_eq!(g[key_of(seq, 4) as usize], value_of(seq, 1));
            }
        }
        assert_ne!(value_of(1, 1), value_of(2, 1));
        assert_eq!(value_of(3, 7) % 2, 1, "values are never zero");
    }
}
