//! The persistent-memory API: `pmalloc`/`pfree`, `pflush`, and the
//! `clflushopt`/`pcommit` extension.
//!
//! `pflush` is the paper's §3.1 write-emulation primitive: it writes back
//! a cache line (`clflush`) and then injects a configurable delay for the
//! slower NVM write. It is pessimistic — every write waits for the
//! previous one. The `pflush_opt`/`pcommit` pair implements the §6
//! "opportunities" design: flushes accumulate expected completion times
//! and only the `pcommit` barrier stalls, discounting flushes that have
//! already completed — which lets independent writes proceed in parallel.
//!
//! Each primitive goes through the calling thread's `crate::registry`
//! slot, reached through the per-OS-thread slot cache with no lock, and
//! acquires the slot's owner lock **at most once** per call; the seed's
//! global `Mutex<HashMap>` needed up to two acquisitions (plus a hash
//! each) and could lose `pflush_delay` attribution when the second
//! lookup raced a lookup failure after `ctx.spin`. Each primitive's slot
//! closure returns before its `ctx.spin`, so no slot lock is held and
//! the cached handle is back in place when a hook fires there (a
//! monitor signal during the delay).

use quartz_memsim::Addr;
use quartz_platform::time::{Duration, SimTime};
use quartz_threadsim::ThreadCtx;

use crate::error::QuartzError;
use crate::runtime::Quartz;

/// Inserts `(line, done)` into the pending-flush set, updating the
/// entry in place when the line is already pending and keeping the
/// *later* expected completion — which preserves `pcommit`'s
/// max-completion semantics exactly. Because every insert goes through
/// this merge, the set is per-line unique by construction: repeated
/// `pflush_opt` of the same line within one commit window can no longer
/// grow the vec unboundedly.
fn merge_pending(pending: &mut Vec<(u64, SimTime)>, line: u64, done: SimTime) {
    if let Some(slot) = pending.iter_mut().find(|(l, _)| *l == line) {
        if done > slot.1 {
            slot.1 = done;
        }
    } else {
        pending.push((line, done));
    }
}

impl Quartz {
    /// Allocates persistent memory. In two-memory mode this maps onto the
    /// sibling socket's DRAM (`numa_alloc_onnode`, paper §3.3); in
    /// PM-only mode all memory is persistent and the allocation is
    /// node-local.
    ///
    /// # Errors
    ///
    /// Fails when the virtual NVM node is out of memory.
    pub fn pmalloc(&self, ctx: &mut ThreadCtx, bytes: u64) -> Result<Addr, QuartzError> {
        ctx.try_alloc_on(self.nvm_node(), bytes)
            .map_err(|e| QuartzError::PmallocFailed {
                cause: e.to_string(),
            })
    }

    /// Frees persistent memory.
    ///
    /// # Errors
    ///
    /// Fails on an invalid free.
    pub fn pfree(&self, ctx: &mut ThreadCtx, addr: Addr) -> Result<(), QuartzError> {
        ctx.free(addr).map_err(|e| QuartzError::PmallocFailed {
            cause: e.to_string(),
        })
    }

    /// Flushes a cache line to persistent memory and stalls for the
    /// configured NVM write delay. Serializes with the previous write —
    /// the pessimistic model of §3.1.
    ///
    /// Accounting is attributed *before* the spin under a single slot-lock
    /// acquisition, so a monitor signal delivered during the spin cannot
    /// observe a flush whose delay was charged but not recorded.
    /// When the target sets `write_bandwidth_gbps`, the flushed line also
    /// occupies a write-pending-queue drain slot paced at that bandwidth:
    /// back-to-back flushes faster than the NVM can absorb them wait for
    /// the queue instead of just the fixed per-line delay. With the knob
    /// unset the pacing path never runs and `pflush` behaves exactly as
    /// before.
    pub fn pflush(&self, ctx: &mut ThreadCtx, addr: Addr) {
        let t0 = ctx.now();
        ctx.flush(addr);
        let mut delay = Duration::from_ns_f64(self.config().target.write_delay_ns);
        let now = ctx.now();
        self.registry.with_slot(ctx.thread_id().0, |slot| {
            let mut owner = slot.lock_owner();
            if let Some(bw) = self.config().target.write_bandwidth_gbps {
                // One cache line takes 64/bw ns to drain; the queue
                // serializes drains, so this flush completes when the
                // *later* of its fixed delay and its drain slot is done.
                let drain = Duration::from_ns_f64(64.0 / bw);
                let drained_at = owner.wpq_next_free.max(now) + drain;
                owner.wpq_next_free = drained_at;
                delay = delay.max(drained_at.saturating_duration_since(now));
            }
            owner.stats.pflush_delay += delay;
            owner.stats.pflushes += 1;
        });
        ctx.spin(delay);
        if let Some(obs) = self.mem.persist_observer() {
            obs.nvm_flush(addr.line(), t0, ctx.now());
        }
    }

    /// `clflushopt`-style flush: writes the line back asynchronously and
    /// records its expected NVM completion time; returns immediately.
    /// Pair with [`Quartz::pcommit`].
    pub fn pflush_opt(&self, ctx: &mut ThreadCtx, addr: Addr) {
        let dram_done = ctx.flush_opt(addr);
        let nvm_done = dram_done + Duration::from_ns_f64(self.config().target.write_delay_ns);
        self.registry.with_slot(ctx.thread_id().0, |slot| {
            let mut owner = slot.lock_owner();
            merge_pending(&mut owner.pending_flushes, addr.line(), nvm_done);
            owner.stats.pflushes += 1;
        });
        if let Some(obs) = self.mem.persist_observer() {
            obs.nvm_flush_opt(addr.line(), ctx.now(), nvm_done);
        }
    }

    /// `pcommit`-style barrier: stalls until every outstanding
    /// [`Quartz::pflush_opt`] has reached NVM. Flushes that completed
    /// while the program kept executing cost nothing — independent writes
    /// overlap (paper §6).
    ///
    /// Drains the pending set, computes the residual wait, and attributes
    /// it to `pflush_delay` in **one** slot-lock acquisition before
    /// spinning; the seed re-looked-up the thread after the spin and
    /// silently dropped the attribution if that second lookup failed.
    pub fn pcommit(&self, ctx: &mut ThreadCtx) {
        let t0 = ctx.now();
        let Some(wait) = self.registry.with_slot(ctx.thread_id().0, |slot| {
            let mut owner = slot.lock_owner();
            let latest = owner.pending_flushes.drain(..).map(|(_, done)| done).max();
            let wait = latest
                .map(|done| done.saturating_duration_since(t0))
                .unwrap_or(Duration::ZERO);
            if !wait.is_zero() {
                owner.stats.pflush_delay += wait;
            }
            wait
        }) else {
            return;
        };
        if !wait.is_zero() {
            ctx.spin(wait);
        }
        if let Some(obs) = self.mem.persist_observer() {
            obs.nvm_commit(t0, ctx.now());
        }
    }

    /// Number of *distinct cache lines* awaiting the next
    /// [`Quartz::pcommit`] on this thread (repeated `pflush_opt` of one
    /// line counts once).
    pub fn pending_flushes(&self, ctx: &ThreadCtx) -> usize {
        self.registry
            .with_slot(ctx.thread_id().0, |slot| {
                slot.lock_owner().pending_flushes.len()
            })
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_pending_dedupes_by_line_keeping_max_completion() {
        let mut pending = Vec::new();
        merge_pending(&mut pending, 7, SimTime::from_ns(100));
        merge_pending(&mut pending, 9, SimTime::from_ns(50));
        // Re-flush of line 7 with a *later* completion updates in place.
        merge_pending(&mut pending, 7, SimTime::from_ns(300));
        // Re-flush with an *earlier* completion must not shrink the wait.
        merge_pending(&mut pending, 7, SimTime::from_ns(200));
        assert_eq!(
            pending,
            vec![(7, SimTime::from_ns(300)), (9, SimTime::from_ns(50))]
        );
        // pcommit's max over the set is unchanged by the dedupe.
        let max = pending.iter().map(|&(_, d)| d).max().unwrap();
        assert_eq!(max, SimTime::from_ns(300));
    }
}
