//! The `QTR1` binary encoding of a memory-event stream.
//!
//! Nothing produces a [`Trace`] any more. Quartz is execution-driven:
//! the delay it injects changes the interleaving it emulates, so a
//! recorded access stream cannot stand in for a Quartz run, and the
//! memory system no longer records one (DESIGN.md §14). Only this codec
//! and its format tests are left, and the next step deletes them too.
//!
//! # Encoding
//!
//! [`Trace::encode`] produces a compact binary stream:
//!
//! * magic `b"QTR1"`, then the event count as a LEB128 varint;
//! * one opcode byte per event — the operation in the high 3 bits, the
//!   issuing core in the low 5 bits (core 31 escapes to a varint for
//!   wider machines);
//! * address and time operands are zigzag-LEB128 deltas against
//!   per-core last-address/last-time contexts (both start at 0), so
//!   sequential streams encode in 1–2 bytes per event. A `LoadBatch`
//!   chains its address deltas within the batch.
//!
//! All delta arithmetic is wrapping, so any `u64` round-trips
//! losslessly.

use crate::addr::Addr;
use quartz_platform::time::SimTime;

/// One memory event, with its simulated issue time.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// A dependent load ([`crate::MemorySystem::load`]).
    Load {
        /// Issuing core.
        core: usize,
        /// Accessed address.
        addr: Addr,
        /// Simulated issue time.
        now: SimTime,
    },
    /// A batch of independent loads ([`crate::MemorySystem::load_batch`]).
    LoadBatch {
        /// Issuing core.
        core: usize,
        /// Accessed addresses, in issue order.
        addrs: Vec<Addr>,
        /// Simulated issue time.
        now: SimTime,
    },
    /// A write-back store ([`crate::MemorySystem::store`]).
    Store {
        /// Issuing core.
        core: usize,
        /// Accessed address.
        addr: Addr,
        /// Simulated issue time.
        now: SimTime,
    },
    /// A non-temporal streaming store ([`crate::MemorySystem::store_stream`]).
    StoreStream {
        /// Issuing core.
        core: usize,
        /// Accessed address.
        addr: Addr,
        /// Simulated issue time.
        now: SimTime,
    },
    /// A synchronous `clflush` ([`crate::MemorySystem::flush`]).
    Flush {
        /// Issuing core.
        core: usize,
        /// Flushed address.
        addr: Addr,
        /// Simulated issue time.
        now: SimTime,
    },
    /// An asynchronous `clflushopt` ([`crate::MemorySystem::flush_opt`]).
    FlushOpt {
        /// Issuing core.
        core: usize,
        /// Flushed address.
        addr: Addr,
        /// Simulated issue time.
        now: SimTime,
    },
    /// A whole-hierarchy invalidation ([`crate::MemorySystem::invalidate_caches`]).
    InvalidateCaches,
}

/// Decoding failure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The buffer ended mid-event.
    Truncated,
    /// The buffer does not start with the `QTR1` magic.
    BadMagic,
    /// An opcode byte carries an unknown operation.
    BadOpcode(u8),
}

impl std::fmt::Display for TraceError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceError::Truncated => write!(f, "trace truncated"),
            TraceError::BadMagic => write!(f, "not a QTR1 trace"),
            TraceError::BadOpcode(b) => write!(f, "bad opcode byte {b:#04x}"),
        }
    }
}

impl std::error::Error for TraceError {}

/// File magic of the binary encoding.
const MAGIC: &[u8; 4] = b"QTR1";

/// Core field value escaping to a varint-encoded core id.
const CORE_ESCAPE: u8 = 31;

const OP_LOAD: u8 = 0;
const OP_LOAD_BATCH: u8 = 1;
const OP_STORE: u8 = 2;
const OP_STORE_STREAM: u8 = 3;
const OP_FLUSH: u8 = 4;
const OP_FLUSH_OPT: u8 = 5;
const OP_INVALIDATE: u8 = 6;

/// A memory-event stream.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    events: Vec<TraceEvent>,
}

/// Per-core delta context for the binary encoding.
#[derive(Clone, Copy, Default)]
struct Ctx {
    last_addr: u64,
    last_time: u64,
}

fn zigzag(n: i64) -> u64 {
    ((n << 1) ^ (n >> 63)) as u64
}

fn unzigzag(z: u64) -> i64 {
    ((z >> 1) as i64) ^ -((z & 1) as i64)
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(buf: &[u8], pos: &mut usize) -> Result<u64, TraceError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let &b = buf.get(*pos).ok_or(TraceError::Truncated)?;
        *pos += 1;
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(TraceError::Truncated);
        }
    }
}

/// Writes a value as a zigzag delta against `last`, updating `last`.
fn put_delta(out: &mut Vec<u8>, last: &mut u64, v: u64) {
    put_varint(out, zigzag(v.wrapping_sub(*last) as i64));
    *last = v;
}

/// Reads a zigzag delta against `last`, updating `last`.
fn get_delta(buf: &[u8], pos: &mut usize, last: &mut u64) -> Result<u64, TraceError> {
    let d = unzigzag(get_varint(buf, pos)?);
    *last = last.wrapping_add(d as u64);
    Ok(*last)
}

fn ctx_of(ctxs: &mut Vec<Ctx>, core: usize) -> &mut Ctx {
    if core >= ctxs.len() {
        ctxs.resize(core + 1, Ctx::default());
    }
    &mut ctxs[core]
}

impl Trace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes to the compact binary form (see module docs).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 + self.events.len() * 3);
        out.extend_from_slice(MAGIC);
        put_varint(&mut out, self.events.len() as u64);
        let mut ctxs: Vec<Ctx> = Vec::new();
        for ev in &self.events {
            let (op, core) = match ev {
                TraceEvent::Load { core, .. } => (OP_LOAD, *core),
                TraceEvent::LoadBatch { core, .. } => (OP_LOAD_BATCH, *core),
                TraceEvent::Store { core, .. } => (OP_STORE, *core),
                TraceEvent::StoreStream { core, .. } => (OP_STORE_STREAM, *core),
                TraceEvent::Flush { core, .. } => (OP_FLUSH, *core),
                TraceEvent::FlushOpt { core, .. } => (OP_FLUSH_OPT, *core),
                TraceEvent::InvalidateCaches => (OP_INVALIDATE, 0),
            };
            if core < CORE_ESCAPE as usize {
                out.push((op << 5) | core as u8);
            } else {
                out.push((op << 5) | CORE_ESCAPE);
                put_varint(&mut out, core as u64);
            }
            match ev {
                TraceEvent::Load { core, addr, now }
                | TraceEvent::Store { core, addr, now }
                | TraceEvent::StoreStream { core, addr, now }
                | TraceEvent::Flush { core, addr, now }
                | TraceEvent::FlushOpt { core, addr, now } => {
                    let ctx = ctx_of(&mut ctxs, *core);
                    put_delta(&mut out, &mut ctx.last_time, now.as_ps());
                    put_delta(&mut out, &mut ctx.last_addr, addr.0);
                }
                TraceEvent::LoadBatch { core, addrs, now } => {
                    let ctx = ctx_of(&mut ctxs, *core);
                    put_varint(&mut out, addrs.len() as u64);
                    put_delta(&mut out, &mut ctx.last_time, now.as_ps());
                    for a in addrs {
                        put_delta(&mut out, &mut ctx.last_addr, a.0);
                    }
                }
                TraceEvent::InvalidateCaches => {}
            }
        }
        out
    }

    /// Parses a trace previously produced by [`Trace::encode`].
    ///
    /// # Errors
    ///
    /// Returns a [`TraceError`] on bad magic, an unknown opcode, or a
    /// truncated buffer.
    pub fn decode(buf: &[u8]) -> Result<Trace, TraceError> {
        if buf.len() < MAGIC.len() || &buf[..MAGIC.len()] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let mut pos = MAGIC.len();
        let count = get_varint(buf, &mut pos)?;
        let mut events = Vec::with_capacity(count.min(1 << 20) as usize);
        let mut ctxs: Vec<Ctx> = Vec::new();
        for _ in 0..count {
            let &byte = buf.get(pos).ok_or(TraceError::Truncated)?;
            pos += 1;
            let op = byte >> 5;
            let mut core = (byte & 0x1F) as usize;
            if op != OP_INVALIDATE && core == CORE_ESCAPE as usize {
                core = get_varint(buf, &mut pos)? as usize;
            }
            let ev = match op {
                OP_INVALIDATE => TraceEvent::InvalidateCaches,
                OP_LOAD_BATCH => {
                    let n = get_varint(buf, &mut pos)?;
                    let ctx = ctx_of(&mut ctxs, core);
                    let now = SimTime::from_ps(get_delta(buf, &mut pos, &mut ctx.last_time)?);
                    let mut addrs = Vec::with_capacity(n.min(1 << 20) as usize);
                    for _ in 0..n {
                        addrs.push(Addr(get_delta(buf, &mut pos, &mut ctx.last_addr)?));
                    }
                    TraceEvent::LoadBatch { core, addrs, now }
                }
                OP_LOAD | OP_STORE | OP_STORE_STREAM | OP_FLUSH | OP_FLUSH_OPT => {
                    let ctx = ctx_of(&mut ctxs, core);
                    let now = SimTime::from_ps(get_delta(buf, &mut pos, &mut ctx.last_time)?);
                    let addr = Addr(get_delta(buf, &mut pos, &mut ctx.last_addr)?);
                    match op {
                        OP_LOAD => TraceEvent::Load { core, addr, now },
                        OP_STORE => TraceEvent::Store { core, addr, now },
                        OP_STORE_STREAM => TraceEvent::StoreStream { core, addr, now },
                        OP_FLUSH => TraceEvent::Flush { core, addr, now },
                        _ => TraceEvent::FlushOpt { core, addr, now },
                    }
                }
                _ => return Err(TraceError::BadOpcode(byte)),
            };
            events.push(ev);
        }
        Ok(Trace { events })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::Load {
                core: 0,
                addr: Addr(0),
                now: SimTime::ZERO,
            },
            TraceEvent::Load {
                core: 0,
                addr: Addr(64),
                now: SimTime::from_ns(100),
            },
            TraceEvent::Store {
                core: 1,
                addr: Addr(1 << 40),
                now: SimTime::from_ns(150),
            },
            TraceEvent::LoadBatch {
                core: 2,
                addrs: vec![Addr(128), Addr(192), Addr(4096)],
                now: SimTime::from_ns(200),
            },
            TraceEvent::Flush {
                core: 1,
                addr: Addr(1 << 40),
                now: SimTime::from_ns(300),
            },
            TraceEvent::FlushOpt {
                core: 0,
                addr: Addr(64),
                now: SimTime::from_ns(400),
            },
            TraceEvent::StoreStream {
                core: 40, // exercises the core-escape varint
                addr: Addr(u64::MAX - 63),
                now: SimTime::from_ps(u64::MAX),
            },
            TraceEvent::InvalidateCaches,
            TraceEvent::Load {
                core: 0,
                addr: Addr(0), // backwards delta after invalidate
                now: SimTime::from_ns(500),
            },
        ]
    }

    #[test]
    fn encode_decode_roundtrip() {
        let t = Trace {
            events: sample_events(),
        };
        let bytes = t.encode();
        let back = Trace::decode(&bytes).unwrap();
        assert_eq!(t, back);
    }

    #[test]
    fn empty_trace_roundtrip() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(Trace::decode(&t.encode()).unwrap().len(), 0);
    }

    #[test]
    fn sequential_stream_encodes_compactly() {
        let events: Vec<TraceEvent> = (0..1_000u64)
            .map(|i| TraceEvent::Load {
                core: 0,
                addr: Addr(i * 64),
                now: SimTime::from_ns(i * 2),
            })
            .collect();
        let t = Trace { events };
        let bytes = t.encode();
        // Opcode + small time delta (ps) + small addr delta ≈ 5
        // bytes/event, versus 17+ for a flat encoding.
        assert!(
            bytes.len() < t.len() * 6,
            "{} bytes for {} events",
            bytes.len(),
            t.len()
        );
        assert_eq!(Trace::decode(&bytes).unwrap(), t);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(Trace::decode(b"nope"), Err(TraceError::BadMagic));
        assert_eq!(Trace::decode(b"QT"), Err(TraceError::BadMagic));
        // Count says 1 event but the buffer ends.
        assert_eq!(Trace::decode(b"QTR1\x01"), Err(TraceError::Truncated));
        // Opcode 7 is unassigned.
        let bad = [b'Q', b'T', b'R', b'1', 1, 7u8 << 5];
        assert_eq!(Trace::decode(&bad), Err(TraceError::BadOpcode(7 << 5)));
    }
}
