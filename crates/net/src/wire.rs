//! Wire-format model: compact encoding and the paper's message-size budget.
//!
//! The model allows a message at time `t` to carry at most
//! `O(log n + log max_i v_i^t)` bits. Every message type implements
//! [`WireSize`]; the concrete encoding (LEB128-style varints over
//! [`bytes::BufMut`]) demonstrates that each payload really fits a constant
//! number of `(id, value)` words. [`budget_bits`] computes the budget and
//! debug builds assert conformance at every `count()` site in the runtimes.
//!
//! # On-the-wire frame layout
//!
//! The socket runtime ([`crate::socket`]) puts these encodings on real byte
//! streams. One frame is:
//!
//! ```text
//! ┌────────────────────┬──────────────────────────────────────────────┐
//! │ length prefix      │ payload (`length` bytes)                     │
//! │ u32, little-endian │ tag byte, then tag-specific fields           │
//! │ 4 bytes            │ varints are the LEB128 encoding defined here │
//! └────────────────────┴──────────────────────────────────────────────┘
//! ```
//!
//! * The length prefix counts payload bytes only, and a declared length
//!   above [`crate::socket::MAX_FRAME_LEN`] (1 MiB) is rejected before any
//!   allocation.
//! * The first payload byte is a frame tag; transport tags (`Hello`,
//!   `Wave`, `Reply`, `Stall`, `Abort`, `Halt`) live in [`crate::socket`],
//!   while embedded model messages carry their own codec tags via
//!   [`crate::socket::FrameCodec`].
//! * The `Hello` handshake frame carries a version byte
//!   ([`crate::socket::WIRE_VERSION`], currently `0x03`) directly after its
//!   tag; a version mismatch aborts the connection before any work frame.
//! * All multi-byte integers inside payloads are [`put_varint`] varints —
//!   the length prefix is the only fixed-width field.
//!
//! ## Waves and replies (version `0x03`)
//!
//! The unit of the wire is one shard and one wave: each shard gets one work
//! frame per coordinator round (node-phase `m`), holding every node of the
//! shard that the visit rule polls, and answers with one reply frame.
//! There is one layout, with or without a fault schedule:
//!
//! ```text
//! hello  0x01 version shard
//! work   tag t run m  nb  bcast × nb  entry …
//!        tag  0x10 = the wave's last (usually only) frame
//!             0x11 = more frames of this wave follow
//!        entry, m = 0:  varint(Δid << 1 | cached)  value, unless cached
//!        entry, m ≥ 1:  varint(Δid << 1 | unicast)  offset  unicast, if flagged
//! reply  0x20 t run m  entry …
//!        entry:         varint(Δid)  flags  up, if flagged  wake_at, if flagged
//! stall  0x1d ms
//! abort  0x1e t run
//! halt   0x1f
//! ```
//!
//! * The key `(t, run, m)` is written once per work and reply frame: time
//!   step, step attempt (bumped on every whole-step re-run) and node-phase.
//!   It is what makes re-delivery idempotent: each node answers a key at
//!   most once, and answers a repeat from its reply cache.
//! * The broadcasts come once per frame: the longest suffix of the step's
//!   broadcast log that any polled node of the shard needs. Each entry
//!   names its node by the id delta from the previous entry of the frame
//!   (the first from 0); entries run until the end of the payload.
//! * A round entry's `offset` is where the node's broadcasts start among
//!   the frame's `nb`. Every node gets the round's own broadcasts, and a
//!   node that the fire-round calendar skipped also gets the ones it
//!   missed, so offsets differ within one frame.
//! * Reply flags: `0b001` = `up` follows, `0b010` = engaged, `0b100` =
//!   `wake_at` follows. Nodes whose frame was stale get no entry, and a
//!   reply with no entries is not sent; an abort's ack is a reply at
//!   `m = u32::MAX` with no entries.
//! * A wave whose frame would exceed `MAX_FRAME_LEN` is split across
//!   frames that each repeat the header and broadcasts, all but the last
//!   tagged `0x11`. A shard writes nothing for a wave before it has read
//!   its last frame; its replies may be split the same way.
//! * `stall` and `abort` are control frames that only a fault schedule
//!   sends, and they are charged off-model. A shard that reads a `stall`
//!   flushes its replies and sleeps `ms` milliseconds before reading on;
//!   the wave it delays follows it. An `abort` rolls every node of the
//!   shard back to its step checkpoint, fences attempt `(t, run)`, and is
//!   acked with one reply.
//!
//! The exact bytes of a fixed-seed run are pinned by the golden-frame
//! snapshot test (`crates/net/tests/wire_golden.rs`): any drift in this
//! layout or in a message codec shows up as a byte-level diff there.
//!
//! Frame boundaries are not write boundaries. Each side buffers frames and
//! flushes only when it is about to wait (see [`crate::socket`]), so one
//! write usually carries a whole burst, and a frame may also be split
//! across writes. The golden snapshot pins bytes, not syscalls.
//!
//! # Wire-chaos injection points
//!
//! A chaotic socket transport ([`crate::chaos::WireChaos`] behind a
//! [`crate::chaos::ChaosPolicy`]) attacks exactly this layout, at the
//! driver's frame-write path, once per shard and wave:
//!
//! * **Torn frame** — the first frame's full length prefix followed by
//!   only half its payload, then the connection is severed; the shard's
//!   `read_frame` observes the mid-frame EOF as a typed
//!   [`crate::socket::WireError`] and reconnects (this is the fault the
//!   decode-never-panics proptests were written for).
//! * **Connection reset** — the stream dies *before* the wave is
//!   written; the re-delivered copy after the re-handshake is the first
//!   delivery.
//! * **Half-open connection** — the wave is written and flushed, then
//!   the connection is severed before the reply can travel back; the
//!   re-delivered copy is answered from the nodes' reply caches.
//! * **Reconnect storm** — junk connections race the shard's real
//!   reconnect; the `Hello` handshake (version + shard id) is what lets
//!   the driver tell them apart.

use bytes::{Buf, BufMut};

use crate::id::{NodeId, Value};

/// Number of payload bits a message occupies under the model's accounting.
pub trait WireSize {
    fn wire_bits(&self) -> u32;
}

/// Bits needed for a value: position of the highest set bit + 1 (≥ 1).
#[inline]
pub fn bits_for_value(v: Value) -> u32 {
    (64 - v.leading_zeros()).max(1)
}

/// Bits needed for a node id out of `n`.
#[inline]
pub fn bits_for_id(n: usize) -> u32 {
    (usize::BITS - n.saturating_sub(1).leading_zeros()).max(1)
}

/// The paper's per-message size budget for a system of `n` nodes whose
/// current maximal value is `max_v`, with a small constant factor `c = 4`
/// (messages carry at most two `(id, value)` pairs plus a tag).
#[inline]
pub fn budget_bits(n: usize, max_v: Value) -> u32 {
    4 * (bits_for_id(n) + bits_for_value(max_v) + 8)
}

/// Encode a `u64` as a LEB128 varint (1–10 bytes).
pub fn put_varint(buf: &mut impl BufMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Decode a LEB128 varint. Returns `None` on truncated or overlong input.
pub fn get_varint(buf: &mut impl Buf) -> Option<u64> {
    let mut v: u64 = 0;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() || shift >= 64 {
            return None;
        }
        let byte = buf.get_u8();
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
}

/// Encoded size of a varint in bits.
#[inline]
pub fn varint_bits(v: u64) -> u32 {
    let bytes = bits_for_value(v).div_ceil(7);
    bytes.max(1) * 8
}

/// A `(id, value)` report — the workhorse payload of every protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Report {
    pub id: NodeId,
    pub value: Value,
}

impl Report {
    pub fn encode(&self, buf: &mut impl BufMut) {
        put_varint(buf, self.id.0 as u64);
        put_varint(buf, self.value);
    }

    pub fn decode(buf: &mut impl Buf) -> Option<Self> {
        let id = get_varint(buf)?;
        let value = get_varint(buf)?;
        Some(Report {
            id: NodeId(u32::try_from(id).ok()?),
            value,
        })
    }
}

impl WireSize for Report {
    fn wire_bits(&self) -> u32 {
        varint_bits(self.id.0 as u64) + varint_bits(self.value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn varint_roundtrip_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16_383,
            16_384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            assert_eq!(buf.len() as u32 * 8, varint_bits(v), "size model for {v}");
            let mut rd = buf.freeze();
            assert_eq!(get_varint(&mut rd), Some(v));
        }
    }

    #[test]
    fn varint_rejects_truncation() {
        let mut buf = BytesMut::new();
        put_varint(&mut buf, u64::MAX);
        let full = buf.freeze();
        let mut truncated = full.slice(..full.len() - 1);
        assert_eq!(get_varint(&mut truncated), None);
    }

    #[test]
    fn report_roundtrip() {
        let r = Report {
            id: NodeId(12345),
            value: 987_654_321,
        };
        let mut buf = BytesMut::new();
        r.encode(&mut buf);
        assert_eq!(buf.len() as u32 * 8, r.wire_bits());
        let mut rd = buf.freeze();
        assert_eq!(Report::decode(&mut rd), Some(r));
    }

    #[test]
    fn bit_width_helpers() {
        assert_eq!(bits_for_value(0), 1);
        assert_eq!(bits_for_value(1), 1);
        assert_eq!(bits_for_value(2), 2);
        assert_eq!(bits_for_value(255), 8);
        assert_eq!(bits_for_value(256), 9);
        assert_eq!(bits_for_id(1), 1);
        assert_eq!(bits_for_id(2), 1);
        assert_eq!(bits_for_id(3), 2);
        assert_eq!(bits_for_id(1024), 10);
    }

    #[test]
    fn report_fits_budget() {
        let n = 1 << 20;
        let v = u32::MAX as u64;
        let r = Report {
            id: NodeId(n as u32 - 1),
            value: v,
        };
        assert!(r.wire_bits() <= budget_bits(n, v));
    }
}
