//! Message accounting — the paper's sole cost metric.
//!
//! Every communication primitive of the model costs **one message**:
//! node→coordinator unicast, coordinator→node unicast, and a coordinator
//! broadcast (received by all nodes but counted once). The ledger tracks the
//! three channels separately, together with the wire-size (bits) of the
//! payloads, so experiments can report both the theorem quantities (Theorem
//! 4.2 counts node→coordinator messages only) and total communication.
//!
//! The transport runtime additionally tracks *sync frames*: transport-level
//! round acknowledgements that emulate the synchronous model's free
//! observation of silence. They are never part of the model cost. With the
//! delta-driven transport a silent step frames only changed ∪ engaged
//! nodes, so `sync_frames` grows with the movers, not `n` (broadcast
//! rounds remain full fan-out).
//!
//! Fault recovery has its own channel: everything the chaos/recovery layer
//! re-sends (wave retries, injected duplicates, late-flushed delayed
//! frames, step-abort control traffic) is charged to
//! [`ChannelKind::Retransmit`], so model cost and fault cost never mix —
//! `total()` and `total_bits()` remain the paper's quantities.

use serde::{Deserialize, Serialize};

/// Which channel of the model a message used.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ChannelKind {
    /// Node → coordinator unicast.
    Up,
    /// Coordinator → single node unicast.
    Down,
    /// Coordinator broadcast, received by all nodes, cost 1.
    Broadcast,
    /// Fault-recovery re-delivery (retry, duplicate, abort traffic). Never
    /// part of the model cost — the original send was already charged to
    /// its model channel (or to `sync_frames`).
    Retransmit,
}

/// Snapshot of all counters; also used to express deltas between two points
/// in time (e.g. "messages spent inside `FILTERRESET`").
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LedgerSnapshot {
    pub up: u64,
    pub down: u64,
    pub broadcast: u64,
    pub up_bits: u64,
    pub down_bits: u64,
    pub broadcast_bits: u64,
    pub sync_frames: u64,
    pub retransmit: u64,
    pub retransmit_bits: u64,
}

impl LedgerSnapshot {
    /// Total model messages (sync frames excluded).
    #[inline]
    pub fn total(&self) -> u64 {
        self.up + self.down + self.broadcast
    }

    /// Total model bits.
    #[inline]
    pub fn total_bits(&self) -> u64 {
        self.up_bits + self.down_bits + self.broadcast_bits
    }

    /// Counter-wise difference `self - earlier` (saturating, counters are
    /// monotone so this is exact in correct use).
    pub fn since(&self, earlier: &LedgerSnapshot) -> LedgerSnapshot {
        LedgerSnapshot {
            up: self.up - earlier.up,
            down: self.down - earlier.down,
            broadcast: self.broadcast - earlier.broadcast,
            up_bits: self.up_bits - earlier.up_bits,
            down_bits: self.down_bits - earlier.down_bits,
            broadcast_bits: self.broadcast_bits - earlier.broadcast_bits,
            sync_frames: self.sync_frames - earlier.sync_frames,
            retransmit: self.retransmit - earlier.retransmit,
            retransmit_bits: self.retransmit_bits - earlier.retransmit_bits,
        }
    }

    /// Counter-wise sum.
    pub fn plus(&self, other: &LedgerSnapshot) -> LedgerSnapshot {
        LedgerSnapshot {
            up: self.up + other.up,
            down: self.down + other.down,
            broadcast: self.broadcast + other.broadcast,
            up_bits: self.up_bits + other.up_bits,
            down_bits: self.down_bits + other.down_bits,
            broadcast_bits: self.broadcast_bits + other.broadcast_bits,
            sync_frames: self.sync_frames + other.sync_frames,
            retransmit: self.retransmit + other.retransmit,
            retransmit_bits: self.retransmit_bits + other.retransmit_bits,
        }
    }
}

/// Bytes-on-the-wire accounting for the socket runtime
/// ([`crate::socket`]) — the physical counterpart of the model ledger.
///
/// The model ledger counts *messages* and their `wire_bits()` size budget;
/// this block counts what actually crossed a socket: every framed copy of a
/// model message (a broadcast framed to the shards of the visited nodes is
/// one wire copy per shard frame here, still one model broadcast) and every
/// byte written in either direction, length prefixes and frame headers
/// included. The
/// [`FireCalendar`](crate::calendar::FireCalendar) skip rule and
/// [`RoundScope`](crate::behavior::RoundScope) narrowing therefore show up
/// directly in `broadcast_frames`/`bytes_total`, not just in simulated
/// frame counts.
///
/// All counters are monotone; the runtime hands the block to the
/// coordinator after every committed step via
/// [`CoordinatorBehavior::note_wire`](crate::behavior::CoordinatorBehavior::note_wire).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireMetrics {
    /// On-wire copies of model up-messages (one per reply entry carrying a
    /// payload).
    pub up_frames: u64,
    /// Encoded payload bytes of those up-messages.
    pub up_bytes: u64,
    /// On-wire copies of model unicasts.
    pub down_frames: u64,
    /// Encoded payload bytes of those unicasts.
    pub down_bytes: u64,
    /// On-wire *copies* of model broadcasts: one per work frame that
    /// carries the broadcast (the model ledger still charges each broadcast
    /// once).
    pub broadcast_frames: u64,
    /// Encoded payload bytes of those broadcast copies.
    pub broadcast_bytes: u64,
    /// Faulty / recovery wire traffic on a chaotic socket transport:
    /// duplicates, torn halves, re-deliveries after a reconnect, re-sent
    /// waves, abort fencing, stale replies. Always zero on a clean
    /// transport, so the model split above stays byte-identical to a
    /// fault-free run.
    pub retransmit_frames: u64,
    /// Payload bytes of those retransmit-channel frames.
    pub retransmit_bytes: u64,
    /// Every physical frame that crossed a socket, both directions (work
    /// frames, replies, handshake, halt).
    pub frames_total: u64,
    /// Every byte written to a socket, both directions, including the
    /// 4-byte length prefixes and frame headers.
    pub bytes_total: u64,
}

impl WireMetrics {
    /// Record one on-wire copy of a model message of `kind` whose encoded
    /// payload occupies `bytes` bytes inside its frame.
    #[inline]
    pub fn count(&mut self, kind: ChannelKind, bytes: u64) {
        match kind {
            ChannelKind::Up => {
                self.up_frames += 1;
                self.up_bytes += bytes;
            }
            ChannelKind::Down => {
                self.down_frames += 1;
                self.down_bytes += bytes;
            }
            ChannelKind::Broadcast => {
                self.broadcast_frames += 1;
                self.broadcast_bytes += bytes;
            }
            ChannelKind::Retransmit => {
                self.retransmit_frames += 1;
                self.retransmit_bytes += bytes;
            }
        }
    }

    /// Wire copies of model messages sent on `kind`.
    #[inline]
    pub fn frames_sent(&self, kind: ChannelKind) -> u64 {
        match kind {
            ChannelKind::Up => self.up_frames,
            ChannelKind::Down => self.down_frames,
            ChannelKind::Broadcast => self.broadcast_frames,
            ChannelKind::Retransmit => self.retransmit_frames,
        }
    }

    /// Encoded payload bytes of model messages sent on `kind`.
    #[inline]
    pub fn bytes_sent(&self, kind: ChannelKind) -> u64 {
        match kind {
            ChannelKind::Up => self.up_bytes,
            ChannelKind::Down => self.down_bytes,
            ChannelKind::Broadcast => self.broadcast_bytes,
            ChannelKind::Retransmit => self.retransmit_bytes,
        }
    }

    /// Bytes of `bytes_total` occupied by model-message payloads.
    #[inline]
    pub fn model_bytes(&self) -> u64 {
        self.up_bytes + self.down_bytes + self.broadcast_bytes + self.retransmit_bytes
    }

    /// Framing overhead: length prefixes, frame headers, handshake and
    /// empty-poll frames — everything on the wire that is not a model
    /// payload.
    #[inline]
    pub fn overhead_bytes(&self) -> u64 {
        self.bytes_total.saturating_sub(self.model_bytes())
    }

    /// Counter-wise accumulate `other` into `self` — the aggregation step
    /// of the sharded serving layer (`topk-serve` sums its shards' wire
    /// ledgers into one service-level block).
    pub fn absorb(&mut self, other: &WireMetrics) {
        self.up_frames += other.up_frames;
        self.up_bytes += other.up_bytes;
        self.down_frames += other.down_frames;
        self.down_bytes += other.down_bytes;
        self.broadcast_frames += other.broadcast_frames;
        self.broadcast_bytes += other.broadcast_bytes;
        self.retransmit_frames += other.retransmit_frames;
        self.retransmit_bytes += other.retransmit_bytes;
        self.frames_total += other.frames_total;
        self.bytes_total += other.bytes_total;
    }
}

/// Mutable message ledger owned by a runtime driver.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CommLedger {
    snap: LedgerSnapshot,
}

impl CommLedger {
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one model message of `kind` carrying `bits` payload bits.
    #[inline]
    pub fn count(&mut self, kind: ChannelKind, bits: u32) {
        match kind {
            ChannelKind::Up => {
                self.snap.up += 1;
                self.snap.up_bits += bits as u64;
            }
            ChannelKind::Down => {
                self.snap.down += 1;
                self.snap.down_bits += bits as u64;
            }
            ChannelKind::Broadcast => {
                self.snap.broadcast += 1;
                self.snap.broadcast_bits += bits as u64;
            }
            ChannelKind::Retransmit => {
                self.snap.retransmit += 1;
                self.snap.retransmit_bits += bits as u64;
            }
        }
    }

    /// Record one transport-level synchronization frame (transport runtime
    /// only; excluded from model cost).
    #[inline]
    pub fn count_sync(&mut self) {
        self.snap.sync_frames += 1;
    }

    #[inline]
    pub fn up(&self) -> u64 {
        self.snap.up
    }

    #[inline]
    pub fn down(&self) -> u64 {
        self.snap.down
    }

    #[inline]
    pub fn broadcast(&self) -> u64 {
        self.snap.broadcast
    }

    #[inline]
    pub fn sync_frames(&self) -> u64 {
        self.snap.sync_frames
    }

    #[inline]
    pub fn retransmit(&self) -> u64 {
        self.snap.retransmit
    }

    /// Total model messages.
    #[inline]
    pub fn total(&self) -> u64 {
        self.snap.total()
    }

    /// Immutable snapshot of all counters.
    #[inline]
    pub fn snapshot(&self) -> LedgerSnapshot {
        self.snap
    }

    /// Reset all counters to zero.
    pub fn reset(&mut self) {
        self.snap = LedgerSnapshot::default();
    }

    /// Rewind the model channels (and sync frames) to `mark`, keeping the
    /// retransmit counters monotone — used when a crashed step attempt is
    /// discarded: its model traffic never happened, but the recovery
    /// traffic physically did.
    pub fn rollback_model(&mut self, mark: &LedgerSnapshot) {
        debug_assert!(mark.retransmit <= self.snap.retransmit);
        let retransmit = self.snap.retransmit;
        let retransmit_bits = self.snap.retransmit_bits;
        self.snap = *mark;
        self.snap.retransmit = retransmit;
        self.snap.retransmit_bits = retransmit_bits;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_by_kind() {
        let mut l = CommLedger::new();
        l.count(ChannelKind::Up, 32);
        l.count(ChannelKind::Up, 16);
        l.count(ChannelKind::Down, 8);
        l.count(ChannelKind::Broadcast, 40);
        l.count_sync();
        assert_eq!(l.up(), 2);
        assert_eq!(l.down(), 1);
        assert_eq!(l.broadcast(), 1);
        assert_eq!(l.total(), 4);
        assert_eq!(l.sync_frames(), 1);
        let s = l.snapshot();
        assert_eq!(s.up_bits, 48);
        assert_eq!(s.total_bits(), 96);
        assert_eq!(s.total(), 4);
    }

    #[test]
    fn snapshot_delta_and_sum() {
        let mut l = CommLedger::new();
        l.count(ChannelKind::Up, 10);
        let a = l.snapshot();
        l.count(ChannelKind::Broadcast, 20);
        l.count(ChannelKind::Up, 10);
        let b = l.snapshot();
        let d = b.since(&a);
        assert_eq!(d.up, 1);
        assert_eq!(d.broadcast, 1);
        assert_eq!(d.total(), 2);
        assert_eq!(a.plus(&d), b);
    }

    #[test]
    fn retransmit_never_enters_model_totals() {
        let mut l = CommLedger::new();
        l.count(ChannelKind::Up, 32);
        l.count(ChannelKind::Retransmit, 32);
        l.count(ChannelKind::Retransmit, 0);
        assert_eq!(l.total(), 1);
        assert_eq!(l.snapshot().total_bits(), 32);
        assert_eq!(l.retransmit(), 2);
        assert_eq!(l.snapshot().retransmit_bits, 32);
    }

    #[test]
    fn rollback_model_keeps_recovery_traffic() {
        let mut l = CommLedger::new();
        l.count(ChannelKind::Up, 8);
        l.count(ChannelKind::Retransmit, 4);
        let mark = l.snapshot();
        l.count(ChannelKind::Down, 16);
        l.count_sync();
        l.count(ChannelKind::Retransmit, 4);
        l.rollback_model(&mark);
        // Model traffic + sync rewound, retransmit preserved.
        assert_eq!(l.up(), 1);
        assert_eq!(l.down(), 0);
        assert_eq!(l.sync_frames(), 0);
        assert_eq!(l.retransmit(), 2);
        assert_eq!(l.snapshot().retransmit_bits, 8);
    }

    #[test]
    fn reset_zeroes() {
        let mut l = CommLedger::new();
        l.count(ChannelKind::Down, 1);
        l.reset();
        assert_eq!(l.total(), 0);
        assert_eq!(l.snapshot(), LedgerSnapshot::default());
    }
}
