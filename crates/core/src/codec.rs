//! Binary wire codec for the Algorithm 1 message vocabulary.
//!
//! The in-memory runtimes pass enums directly; this codec proves the
//! vocabulary really serializes into the model's `O(log n + log max v)`
//! size budget (every encoding is exactly `wire_bits()/8` bytes, checked in
//! tests and by a round-trip property suite), and gives a real deployment a
//! concrete frame format: 1 tag byte + LEB128 varints.

use bytes::{Buf, BufMut};

use topk_net::id::NodeId;
use topk_net::socket::{FrameCodec, WireError};
use topk_net::wire::{get_varint, put_varint, Report};

use crate::metrics::RunMetrics;
use crate::msg::{DownMsg, UpMsg};

// Tag bytes (stable wire contract).
const T_VIOL_MIN: u8 = 0x01;
const T_VIOL_MAX: u8 = 0x02;
const T_HANDLER: u8 = 0x03;
const T_RESET: u8 = 0x04;

const T_VIOL_MIN_ANN: u8 = 0x11;
const T_VIOL_MAX_ANN: u8 = 0x12;
const T_HANDLER_START_MIN: u8 = 0x13;
const T_HANDLER_START_MAX: u8 = 0x14;
const T_HANDLER_ANN: u8 = 0x15;
const T_MIDPOINT: u8 = 0x16;
const T_RESET_START: u8 = 0x17;
// 0x18 retired (`ResetWinner`, the reset winner rank) — never reuse
// 0x19 retired (legacy reset announce) — never reuse
const T_RESET_DONE: u8 = 0x1a;
const T_RESET_BAR: u8 = 0x1b;
const T_BAND: u8 = 0x1c;

const T_SNAPSHOT: u8 = 0x21;
const SNAPSHOT_VERSION: u8 = 0x01;

// Snapshot flag bits.
const F_INITIALIZED: u8 = 0b001;
const F_THRESHOLD: u8 = 0b010;
const F_TRACKER: u8 = 0b100;

/// Codec error: unknown tag or truncated/overlong payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

impl std::error::Error for DecodeError {}

fn put_report(buf: &mut impl BufMut, r: Report) {
    r.encode(buf);
}

fn get_report(buf: &mut impl Buf) -> Result<Report, DecodeError> {
    Report::decode(buf).ok_or_else(|| DecodeError("truncated report".into()))
}

/// Encode an up-message. The produced length is exactly
/// `msg.wire_bits() / 8` bytes.
pub fn encode_up(msg: &UpMsg, buf: &mut impl BufMut) {
    let (tag, report) = match *msg {
        UpMsg::ViolMin(r) => (T_VIOL_MIN, r),
        UpMsg::ViolMax(r) => (T_VIOL_MAX, r),
        UpMsg::Handler(r) => (T_HANDLER, r),
        UpMsg::Reset(r) => (T_RESET, r),
    };
    buf.put_u8(tag);
    put_report(buf, report);
}

/// Decode an up-message.
pub fn decode_up(buf: &mut impl Buf) -> Result<UpMsg, DecodeError> {
    if !buf.has_remaining() {
        return Err(DecodeError("empty buffer".into()));
    }
    let tag = buf.get_u8();
    let r = get_report(buf)?;
    Ok(match tag {
        T_VIOL_MIN => UpMsg::ViolMin(r),
        T_VIOL_MAX => UpMsg::ViolMax(r),
        T_HANDLER => UpMsg::Handler(r),
        T_RESET => UpMsg::Reset(r),
        other => return Err(DecodeError(format!("unknown up tag {other:#x}"))),
    })
}

/// Encode a down-message. The produced length is exactly
/// `msg.wire_bits() / 8` bytes.
pub fn encode_down(msg: &DownMsg, buf: &mut impl BufMut) {
    match *msg {
        DownMsg::ViolMinAnnounce(r) => {
            buf.put_u8(T_VIOL_MIN_ANN);
            put_report(buf, r);
        }
        DownMsg::ViolMaxAnnounce(r) => {
            buf.put_u8(T_VIOL_MAX_ANN);
            put_report(buf, r);
        }
        DownMsg::HandlerStartMin => buf.put_u8(T_HANDLER_START_MIN),
        DownMsg::HandlerStartMax => buf.put_u8(T_HANDLER_START_MAX),
        DownMsg::HandlerAnnounce(r) => {
            buf.put_u8(T_HANDLER_ANN);
            put_report(buf, r);
        }
        DownMsg::Midpoint(m) => {
            buf.put_u8(T_MIDPOINT);
            put_varint(buf, m);
        }
        DownMsg::Band(m) => {
            buf.put_u8(T_BAND);
            put_varint(buf, m);
        }
        DownMsg::ResetStart => buf.put_u8(T_RESET_START),
        DownMsg::ResetBar(r) => {
            buf.put_u8(T_RESET_BAR);
            put_report(buf, r);
        }
        DownMsg::ResetDone { threshold, cut } => {
            buf.put_u8(T_RESET_DONE);
            put_varint(buf, threshold);
            put_report(buf, cut);
        }
    }
}

/// Decode a down-message.
pub fn decode_down(buf: &mut impl Buf) -> Result<DownMsg, DecodeError> {
    if !buf.has_remaining() {
        return Err(DecodeError("empty buffer".into()));
    }
    let tag = buf.get_u8();
    Ok(match tag {
        T_VIOL_MIN_ANN => DownMsg::ViolMinAnnounce(get_report(buf)?),
        T_VIOL_MAX_ANN => DownMsg::ViolMaxAnnounce(get_report(buf)?),
        T_HANDLER_START_MIN => DownMsg::HandlerStartMin,
        T_HANDLER_START_MAX => DownMsg::HandlerStartMax,
        T_HANDLER_ANN => DownMsg::HandlerAnnounce(get_report(buf)?),
        T_MIDPOINT => DownMsg::Midpoint(
            get_varint(buf).ok_or_else(|| DecodeError("truncated midpoint".into()))?,
        ),
        T_BAND => DownMsg::Band(
            get_varint(buf).ok_or_else(|| DecodeError("truncated band threshold".into()))?,
        ),
        T_RESET_START => DownMsg::ResetStart,
        T_RESET_BAR => DownMsg::ResetBar(get_report(buf)?),
        T_RESET_DONE => DownMsg::ResetDone {
            threshold: get_varint(buf).ok_or_else(|| DecodeError("truncated threshold".into()))?,
            cut: get_report(buf)?,
        },
        other => return Err(DecodeError(format!("unknown down tag {other:#x}"))),
    })
}

/// The socket transport embeds model messages in its frames through
/// [`FrameCodec`]; the encodings are exactly [`encode_up`]/[`encode_down`]
/// (tag byte + varints, self-delimiting), so the bytes on the wire are the
/// same vocabulary this module defines — a codec decode failure surfaces as
/// a typed [`WireError::Malformed`], never a panic.
impl FrameCodec for UpMsg {
    fn encode_frame(&self, buf: &mut Vec<u8>) {
        encode_up(self, buf);
    }

    fn decode_frame(buf: &mut &[u8]) -> Result<Self, WireError> {
        decode_up(buf).map_err(|DecodeError(what)| WireError::Malformed { what })
    }
}

impl FrameCodec for DownMsg {
    fn encode_frame(&self, buf: &mut Vec<u8>) {
        encode_down(self, buf);
    }

    fn decode_frame(buf: &mut &[u8]) -> Result<Self, WireError> {
        decode_down(buf).map_err(|DecodeError(what)| WireError::Malformed { what })
    }
}

/// Coordinator state at a committed step boundary — everything a restarted
/// coordinator needs to resume monitoring, and nothing more. Per-step phase
/// machinery (the aggregators) is deliberately absent: snapshots are taken
/// only between steps, where the phase is `Done` and all scratch state is
/// dead. The recovery counters of [`RunMetrics`] are likewise
/// excluded — they belong to the live transport, not the committed protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoordSnapshot {
    /// Has the `t = 0` initialization reset completed?
    pub initialized: bool,
    /// The filter threshold the nodes currently hold, if any.
    pub last_threshold: Option<u64>,
    /// `(T+, T−, epoch_start)` of the live epoch, if any.
    pub tracker: Option<(u64, u64, u64)>,
    /// Current answer: top-k ids, sorted ascending.
    pub topk_ids: Vec<NodeId>,
    /// Committed protocol counters (`recovery` is zeroed on decode).
    pub metrics: RunMetrics,
}

/// Encode a coordinator snapshot: tag + version + flags byte, then varints.
pub fn encode_snapshot(s: &CoordSnapshot, buf: &mut impl BufMut) {
    buf.put_u8(T_SNAPSHOT);
    buf.put_u8(SNAPSHOT_VERSION);
    let mut flags = 0u8;
    if s.initialized {
        flags |= F_INITIALIZED;
    }
    if s.last_threshold.is_some() {
        flags |= F_THRESHOLD;
    }
    if s.tracker.is_some() {
        flags |= F_TRACKER;
    }
    buf.put_u8(flags);
    if let Some(th) = s.last_threshold {
        put_varint(buf, th);
    }
    if let Some((t_plus, t_minus, epoch_start)) = s.tracker {
        put_varint(buf, t_plus);
        put_varint(buf, t_minus);
        put_varint(buf, epoch_start);
    }
    put_varint(buf, s.topk_ids.len() as u64);
    for id in &s.topk_ids {
        put_varint(buf, id.0 as u64);
    }
    let m = &s.metrics;
    for counter in [
        m.steps,
        m.violation_steps,
        m.viol_up,
        m.viol_bcast,
        m.handler_calls,
        m.handler_protocols,
        m.handler_up,
        m.handler_bcast,
        m.midpoint_updates,
        m.midpoint_bcast,
        m.resets,
        m.reset_up,
        m.reset_bcast,
        m.reset_rounds,
        m.band_hits,
        m.band_bcast,
    ] {
        put_varint(buf, counter);
    }
}

fn need(buf: &mut impl Buf, what: &str) -> Result<u64, DecodeError> {
    get_varint(buf).ok_or_else(|| DecodeError(format!("truncated {what}")))
}

/// Decode a coordinator snapshot. Structural validation only (tags, flags,
/// completeness, a live `T+ ≥ T−` certificate, sorted unique ids); semantic
/// validation against the monitor configuration is the caller's job.
pub fn decode_snapshot(buf: &mut impl Buf) -> Result<CoordSnapshot, DecodeError> {
    if buf.remaining() < 3 {
        return Err(DecodeError("truncated snapshot header".into()));
    }
    let tag = buf.get_u8();
    if tag != T_SNAPSHOT {
        return Err(DecodeError(format!("unknown snapshot tag {tag:#x}")));
    }
    let version = buf.get_u8();
    if version != SNAPSHOT_VERSION {
        return Err(DecodeError(format!("unknown snapshot version {version}")));
    }
    let flags = buf.get_u8();
    if flags & !(F_INITIALIZED | F_THRESHOLD | F_TRACKER) != 0 {
        return Err(DecodeError(format!("unknown snapshot flags {flags:#b}")));
    }
    let last_threshold = if flags & F_THRESHOLD != 0 {
        Some(need(buf, "threshold")?)
    } else {
        None
    };
    let tracker = if flags & F_TRACKER != 0 {
        let t_plus = need(buf, "tracker T+")?;
        let t_minus = need(buf, "tracker T-")?;
        let epoch_start = need(buf, "tracker epoch")?;
        if t_plus < t_minus {
            return Err(DecodeError("snapshot tracker certificate is dead".into()));
        }
        Some((t_plus, t_minus, epoch_start))
    } else {
        None
    };
    let n_ids = need(buf, "id count")?;
    if n_ids > u32::MAX as u64 {
        return Err(DecodeError("id count overflow".into()));
    }
    let mut topk_ids = Vec::with_capacity(n_ids as usize);
    for _ in 0..n_ids {
        let raw = need(buf, "node id")?;
        let id = NodeId(u32::try_from(raw).map_err(|_| DecodeError("node id overflow".into()))?);
        if topk_ids.last().is_some_and(|prev| *prev >= id) {
            return Err(DecodeError("snapshot ids not sorted/unique".into()));
        }
        topk_ids.push(id);
    }
    let mut counters = [0u64; 16];
    for c in counters.iter_mut() {
        *c = need(buf, "metrics counter")?;
    }
    let metrics = RunMetrics {
        steps: counters[0],
        violation_steps: counters[1],
        viol_up: counters[2],
        viol_bcast: counters[3],
        handler_calls: counters[4],
        handler_protocols: counters[5],
        handler_up: counters[6],
        handler_bcast: counters[7],
        midpoint_updates: counters[8],
        midpoint_bcast: counters[9],
        resets: counters[10],
        reset_up: counters[11],
        reset_bcast: counters[12],
        reset_rounds: counters[13],
        band_hits: counters[14],
        band_bcast: counters[15],
        recovery: Default::default(),
        wire: Default::default(),
    };
    Ok(CoordSnapshot {
        initialized: flags & F_INITIALIZED != 0,
        last_threshold,
        tracker,
        topk_ids,
        metrics,
    })
}

/// All message constructors, for exhaustive tests.
#[cfg(test)]
fn sample_messages(id: topk_net::id::NodeId, v: u64) -> (Vec<UpMsg>, Vec<DownMsg>) {
    let r = Report { id, value: v };
    (
        vec![
            UpMsg::ViolMin(r),
            UpMsg::ViolMax(r),
            UpMsg::Handler(r),
            UpMsg::Reset(r),
        ],
        vec![
            DownMsg::ViolMinAnnounce(r),
            DownMsg::ViolMaxAnnounce(r),
            DownMsg::HandlerStartMin,
            DownMsg::HandlerStartMax,
            DownMsg::HandlerAnnounce(r),
            DownMsg::Midpoint(v),
            DownMsg::Band(v),
            DownMsg::ResetStart,
            DownMsg::ResetBar(r),
            DownMsg::ResetDone {
                threshold: v,
                cut: r,
            },
        ],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;
    use proptest::prelude::*;
    use topk_net::id::NodeId;
    use topk_net::wire::WireSize;

    #[test]
    fn exhaustive_roundtrip_and_size_model() {
        for (id, v) in [
            (0u32, 0u64),
            (1, 1),
            (12345, 987_654_321),
            (u32::MAX, u64::MAX),
        ] {
            let (ups, downs) = sample_messages(NodeId(id), v);
            for m in ups {
                let mut buf = BytesMut::new();
                encode_up(&m, &mut buf);
                assert_eq!(
                    buf.len() as u32 * 8,
                    m.wire_bits(),
                    "size model must equal encoding for {m:?}"
                );
                let mut rd = buf.freeze();
                assert_eq!(decode_up(&mut rd).unwrap(), m);
                assert!(!rd.has_remaining(), "no trailing bytes for {m:?}");
            }
            for m in downs {
                let mut buf = BytesMut::new();
                encode_down(&m, &mut buf);
                assert_eq!(
                    buf.len() as u32 * 8,
                    m.wire_bits(),
                    "size model must equal encoding for {m:?}"
                );
                let mut rd = buf.freeze();
                assert_eq!(decode_down(&mut rd).unwrap(), m);
                assert!(!rd.has_remaining(), "no trailing bytes for {m:?}");
            }
        }
    }

    #[test]
    fn rejects_garbage() {
        let mut empty: &[u8] = &[];
        assert!(decode_up(&mut empty).is_err());
        let mut unknown: &[u8] = &[0xff, 0x01, 0x01];
        assert!(decode_down(&mut unknown).is_err());
        let mut truncated: &[u8] = &[super::T_VIOL_MIN, 0x80]; // unterminated varint
        assert!(decode_up(&mut truncated).is_err());
    }

    #[test]
    fn retired_reset_announce_tag_is_rejected() {
        // 0x19 carried a report, 0x18 a rank varint plus a report; a
        // well-formed payload under either tag must still fail.
        let mut frame: &[u8] = &[0x19, 0x03, 0x09];
        assert!(decode_down(&mut frame).is_err());
        let mut frame: &[u8] = &[0x18, 0x02, 0x03, 0x09];
        assert!(decode_down(&mut frame).is_err());
    }

    #[test]
    fn snapshot_roundtrip_and_rejects_garbage() {
        let snap = CoordSnapshot {
            initialized: true,
            last_threshold: Some(12345),
            tracker: Some((900, 850, 17)),
            topk_ids: vec![NodeId(1), NodeId(4), NodeId(9)],
            metrics: RunMetrics {
                steps: 100,
                resets: 3,
                reset_rounds: 42,
                ..Default::default()
            },
        };
        let mut buf = BytesMut::new();
        encode_snapshot(&snap, &mut buf);
        let mut rd = buf.freeze();
        assert_eq!(decode_snapshot(&mut rd).unwrap(), snap);
        assert!(!rd.has_remaining(), "no trailing bytes");

        // Fresh (uninitialized) snapshot: all options empty.
        let fresh = CoordSnapshot {
            initialized: false,
            last_threshold: None,
            tracker: None,
            topk_ids: Vec::new(),
            metrics: RunMetrics::default(),
        };
        let mut buf = BytesMut::new();
        encode_snapshot(&fresh, &mut buf);
        let mut rd = buf.freeze();
        assert_eq!(decode_snapshot(&mut rd).unwrap(), fresh);

        // Structural rejections.
        let mut empty: &[u8] = &[];
        assert!(decode_snapshot(&mut empty).is_err());
        let mut bad_tag: &[u8] = &[0x42, SNAPSHOT_VERSION, 0];
        assert!(decode_snapshot(&mut bad_tag).is_err());
        let mut bad_ver: &[u8] = &[T_SNAPSHOT, 0x7f, 0];
        assert!(decode_snapshot(&mut bad_ver).is_err());
        let mut bad_flags: &[u8] = &[T_SNAPSHOT, SNAPSHOT_VERSION, 0xff];
        assert!(decode_snapshot(&mut bad_flags).is_err());
        // Dead certificate: T+ < T−.
        let mut buf = BytesMut::new();
        buf.put_u8(T_SNAPSHOT);
        buf.put_u8(SNAPSHOT_VERSION);
        buf.put_u8(F_TRACKER);
        put_varint(&mut buf, 5); // T+
        put_varint(&mut buf, 9); // T− > T+
        put_varint(&mut buf, 0);
        let mut rd = buf.freeze();
        assert!(decode_snapshot(&mut rd).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn snapshot_roundtrip_prop(
            flags in 0u8..8,
            threshold in 0u64..=u64::MAX,
            a in 0u64..=u64::MAX, b in 0u64..=u64::MAX, epoch in 0u64..=u64::MAX,
            ids in proptest::collection::vec(0u32..=u32::MAX, 0..32),
            counters in proptest::collection::vec(0u64..=u64::MAX, 16),
        ) {
            let mut ids: Vec<NodeId> = ids.into_iter().map(NodeId).collect();
            ids.sort_unstable();
            ids.dedup();
            let snap = CoordSnapshot {
                initialized: flags & 1 != 0,
                last_threshold: (flags & 2 != 0).then_some(threshold),
                tracker: (flags & 4 != 0).then_some((a.max(b), a.min(b), epoch)),
                topk_ids: ids,
                metrics: RunMetrics {
                    steps: counters[0],
                    violation_steps: counters[1],
                    viol_up: counters[2],
                    viol_bcast: counters[3],
                    handler_calls: counters[4],
                    handler_protocols: counters[5],
                    handler_up: counters[6],
                    handler_bcast: counters[7],
                    midpoint_updates: counters[8],
                    midpoint_bcast: counters[9],
                    resets: counters[10],
                    reset_up: counters[11],
                    reset_bcast: counters[12],
                    reset_rounds: counters[13],
                    band_hits: counters[14],
                    band_bcast: counters[15],
                    recovery: Default::default(),
                    wire: Default::default(),
                },
            };
            let mut buf = BytesMut::new();
            encode_snapshot(&snap, &mut buf);
            let mut rd = buf.freeze();
            prop_assert_eq!(decode_snapshot(&mut rd).unwrap(), snap);
            prop_assert!(!rd.has_remaining());
        }

        #[test]
        fn decode_never_panics_on_garbage(bytes in proptest::collection::vec(0u8..=0xff, 0..64)) {
            // Err or Ok are both fine — panicking is the only failure mode.
            let mut rd: &[u8] = &bytes;
            let _ = decode_up(&mut rd);
            let mut rd: &[u8] = &bytes;
            let _ = decode_down(&mut rd);
            let mut rd: &[u8] = &bytes;
            let _ = decode_snapshot(&mut rd);
        }

        #[test]
        fn decode_never_panics_on_truncation(id in 0u32..=u32::MAX, v in 0u64..=u64::MAX, which in 0u8..10, cut in 0usize..16) {
            let r = Report { id: NodeId(id), value: v };
            let m = match which {
                0 => DownMsg::ViolMinAnnounce(r),
                1 => DownMsg::ViolMaxAnnounce(r),
                2 => DownMsg::HandlerStartMin,
                3 => DownMsg::HandlerStartMax,
                4 => DownMsg::HandlerAnnounce(r),
                5 => DownMsg::Midpoint(v),
                6 => DownMsg::ResetStart,
                7 => DownMsg::ResetBar(r),
                8 => DownMsg::Band(v),
                _ => DownMsg::ResetDone { threshold: v, cut: r },
            };
            let mut buf = BytesMut::new();
            encode_down(&m, &mut buf);
            let keep = buf.len().saturating_sub(cut.min(buf.len()));
            let mut rd: &[u8] = &buf[..keep];
            let res = decode_down(&mut rd);
            if cut == 0 {
                prop_assert_eq!(res.unwrap(), m);
            } else if keep < buf.len() {
                prop_assert!(res.is_err(), "truncated input must be rejected");
            }
        }

        #[test]
        fn up_roundtrip(id in 0u32..=u32::MAX, v in 0u64..=u64::MAX, which in 0u8..4) {
            let r = Report { id: NodeId(id), value: v };
            let m = match which {
                0 => UpMsg::ViolMin(r),
                1 => UpMsg::ViolMax(r),
                2 => UpMsg::Handler(r),
                _ => UpMsg::Reset(r),
            };
            let mut buf = BytesMut::new();
            encode_up(&m, &mut buf);
            prop_assert_eq!(buf.len() as u32 * 8, m.wire_bits());
            let mut rd = buf.freeze();
            prop_assert_eq!(decode_up(&mut rd).unwrap(), m);
        }

        #[test]
        fn down_roundtrip(id in 0u32..=u32::MAX, v in 0u64..=u64::MAX, which in 0u8..10) {
            let r = Report { id: NodeId(id), value: v };
            let m = match which {
                0 => DownMsg::ViolMinAnnounce(r),
                1 => DownMsg::ViolMaxAnnounce(r),
                2 => DownMsg::HandlerStartMin,
                3 => DownMsg::HandlerStartMax,
                4 => DownMsg::HandlerAnnounce(r),
                5 => DownMsg::Midpoint(v),
                6 => DownMsg::ResetStart,
                7 => DownMsg::ResetBar(r),
                8 => DownMsg::Band(v),
                _ => DownMsg::ResetDone { threshold: v, cut: r },
            };
            let mut buf = BytesMut::new();
            encode_down(&m, &mut buf);
            prop_assert_eq!(buf.len() as u32 * 8, m.wire_bits());
            let mut rd = buf.freeze();
            prop_assert_eq!(decode_down(&mut rd).unwrap(), m);
        }
    }
}
