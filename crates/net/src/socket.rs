//! Socket transport: node shards live behind loopback-TCP connections, and
//! each shard gets one length-prefixed work frame per wave.
//!
//! The step driver — visit rule, ledger accounting, fault injection and the
//! recovery state machine — is [`crate::driver::Cluster`]; [`SocketCluster`]
//! is that driver over [`SocketTransport`]. What this module adds is the
//! wire: [`SocketTransport::spawn`] binds a loopback listener on port 0 and
//! spawns [`shard_count`]`(n)` shard threads, each owning a contiguous id
//! range of node behaviors and one persistent connection. A shard
//! identifies itself with a version-checked `Hello` frame (accept order is
//! nondeterministic; the handshake makes stream identity deterministic).
//!
//! Each shard is one endpoint of the driver. Per wave it receives one work
//! frame that carries the key once, the round's broadcasts once, and one
//! entry per polled node; it runs the nodes in id order and answers with
//! one reply frame holding one entry per node. A wave too large for
//! [`MAX_FRAME_LEN`] is split across frames, the last one marked. The
//! driver reads the shard sockets itself, on its own thread, and only those
//! of shards that still owe it replies. An abort wave sends one abort per
//! shard.
//!
//! # Why neither side can block the other
//!
//! Both sides use blocking sockets, so the rules below are what keeps every
//! wait finite.
//!
//! 1. **A shard answers a wave only after reading all of it.** It holds the
//!    replies to a split wave until it has read the frame marked last, and
//!    it writes an abort's ack after reading the abort. It flushes only when
//!    it is about to wait for input (its read buffer holds no whole frame)
//!    or before an injected stall, so a shard never waits to read while it
//!    still holds replies.
//! 2. **The driver writes a whole wave before it reads**, re-sends and
//!    injected duplicates included, and flushes each shard's bytes in one
//!    go. A write that makes no progress within one tick returns, and the
//!    driver then reads that shard's socket into its receive buffer before
//!    it tries again. So the driver never stays blocked on a shard that is
//!    itself blocked writing to the driver: taking in the shard's bytes
//!    frees it to read on.
//! 3. **The driver reads only from shards that owe it replies.** A shard
//!    owes replies only once the driver has flushed the whole wave (or
//!    abort) to it, so by rule 1 the shard is working toward its reply or
//!    writing it. A read waits at most one tick; then the driver checks
//!    for dead shards and, on a chaotic transport, re-sends.
//!
//! Without injected faults a shard never writes while the driver writes
//! to it: by rule 1 it is still reading the wave. Split waves change nothing,
//! since the parts of one wave go out back to back. Traffic that can
//! overlap — a shard answering a duplicate or a re-send from its reply
//! cache, a stalled shard answering late, the acks of an abort wave — is
//! what rule 2's drain is for. Bytes taken in early stay in the receive
//! buffer until [`Transport::recv`] reaches them, where stale frames are
//! discarded by key.
//!
//! Because the frames are real bytes, the visit rule's skips are
//! measurable as bytes *not* written, tallied in [`WireMetrics`] — the
//! physical twin of the model ledger — while the model ledger itself stays
//! bit-identical to every other runtime.
//!
//! # Frame format
//!
//! See [`crate::wire`] for the byte-level layout (4-byte little-endian
//! length prefix, tag byte, LEB128 varint fields, version byte in `Hello`,
//! the wave and reply entries). Model payloads are embedded through
//! [`FrameCodec`], whose implementations delegate to the concrete message
//! codec (e.g. `topk-core`'s `codec.rs`). There is one layout, with or
//! without a fault schedule: every work and reply frame carries the whole
//! `(t, run, m)` key, so every shard dedups a re-delivered wave, answers it
//! from its nodes' reply caches, acks an abort and re-handshakes after a
//! lost connection. An injected stall is a control frame of its own, sent
//! ahead of the wave. The layout is pinned byte for byte by
//! `crates/net/tests/wire_golden.rs`.
//!
//! # Wire faults
//!
//! On top of the driver's in-process classes, [`WireChaos`] attacks the
//! connection itself ([`Transport::wire_fault`]): a **torn** frame (half the
//! payload, then a sever), a connection **reset** before the write, a
//! **half-open** connection (wave delivered, severed before the reply), and
//! a **reconnect storm** of junk connections racing the shard's real
//! re-handshake. Like every fault, each rolls once per shard and wave. A
//! severed shard reconnects to the driver's listener, which stays open for
//! the transport's whole life, and re-sends its
//! `Hello` (version and shard id are validated, junk is skipped); the wave
//! is then re-delivered and each node dedups it by its key. All faulty
//! traffic is charged to [`ChannelKind::Retransmit`] in both ledgers.

use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::ops::Range;
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::behavior::{NodeBehavior, RoundAction};
use crate::chaos::{ChaosPolicy, RecoveryMetrics, RuntimeError, WireChaos};
use crate::driver::{
    Cluster, FrameKey, NodeHost, Reply, ReplyHead, Transport, Work, ABORT_M, MAX_IDLE_TICKS,
    RECV_TICK_MS,
};
use crate::id::{NodeId, Value};
use crate::ledger::{ChannelKind, WireMetrics};
use crate::wire::{get_varint, put_varint};

/// The step driver over loopback-TCP node shards.
pub type SocketCluster<NB> = Cluster<NB, SocketTransport<NB>>;

/// Length of the frame length prefix (little-endian `u32`).
pub const FRAME_PREFIX_LEN: usize = 4;

/// Upper bound on a declared payload length. A prefix above this is
/// rejected *before* any allocation — a torn or hostile stream cannot make
/// the reader balloon — and a wave that would exceed it is split.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Transport wire-format version, carried in every `Hello` frame.
pub const WIRE_VERSION: u8 = 0x03;

/// Upper bound on shard connections (one per node below that).
const MAX_SHARDS: usize = 4;

/// Initial size of the driver's receive buffer per shard (the size of the
/// `BufReader` it replaced). It grows only when a frame needs more.
const RECV_BUF_LEN: usize = 8 * 1024;

/// How long `spawn` waits for all shards to connect and say hello.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(10);

/// First and longest sleep of a non-blocking accept loop (see [`Backoff`]).
const ACCEPT_POLL_MIN: Duration = Duration::from_micros(20);
const ACCEPT_POLL_MAX: Duration = Duration::from_millis(1);

/// Reconnect attempts a shard may consume before giving up — far above
/// any real fault schedule; a runaway sever loop fails typed instead of
/// spinning forever.
const SHARD_RECONNECT_BUDGET: u32 = 256;

// Transport frame tags (distinct namespace from the model-message codec).
const T_HELLO: u8 = 0x01;
/// The last (usually the only) work frame of a shard's wave.
const T_WAVE: u8 = 0x10;
/// A work frame with more of its wave to follow.
const T_WAVE_MORE: u8 = 0x11;
/// Sleep for the given milliseconds before reading on (an injected stall).
const T_STALL: u8 = 0x1d;
const T_ABORT: u8 = 0x1e;
const T_HALT: u8 = 0x1f;
const T_REPLY: u8 = 0x20;

// Reply flag bits.
const F_UP: u8 = 0b001;
const F_ENGAGED: u8 = 0b010;
const F_WAKE: u8 = 0b100;

/// Longest varint of a `u32` (an entry's id delta).
const MAX_U32_VARINT: usize = 5;

/// Typed failure of the socket framing layer. The reader never panics on a
/// torn stream: truncated prefixes, oversized declared lengths and
/// mid-frame EOF each map to their own variant (pinned by the torn-frame
/// proptests in `crates/net/tests/socket_frames.rs`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// EOF inside (or before) the 4-byte length prefix. `have == 0` is a
    /// clean close between frames — see [`WireError::is_clean_eof`].
    TruncatedPrefix { have: usize },
    /// Declared payload length exceeds [`MAX_FRAME_LEN`]; rejected before
    /// allocating.
    Oversized { declared: usize, max: usize },
    /// EOF inside the payload.
    TruncatedFrame { declared: usize, have: usize },
    /// Unknown frame tag byte.
    UnknownTag { tag: u8 },
    /// Structurally invalid frame payload (bad varint, trailing bytes,
    /// version mismatch, embedded message rejected by its codec).
    Malformed { what: String },
    /// Underlying socket error.
    Io(io::ErrorKind),
}

impl WireError {
    /// `true` iff this is an orderly connection close on a frame boundary
    /// (zero bytes of the next prefix read) — the normal end of stream,
    /// not a torn frame.
    pub fn is_clean_eof(&self) -> bool {
        matches!(self, WireError::TruncatedPrefix { have: 0 })
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TruncatedPrefix { have } => {
                write!(
                    f,
                    "truncated length prefix ({have}/{FRAME_PREFIX_LEN} bytes)"
                )
            }
            WireError::Oversized { declared, max } => {
                write!(f, "declared frame length {declared} exceeds cap {max}")
            }
            WireError::TruncatedFrame { declared, have } => {
                write!(f, "mid-frame EOF ({have}/{declared} payload bytes)")
            }
            WireError::UnknownTag { tag } => write!(f, "unknown frame tag {tag:#04x}"),
            WireError::Malformed { what } => write!(f, "malformed frame: {what}"),
            WireError::Io(kind) => write!(f, "socket error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

fn malformed(what: impl Into<String>) -> WireError {
    WireError::Malformed { what: what.into() }
}

/// Self-delimiting encoding of a model message inside a transport frame.
///
/// The socket runtime is generic over behaviors; this trait is how a
/// behavior's `Up`/`Down` vocabulary crosses the wire. Implementations
/// must consume exactly the bytes they produced (decode leaves the cursor
/// on the next field) and must never panic on garbage — return
/// [`WireError::Malformed`] instead. `topk-core` implements it for
/// `UpMsg`/`DownMsg` by delegating to its tag-byte + varint codec.
pub trait FrameCodec: Sized {
    /// Append this message's encoding to `buf`.
    fn encode_frame(&self, buf: &mut Vec<u8>);
    /// Decode one message, advancing `buf` past exactly its encoding.
    fn decode_frame(buf: &mut &[u8]) -> Result<Self, WireError>;
}

/// Read exactly `out.len()` bytes, mapping EOF to `err(bytes_read)`.
fn read_exact_or(
    r: &mut impl Read,
    out: &mut [u8],
    err: impl FnOnce(usize) -> WireError,
) -> Result<(), WireError> {
    let mut have = 0;
    while have < out.len() {
        match r.read(&mut out[have..]) {
            Ok(0) => return Err(err(have)),
            Ok(k) => have += k,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    Ok(())
}

/// Read one length-prefixed frame into `payload` (replacing its contents).
///
/// Never panics and never allocates beyond [`MAX_FRAME_LEN`]: a truncated
/// prefix, an oversized declared length and a mid-frame EOF each return
/// their typed [`WireError`].
pub fn read_frame(r: &mut impl Read, payload: &mut Vec<u8>) -> Result<(), WireError> {
    let mut prefix = [0u8; FRAME_PREFIX_LEN];
    read_exact_or(r, &mut prefix, |have| WireError::TruncatedPrefix { have })?;
    let declared = u32::from_le_bytes(prefix) as usize;
    if declared > MAX_FRAME_LEN {
        return Err(WireError::Oversized {
            declared,
            max: MAX_FRAME_LEN,
        });
    }
    payload.resize(declared, 0);
    read_exact_or(r, payload, |have| WireError::TruncatedFrame {
        declared,
        have,
    })
}

/// Write one length-prefixed frame. A payload above [`MAX_FRAME_LEN`],
/// which [`read_frame`] would refuse, is rejected before any byte is
/// written.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), WireError> {
    if payload.len() > MAX_FRAME_LEN {
        return Err(WireError::Oversized {
            declared: payload.len(),
            max: MAX_FRAME_LEN,
        });
    }
    w.write_all(&(payload.len() as u32).to_le_bytes())
        .and_then(|()| w.write_all(payload))
        .map_err(|e| WireError::Io(e.kind()))
}

/// Read the next frame, first flushing `w` unless `r` already holds the
/// whole frame: the read may block, and the peer may be waiting for what
/// `w` holds. This is the shard half of the flush rule (module docs).
fn next_frame<R: Read, W: Write>(
    r: &mut BufReader<R>,
    w: &mut BufWriter<W>,
    payload: &mut Vec<u8>,
) -> Result<(), WireError> {
    let held = r.buffer();
    let whole = held.first_chunk().is_some_and(|prefix| {
        held.len() - FRAME_PREFIX_LEN >= u32::from_le_bytes(*prefix) as usize
    });
    if !whole {
        w.flush().map_err(|e| WireError::Io(e.kind()))?;
    }
    read_frame(r, payload)
}

fn take_u8(rd: &mut &[u8]) -> Option<u8> {
    let (&first, rest) = rd.split_first()?;
    *rd = rest;
    Some(first)
}

fn need_varint(rd: &mut &[u8], what: &str) -> Result<u64, WireError> {
    get_varint(rd).ok_or_else(|| malformed(format!("truncated {what}")))
}

fn need_u32(rd: &mut &[u8], what: &str) -> Result<u32, WireError> {
    u32::try_from(need_varint(rd, what)?).map_err(|_| malformed(format!("{what} overflow")))
}

/// Append the key `(t, run, m)` that heads every work and reply frame.
fn put_key(out: &mut Vec<u8>, (t, run, m): FrameKey) {
    put_varint(out, t);
    put_varint(out, u64::from(run));
    put_varint(out, u64::from(m));
}

/// Read the key that heads a work or reply frame.
fn need_key(rd: &mut &[u8]) -> Result<FrameKey, WireError> {
    Ok((
        need_varint(rd, "t")?,
        need_u32(rd, "run")?,
        need_u32(rd, "m")?,
    ))
}

/// Deterministic shard count for an `n`-node cluster: one connection per
/// node up to `MAX_SHARDS` connections. Fixed by construction so the
/// per-connection byte streams are a pure function of the run.
pub fn shard_count(n: usize) -> usize {
    n.clamp(1, MAX_SHARDS)
}

/// Contiguous `(first_id, len)` ownership ranges, one per shard.
fn shard_ranges(n: usize) -> Vec<(u32, u32)> {
    let s = shard_count(n);
    let (base, rem) = (n / s, n % s);
    let mut out = Vec::with_capacity(s);
    let mut first = 0u32;
    for i in 0..s {
        let len = (base + usize::from(i < rem)) as u32;
        out.push((first, len));
        first += len;
    }
    out
}

/// Per-connection byte capture (both directions), for the golden-frame
/// snapshot test. Cloning clones the handles, not the bytes.
#[derive(Debug, Clone)]
pub struct WireTaps {
    /// Coordinator→shard bytes, per shard, in write order.
    pub to_shard: Vec<Arc<Mutex<Vec<u8>>>>,
    /// Shard→coordinator bytes, per shard, in read order.
    pub from_shard: Vec<Arc<Mutex<Vec<u8>>>>,
}

impl WireTaps {
    fn new(shards: usize) -> Self {
        WireTaps {
            to_shard: (0..shards).map(|_| Arc::default()).collect(),
            from_shard: (0..shards).map(|_| Arc::default()).collect(),
        }
    }

    /// Total captured bytes across all connections and directions.
    ///
    /// Tap mutexes are plain byte buffers, so a thread that panicked while
    /// holding one leaves the data intact — the poison is recovered instead
    /// of propagated, keeping shutdown/metrics collection on the typed
    /// [`RuntimeError`] path rather than turning it into a second panic.
    pub fn total_bytes(&self) -> u64 {
        self.to_shard
            .iter()
            .chain(&self.from_shard)
            .map(|t| t.lock().unwrap_or_else(|p| p.into_inner()).len() as u64)
            .sum()
    }
}

fn tap_extend(tap: &Arc<Mutex<Vec<u8>>>, payload: &[u8]) {
    // See `WireTaps::total_bytes` — recover, don't propagate, tap poison.
    let mut g = tap.lock().unwrap_or_else(|p| p.into_inner());
    g.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    g.extend_from_slice(payload);
}

/// Append bytes that are already framed to a tap.
fn tap_raw(tap: &Arc<Mutex<Vec<u8>>>, framed: &[u8]) {
    // See `WireTaps::total_bytes` — recover, don't propagate, tap poison.
    tap.lock()
        .unwrap_or_else(|p| p.into_inner())
        .extend_from_slice(framed);
}

/// Start a frame at the end of `out`: a placeholder length prefix and the
/// tag. Returns the prefix offset for [`close_frame`].
fn open_frame(out: &mut Vec<u8>, tag: u8) -> usize {
    let at = out.len();
    out.extend_from_slice(&[0; FRAME_PREFIX_LEN]);
    out.push(tag);
    at
}

/// Patch the length prefix of the frame opened at `at`.
fn close_frame(out: &mut [u8], at: usize) {
    let len = (out.len() - at - FRAME_PREFIX_LEN) as u32;
    out[at..at + FRAME_PREFIX_LEN].copy_from_slice(&len.to_le_bytes());
}

/// Encode a control frame (`T_STALL`, `T_ABORT`) of varint `fields` into
/// `out`, replacing its contents.
fn control_frame(out: &mut Vec<u8>, tag: u8, fields: &[u64]) {
    out.clear();
    let at = open_frame(out, tag);
    for &f in fields {
        put_varint(out, f);
    }
    close_frame(out, at);
}

/// The payloads of back-to-back length-prefixed frames this side encoded.
fn payloads(mut framed: &[u8]) -> impl Iterator<Item = &[u8]> {
    std::iter::from_fn(move || {
        let (prefix, rest) = framed.split_first_chunk::<FRAME_PREFIX_LEN>()?;
        let (payload, rest) = rest.split_at(u32::from_le_bytes(*prefix) as usize);
        framed = rest;
        Some(payload)
    })
}

/// A node's staged entry in its shard's wave.
enum Entry {
    /// Node-phase 0: a new value, or `None` for the cached one.
    Observe { id: u32, value: Option<Value> },
    /// Node-phase `m ≥ 1`: how many of the wave's trailing broadcasts the
    /// node gets, and its encoded unicast as a range of [`Wave::ucasts`].
    Round {
        id: u32,
        suffix: u32,
        ucast: Option<(u32, u32)>,
    },
}

/// One shard's part of the wave being staged, and its sealed frames.
#[derive(Default)]
struct Wave {
    /// The longest broadcast suffix any staged node needs, encoded once.
    /// Every node's broadcasts are a suffix of the same log, so the
    /// longest one holds all the others.
    bcasts: Vec<u8>,
    /// Encoded length of each broadcast in `bcasts`.
    bcast_lens: Vec<u32>,
    entries: Vec<Entry>,
    ucasts: Vec<u8>,
    /// The sealed wave: its work frames, length-prefixed, back to back.
    sealed: Vec<u8>,
}

impl Wave {
    fn stage<D: FrameCodec>(&mut self, id: u32, work: Work<'_, D>) {
        let entry = match work {
            Work::Observe(value) => Entry::Observe { id, value },
            Work::Round { bcasts, ucast } => {
                if bcasts.len() > self.bcast_lens.len() {
                    self.bcasts.clear();
                    self.bcast_lens.clear();
                    for b in bcasts {
                        let at = self.bcasts.len();
                        b.encode_frame(&mut self.bcasts);
                        self.bcast_lens.push((self.bcasts.len() - at) as u32);
                    }
                }
                let ucast = ucast.map(|d| {
                    let at = self.ucasts.len() as u32;
                    d.encode_frame(&mut self.ucasts);
                    (at, self.ucasts.len() as u32)
                });
                Entry::Round {
                    id,
                    suffix: bcasts.len() as u32,
                    ucast,
                }
            }
        };
        self.entries.push(entry);
    }

    /// Encode the staged wave under `key` into `sealed` as work frames whose
    /// payloads stay within `cap`, then clear the staging. A frame that
    /// would exceed `cap` is closed as [`T_WAVE_MORE`] and the next one
    /// repeats the header and broadcasts; the last frame is [`T_WAVE`].
    /// Every embedded model payload is charged to `wire` as one copy.
    fn seal(&mut self, key: FrameKey, cap: usize, wire: &mut WireMetrics) {
        let nb = self.bcast_lens.len() as u32;
        let (bcasts, bcast_lens) = (&self.bcasts, &self.bcast_lens);
        let open = |out: &mut Vec<u8>, wire: &mut WireMetrics| {
            let at = open_frame(out, T_WAVE_MORE);
            put_key(out, key);
            put_varint(out, nb as u64);
            out.extend_from_slice(bcasts);
            for &len in bcast_lens {
                wire.count(ChannelKind::Broadcast, len as u64);
            }
            (at, out.len())
        };
        let out = &mut self.sealed;
        out.clear();
        let (mut at, mut body) = open(out, wire);
        let mut prev = 0;
        for entry in &self.entries {
            let mark = out.len();
            put_entry(out, entry, prev, nb, &self.ucasts);
            if out.len() - at - FRAME_PREFIX_LEN > cap && mark > body {
                out.truncate(mark);
                close_frame(out, at);
                (at, body) = open(out, wire);
                put_entry(out, entry, 0, nb, &self.ucasts);
            }
            prev = match *entry {
                Entry::Observe { id, .. } => id,
                Entry::Round { id, ucast, .. } => {
                    if let Some((a, b)) = ucast {
                        wire.count(ChannelKind::Down, (b - a) as u64);
                    }
                    id
                }
            };
        }
        out[at + FRAME_PREFIX_LEN] = T_WAVE;
        close_frame(out, at);
        self.bcasts.clear();
        self.bcast_lens.clear();
        self.entries.clear();
        self.ucasts.clear();
    }
}

/// Append one node entry: the id delta from `prev` with a flag in its low
/// bit (cached observe, or a unicast follows), then the value, or the
/// node's start offset into the frame's `nb` broadcasts and its unicast.
fn put_entry(out: &mut Vec<u8>, entry: &Entry, prev: u32, nb: u32, ucasts: &[u8]) {
    match *entry {
        Entry::Observe { id, value } => {
            put_varint(
                out,
                (u64::from(id - prev) << 1) | u64::from(value.is_none()),
            );
            if let Some(v) = value {
                put_varint(out, v);
            }
        }
        Entry::Round { id, suffix, ucast } => {
            put_varint(
                out,
                (u64::from(id - prev) << 1) | u64::from(ucast.is_some()),
            );
            put_varint(out, u64::from(nb - suffix));
            if let Some((a, b)) = ucast {
                out.extend_from_slice(&ucasts[a as usize..b as usize]);
            }
        }
    }
}

/// One decoded node entry of a work frame.
struct WorkEntry<D> {
    id: u32,
    /// Node-phase 0: the new value, or `None` for the cached one.
    value: Option<Value>,
    /// Node-phase `m ≥ 1`: where the node's broadcasts start.
    from: usize,
    ucast: Option<D>,
}

/// Decode a work frame after its tag — the inverse of [`Wave::seal`] — into
/// its key, its broadcasts and its node entries, whose ids must fall in
/// `ids`. The frame is decoded in full before any node runs, so a torn or
/// garbage payload can never half-apply.
fn decode_wave<D: FrameCodec>(
    mut rd: &[u8],
    ids: Range<u32>,
    bcasts: &mut Vec<D>,
    entries: &mut Vec<WorkEntry<D>>,
) -> Result<FrameKey, WireError> {
    let key = need_key(&mut rd)?;
    let m = key.2;
    let nb = need_varint(&mut rd, "bcast count")?;
    if nb > rd.len() as u64 {
        return Err(malformed("bcast count exceeds payload")); // each ≥ 1 byte
    }
    bcasts.clear();
    for _ in 0..nb {
        bcasts.push(D::decode_frame(&mut rd)?);
    }
    entries.clear();
    let mut prev = 0u32;
    while !rd.is_empty() {
        let head = need_varint(&mut rd, "entry head")?;
        let id = u32::try_from(head >> 1)
            .ok()
            .and_then(|delta| prev.checked_add(delta))
            .filter(|id| ids.contains(id))
            .ok_or_else(|| malformed("entry for a node outside the shard"))?;
        prev = id;
        let flag = head & 1 == 1;
        entries.push(if m == 0 {
            WorkEntry {
                id,
                value: if flag {
                    None
                } else {
                    Some(need_varint(&mut rd, "value")?)
                },
                from: 0,
                ucast: None,
            }
        } else {
            let from = need_varint(&mut rd, "bcast offset")?;
            if from > nb {
                return Err(malformed("bcast offset exceeds bcast count"));
            }
            WorkEntry {
                id,
                value: None,
                from: from as usize,
                ucast: if flag {
                    Some(D::decode_frame(&mut rd)?)
                } else {
                    None
                },
            }
        });
    }
    Ok(key)
}

/// Open a reply frame keyed `key` at the end of `out`. Returns the prefix
/// offset.
fn open_reply(out: &mut Vec<u8>, key: FrameKey) -> usize {
    let at = open_frame(out, T_REPLY);
    put_key(out, key);
    at
}

/// Encode a reply entry's body, everything after its id delta: the flags,
/// then `up` and `wake_at` if present.
fn put_reply_body<U: FrameCodec>(out: &mut Vec<u8>, a: &RoundAction<U>) {
    let mut flags = 0u8;
    if a.up.is_some() {
        flags |= F_UP;
    }
    if a.engaged {
        flags |= F_ENGAGED;
    }
    if a.wake_at.is_some() {
        flags |= F_WAKE;
    }
    out.push(flags);
    if let Some(u) = &a.up {
        u.encode_frame(out);
    }
    if let Some(w) = a.wake_at {
        put_varint(out, w as u64);
    }
}

/// Decode one reply frame into `into` (cleared first) and return its key.
/// Node ids must fall in `ids`.
fn decode_replies<U: FrameCodec>(
    payload: &[u8],
    ids: Range<u32>,
    into: &mut Vec<Reply<U>>,
) -> Result<FrameKey, WireError> {
    into.clear();
    let mut rd: &[u8] = payload;
    match take_u8(&mut rd) {
        Some(T_REPLY) => {}
        Some(tag) => return Err(WireError::UnknownTag { tag }),
        None => return Err(malformed("empty frame")),
    }
    let key = need_key(&mut rd)?;
    let mut prev = 0u32;
    while !rd.is_empty() {
        let id = prev
            .checked_add(need_u32(&mut rd, "reply node")?)
            .filter(|id| ids.contains(id))
            .ok_or_else(|| malformed("reply for a node outside the shard"))?;
        prev = id;
        let flags = take_u8(&mut rd).ok_or_else(|| malformed("missing reply flags"))?;
        if flags & !(F_UP | F_ENGAGED | F_WAKE) != 0 {
            return Err(malformed(format!("unknown reply flags {flags:#b}")));
        }
        let (up, up_bytes) = if flags & F_UP != 0 {
            let before = rd.len();
            let u = U::decode_frame(&mut rd)?;
            (Some(u), (before - rd.len()) as u64)
        } else {
            (None, 0)
        };
        let wake_at = if flags & F_WAKE != 0 {
            Some(need_u32(&mut rd, "reply wake phase")?)
        } else {
            None
        };
        into.push(Reply {
            id: NodeId(id),
            up,
            engaged: flags & F_ENGAGED != 0,
            wake_at,
            up_bytes,
        });
    }
    Ok(key)
}

fn decode_hello(payload: &[u8]) -> Result<u32, WireError> {
    let mut rd: &[u8] = payload;
    match take_u8(&mut rd) {
        Some(T_HELLO) => {}
        Some(tag) => return Err(WireError::UnknownTag { tag }),
        None => return Err(malformed("empty hello")),
    }
    match take_u8(&mut rd) {
        Some(WIRE_VERSION) => {}
        Some(v) => return Err(malformed(format!("wire version {v} != {WIRE_VERSION}"))),
        None => return Err(malformed("truncated hello")),
    }
    let shard = need_u32(&mut rd, "hello shard id")?;
    if !rd.is_empty() {
        return Err(malformed("trailing bytes after hello"));
    }
    Ok(shard)
}

/// Bounded connect loop for the shard side: the driver's listener is
/// always bound, so a healthy run connects on the first try; the retry
/// loop only rides out the window where a reconnecting shard races the
/// driver's accept.
fn connect_with_retries(addr: SocketAddr) -> Option<TcpStream> {
    let deadline = Instant::now() + ACCEPT_TIMEOUT;
    loop {
        match TcpStream::connect(addr) {
            Ok(s) => return Some(s),
            // Refused means the driver's listener is gone — shutdown, not
            // a transient race. Give up immediately.
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => return None,
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
            Err(_) => return None,
        }
    }
}

/// Why one shard connection stopped serving.
enum ServeExit {
    /// Orderly `Halt` from the driver — the shard thread is done.
    Halt,
    /// The connection died (EOF, torn frame, write failure, malformed
    /// frame). The shard reconnects, within [`SHARD_RECONNECT_BUDGET`].
    Lost,
}

/// Node-range state a shard keeps across reconnects: one [`NodeHost`] per
/// node, each with its key cursor, its last answer and its step
/// checkpoint.
struct ShardState<NB: NodeBehavior> {
    hosts: Vec<NodeHost<NB>>,
    first: u32,
    shard: u32,
}

impl<NB> ShardState<NB>
where
    NB: NodeBehavior,
    NB::Up: FrameCodec,
    NB::Down: FrameCodec,
{
    /// Serve one connection until halt or loss. Work frames arrive on
    /// `read_half`; the hello handshake and every reply are buffered on
    /// `write_half`, a wave's replies only once its last frame is read, and
    /// leave when the shard is about to wait (see [`next_frame`]). Node
    /// state lives in `self` and survives the connection.
    fn serve(&mut self, read_half: impl Read, write_half: impl Write) -> ServeExit {
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(write_half);
        let mut buf = vec![T_HELLO, WIRE_VERSION];
        put_varint(&mut buf, self.shard as u64);
        if write_frame(&mut writer, &buf).is_err() {
            return ServeExit::Lost;
        }
        let ids = self.first..self.first + self.hosts.len() as u32;
        let mut payload = Vec::new();
        let mut bcasts: Vec<NB::Down> = Vec::new();
        let mut entries: Vec<WorkEntry<NB::Down>> = Vec::new();
        // Reply frames of the wave being served, held until its last frame.
        let mut held = Vec::new();
        loop {
            if next_frame(&mut reader, &mut writer, &mut payload).is_err() {
                return ServeExit::Lost;
            }
            let mut rd: &[u8] = &payload;
            let Some(tag) = take_u8(&mut rd) else {
                return ServeExit::Lost;
            };
            match tag {
                T_HALT => return ServeExit::Halt,
                T_STALL => {
                    let Ok(ms) = need_u32(&mut rd, "stall") else {
                        return ServeExit::Lost;
                    };
                    // About to wait: the replies so far leave first.
                    if writer.flush().is_err() {
                        return ServeExit::Lost;
                    }
                    std::thread::sleep(Duration::from_millis(u64::from(ms)));
                }
                T_ABORT => {
                    let (Ok(t), Ok(run)) = (
                        need_varint(&mut rd, "abort t"),
                        need_u32(&mut rd, "abort run"),
                    ) else {
                        return ServeExit::Lost;
                    };
                    for h in &mut self.hosts {
                        h.abort(t, run);
                    }
                    // One ack per shard: a reply frame at ABORT_M, no entries.
                    buf.clear();
                    let at = open_reply(&mut buf, (t, run, ABORT_M));
                    close_frame(&mut buf, at);
                    if writer.write_all(&buf).is_err() {
                        return ServeExit::Lost;
                    }
                }
                T_WAVE | T_WAVE_MORE => {
                    let Ok(key) = decode_wave(rd, ids.clone(), &mut bcasts, &mut entries) else {
                        return ServeExit::Lost;
                    };
                    self.answer(key, &bcasts, &entries, &mut held, &mut buf);
                    if tag == T_WAVE {
                        if writer.write_all(&held).is_err() {
                            return ServeExit::Lost;
                        }
                        held.clear();
                    }
                }
                _ => return ServeExit::Lost,
            }
        }
    }

    /// Run the decoded entries of one work frame in order and append their
    /// replies to `held` as reply frames keyed like it, each within
    /// [`MAX_FRAME_LEN`]. A stale entry gets no reply, a repeated one the
    /// cached answer, and a frame left without entries is dropped.
    fn answer(
        &mut self,
        key: FrameKey,
        bcasts: &[NB::Down],
        entries: &[WorkEntry<NB::Down>],
        held: &mut Vec<u8>,
        body: &mut Vec<u8>,
    ) {
        let mut at = open_reply(held, key);
        let mut head_end = held.len();
        let mut prev = 0;
        for w in entries {
            let work = if key.2 == 0 {
                Work::Observe(w.value)
            } else {
                Work::Round {
                    bcasts: &bcasts[w.from..],
                    ucast: w.ucast.as_ref(),
                }
            };
            let host = &mut self.hosts[(w.id - self.first) as usize];
            let Some(a) = host.answer(key, work) else {
                continue;
            };
            body.clear();
            put_reply_body(body, a);
            let len = held.len() - at - FRAME_PREFIX_LEN;
            if len + MAX_U32_VARINT + body.len() > MAX_FRAME_LEN && held.len() > head_end {
                close_frame(held, at);
                at = open_reply(held, key);
                head_end = held.len();
                prev = 0;
            }
            put_varint(held, u64::from(w.id - prev));
            held.extend_from_slice(body);
            prev = w.id;
        }
        if held.len() == head_end {
            held.truncate(at);
        } else {
            close_frame(held, at);
        }
    }
}

/// Shard thread: own a contiguous node range behind one TCP connection.
/// The shard survives a severed connection: it re-connects to the
/// driver's listener, re-sends its `Hello`, and keeps serving with its
/// node state intact, bounded by [`SHARD_RECONNECT_BUDGET`]. It exits on
/// `Halt`, once the listener is gone, or when the budget runs out.
fn shard_main<NB>(nodes: Vec<NB>, first: u32, shard: u32, addr: SocketAddr) -> Vec<NB>
where
    NB: NodeBehavior,
    NB::Up: FrameCodec,
    NB::Down: FrameCodec,
{
    let mut st = ShardState {
        hosts: nodes.into_iter().map(NodeHost::new).collect(),
        first,
        shard,
    };
    let mut budget = SHARD_RECONNECT_BUDGET;
    while let Some(stream) = connect_with_retries(addr) {
        // No delay: a flushed burst leaves at once (module docs).
        stream.set_nodelay(true).ok();
        let exit = match stream.try_clone() {
            Ok(read_half) => st.serve(read_half, stream),
            Err(_) => ServeExit::Lost,
        };
        match exit {
            ServeExit::Lost if budget > 0 => budget -= 1,
            _ => break,
        }
    }
    st.hosts.into_iter().map(|h| h.node).collect()
}

/// Sleep schedule of the driver's non-blocking accept loops. Shards connect
/// within tens of µs of being spawned, so the first poll comes after
/// [`ACCEPT_POLL_MIN`]; each further one waits twice as long, up to
/// [`ACCEPT_POLL_MAX`].
struct Backoff(Duration);

impl Backoff {
    fn new() -> Self {
        Backoff(ACCEPT_POLL_MIN)
    }

    fn sleep(&mut self) {
        std::thread::sleep(self.0);
        self.0 = (self.0 * 2).min(ACCEPT_POLL_MAX);
    }
}

/// Wrap a transport-layer failure into the typed runtime error.
fn transport(what: impl std::fmt::Display) -> RuntimeError {
    RuntimeError::Transport {
        what: what.to_string(),
    }
}

/// Whether an I/O error is a socket timeout (the tick passed).
fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Reply bytes read from one shard but not yet taken. Frames are assembled
/// here, so a read that times out mid-frame loses no bytes.
struct Inbox {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Inbox {
    fn new() -> Self {
        Inbox {
            buf: vec![0; RECV_BUF_LEN],
            start: 0,
            end: 0,
        }
    }

    fn clear(&mut self) {
        (self.start, self.end) = (0, 0);
    }

    /// Payload range of the next frame, once it has fully arrived. A
    /// declared length above [`MAX_FRAME_LEN`] is refused.
    fn next_frame(&self) -> Result<Option<Range<usize>>, WireError> {
        let held = &self.buf[self.start..self.end];
        let Some(prefix) = held.first_chunk::<FRAME_PREFIX_LEN>() else {
            return Ok(None);
        };
        let declared = u32::from_le_bytes(*prefix) as usize;
        if declared > MAX_FRAME_LEN {
            return Err(WireError::Oversized {
                declared,
                max: MAX_FRAME_LEN,
            });
        }
        let from = self.start + FRAME_PREFIX_LEN;
        Ok((held.len() - FRAME_PREFIX_LEN >= declared).then_some(from..from + declared))
    }

    /// Drop everything before `to`, the end of a taken frame.
    fn consume(&mut self, to: usize) {
        self.start = to;
        if self.start == self.end {
            self.clear();
        }
    }

    /// One read from `r`. Room is made first: held bytes move to the front
    /// when the next frame would not fit behind them, and the buffer grows
    /// only for a frame larger than it, or when it is full of whole frames.
    fn fill(&mut self, mut r: impl Read) -> io::Result<usize> {
        let need = self.buf[self.start..self.end]
            .first_chunk::<FRAME_PREFIX_LEN>()
            .map_or(FRAME_PREFIX_LEN, |p| {
                FRAME_PREFIX_LEN + (u32::from_le_bytes(*p) as usize).min(MAX_FRAME_LEN)
            });
        if self.end == self.buf.len() || self.start + need > self.buf.len() {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
            let want = if self.end == self.buf.len() {
                2 * self.buf.len()
            } else {
                need
            };
            if want > self.buf.len() {
                self.buf.resize(want, 0);
            }
        }
        let k = r.read(&mut self.buf[self.end..])?;
        self.end += k;
        Ok(k)
    }
}

/// The driver's side of one shard connection.
struct ShardConn {
    /// The connection (`None` while severed, awaiting reconnect). Its read
    /// and write timeouts are one tick.
    stream: Option<TcpStream>,
    /// Framed bytes queued for the next flush.
    out: Vec<u8>,
    inbox: Inbox,
}

impl ShardConn {
    fn new(stream: TcpStream) -> Self {
        ShardConn {
            stream: Some(stream),
            out: Vec::new(),
            inbox: Inbox::new(),
        }
    }

    /// Write the queued bytes (see [`write_draining`]). The queue is empty
    /// afterwards, also on an error.
    fn flush(&mut self) -> io::Result<()> {
        let res = match &self.stream {
            _ if self.out.is_empty() => Ok(()),
            None => Err(io::ErrorKind::NotConnected.into()),
            Some(stream) => write_draining(stream, &self.out, &mut self.inbox),
        };
        self.out.clear();
        res
    }
}

/// Write all of `out` to a shard. A write that makes no progress for a tick
/// means the shard is not reading: it may be blocked writing replies to the
/// driver, so its socket is read into `inbox` before the next try (rule 2
/// of the module docs).
fn write_draining(stream: &TcpStream, out: &[u8], inbox: &mut Inbox) -> io::Result<()> {
    let mut w = stream;
    let mut at = 0;
    let mut stalls = 0;
    while at < out.len() {
        match w.write(&out[at..]) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(k) => (at, stalls) = (at + k, 0),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && stalls < MAX_IDLE_TICKS => {
                stalls += 1;
                match inbox.fill(stream) {
                    Ok(0) => return Err(io::ErrorKind::UnexpectedEof.into()),
                    Ok(_) => {}
                    Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {}
                    Err(e) => return Err(e),
                }
            }
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// The driver side of the shard connections, the wire ledger, and the
/// optional byte captures.
struct Conns {
    shards: Vec<ShardConn>,
    wire: WireMetrics,
    taps: Option<WireTaps>,
}

impl Conns {
    /// Queue back-to-back framed bytes for shard `s` (physical charge +
    /// tap). Nothing is written before [`Conns::flush`].
    fn queue(&mut self, s: usize, framed: &[u8]) {
        self.wire.frames_total += payloads(framed).count() as u64;
        self.wire.bytes_total += framed.len() as u64;
        if let Some(taps) = &self.taps {
            tap_raw(&taps.to_shard[s], framed);
        }
        self.shards[s].out.extend_from_slice(framed);
    }

    /// Queue duplicate or re-sent frames, charging each payload to
    /// [`ChannelKind::Retransmit`] so the model split stays clean.
    fn queue_retransmit(&mut self, s: usize, framed: &[u8]) {
        for p in payloads(framed) {
            self.wire.count(ChannelKind::Retransmit, p.len() as u64);
        }
        self.queue(s, framed);
    }

    fn flush(&mut self, s: usize) -> io::Result<()> {
        self.shards[s].flush()
    }

    /// Write a deliberately torn frame: the first frame's full-length
    /// prefix followed by only half its payload. Write errors are ignored —
    /// the connection is about to be severed anyway. The bytes that did
    /// leave are charged as retransmit overhead.
    fn write_torn(&mut self, s: usize, sealed: &[u8]) {
        let keep = payloads(sealed).next().map_or(0, |p| p.len() / 2);
        let torn = &sealed[..FRAME_PREFIX_LEN + keep];
        self.wire.frames_total += 1;
        self.wire.bytes_total += torn.len() as u64;
        self.wire.count(ChannelKind::Retransmit, keep as u64);
        if let Some(taps) = &self.taps {
            tap_raw(&taps.to_shard[s], torn);
        }
        self.shards[s].out.extend_from_slice(torn);
        let _ = self.flush(s);
    }

    /// Tear down shard `s`'s connection from the driver side so the shard
    /// sees EOF or a reset and reconnects. Queued and received bytes of the
    /// old connection are dropped.
    fn sever(&mut self, s: usize) {
        let c = &mut self.shards[s];
        if let Some(stream) = c.stream.take() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        c.out.clear();
        c.inbox.clear();
    }
}

/// Give a shard socket the driver's tick as its read and write timeout.
fn set_tick(stream: &TcpStream, tick: Duration) -> io::Result<()> {
    stream.set_read_timeout(Some(tick))?;
    stream.set_write_timeout(Some(tick))
}

/// Loopback-TCP connections to node shards, plus the shard threads behind
/// them. The driver thread does all of the reading and writing.
pub struct SocketTransport<NB: NodeBehavior> {
    conns: Conns,
    /// The staged wave of each shard.
    waves: Vec<Wave>,
    shard_handles: Vec<JoinHandle<Vec<NB>>>,
    /// Kept (nonblocking) to accept reconnects; dropped on halt.
    listener: Option<TcpListener>,
    /// The listener's loopback address (reconnect storms self-connect).
    addr: SocketAddr,
    /// Node id → owning shard index.
    shard_of: Vec<u32>,
    /// `(first id, len)` per shard.
    ranges: Vec<(u32, u32)>,
    /// Read and write timeout of every shard socket.
    tick: Duration,
    /// Scratch for control frames.
    scratch: Vec<u8>,
}

impl<NB> SocketTransport<NB>
where
    NB: NodeBehavior + 'static,
    NB::Up: FrameCodec,
    NB::Down: FrameCodec,
{
    /// Bind, spawn the shards and accept their handshakes. `capture` arms
    /// per-connection byte capture (see [`SocketCluster::capture`]). The
    /// handshake runs under `ACCEPT_TIMEOUT`, so a hung accept fails fast.
    pub fn connect(
        mut nodes: Vec<NB>,
        capture: bool,
        chaos: Option<ChaosPolicy>,
    ) -> Result<Self, RuntimeError> {
        let n = nodes.len();
        let ranges = shard_ranges(n);
        let s_count = ranges.len();
        let listener = TcpListener::bind(("127.0.0.1", 0)).map_err(transport)?;
        let addr = listener.local_addr().map_err(transport)?;
        let tick = Duration::from_millis(chaos.map_or(RECV_TICK_MS, |p| p.deadline_ms.max(1)));

        let mut chunks: Vec<Vec<NB>> = Vec::with_capacity(s_count);
        for &(first, _) in ranges.iter().rev() {
            chunks.push(nodes.split_off(first as usize));
        }
        chunks.reverse();
        let mut shard_handles = Vec::with_capacity(s_count);
        for (s, chunk) in chunks.into_iter().enumerate() {
            let first = ranges[s].0;
            let handle = std::thread::Builder::new()
                .name(format!("topk-shard-{s}"))
                .spawn(move || shard_main(chunk, first, s as u32, addr))
                .expect("spawn shard thread");
            shard_handles.push(handle);
        }

        let taps = capture.then(|| WireTaps::new(s_count));
        let mut wire = WireMetrics::default();
        listener.set_nonblocking(true).map_err(transport)?;
        let deadline = Instant::now() + ACCEPT_TIMEOUT;
        let mut backoff = Backoff::new();
        let mut streams: Vec<Option<TcpStream>> = (0..s_count).map(|_| None).collect();
        let mut payload = Vec::new();
        let mut accepted = 0;
        while accepted < s_count {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nodelay(true).ok();
                    stream
                        .set_read_timeout(Some(ACCEPT_TIMEOUT))
                        .map_err(transport)?;
                    let mut r = &stream;
                    read_frame(&mut r, &mut payload)
                        .map_err(|e| transport(format_args!("socket handshake failed: {e}")))?;
                    wire.frames_total += 1;
                    wire.bytes_total += (FRAME_PREFIX_LEN + payload.len()) as u64;
                    let shard = decode_hello(&payload)
                        .map_err(|e| transport(format_args!("socket handshake rejected: {e}")))?
                        as usize;
                    if shard >= s_count || streams[shard].is_some() {
                        return Err(transport(format_args!(
                            "duplicate or out-of-range shard hello (shard {shard} of {s_count})"
                        )));
                    }
                    if let Some(taps) = &taps {
                        tap_extend(&taps.from_shard[shard], &payload);
                    }
                    set_tick(&stream, tick).map_err(transport)?;
                    streams[shard] = Some(stream);
                    accepted += 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(transport(format_args!(
                            "socket cluster accept timed out after {ACCEPT_TIMEOUT:?} \
                             ({accepted}/{s_count} shards connected)"
                        )));
                    }
                    backoff.sleep();
                }
                Err(e) => return Err(transport(format_args!("accept failed: {e}"))),
            }
        }

        let mut shards = Vec::with_capacity(s_count);
        for slot in streams {
            let Some(stream) = slot else {
                return Err(transport("shard stream missing after accept"));
            };
            shards.push(ShardConn::new(stream));
        }
        let mut shard_of = vec![0u32; n];
        for (s, &(first, len)) in ranges.iter().enumerate() {
            shard_of[first as usize..(first + len) as usize].fill(s as u32);
        }
        Ok(SocketTransport {
            conns: Conns { shards, wire, taps },
            waves: (0..s_count).map(|_| Wave::default()).collect(),
            shard_handles,
            listener: Some(listener),
            addr,
            shard_of,
            ranges,
            tick,
            scratch: Vec::new(),
        })
    }

    /// Number of shard connections.
    pub fn shards(&self) -> usize {
        self.ranges.len()
    }

    /// Handles to the per-connection byte captures (only when built with
    /// capture armed). Clone-cheap; valid across shutdown.
    pub fn capture(&self) -> Option<WireTaps> {
        self.conns.taps.clone()
    }

    fn down(&self, s: usize) -> RuntimeError {
        RuntimeError::NodeDown {
            id: NodeId(self.ranges[s].0),
        }
    }

    /// The payload range of shard `s`'s next whole reply frame. With `read`,
    /// reads the socket until one completes or a tick passes without a
    /// byte; without it, looks at the receive buffer only. EOF or a read
    /// error is the shard's [`RuntimeError::NodeDown`].
    fn reply_frame(&mut self, s: usize, read: bool) -> Result<Option<Range<usize>>, RuntimeError> {
        let c = &mut self.conns.shards[s];
        loop {
            if let Some(range) = c.inbox.next_frame().map_err(|e| undecodable(s, e))? {
                return Ok(Some(range));
            }
            if !read {
                return Ok(None);
            }
            let got = match &c.stream {
                Some(stream) => c.inbox.fill(stream),
                None => Err(io::ErrorKind::NotConnected.into()),
            };
            match got {
                Ok(k) if k > 0 => {}
                Err(e) if is_timeout(&e) => return Ok(None),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                // EOF or a read error: the shard is gone.
                _ => {
                    return Err(RuntimeError::NodeDown {
                        id: NodeId(self.ranges[s].0),
                    })
                }
            }
        }
    }

    /// Take shard `s`'s reply frame at `range` out of its receive buffer:
    /// charge it to the wire ledger and the tap in one place, and decode its
    /// entries into `into`.
    fn take_reply(
        &mut self,
        s: usize,
        range: Range<usize>,
        into: &mut Vec<Reply<NB::Up>>,
    ) -> Result<ReplyHead, RuntimeError> {
        let c = &mut self.conns.shards[s];
        let payload = &c.inbox.buf[range.clone()];
        self.conns.wire.frames_total += 1;
        self.conns.wire.bytes_total += (FRAME_PREFIX_LEN + payload.len()) as u64;
        if let Some(taps) = &self.conns.taps {
            tap_extend(&taps.from_shard[s], payload);
        }
        let (first, len) = self.ranges[s];
        let decoded = decode_replies(payload, first..first + len, into);
        c.inbox.consume(range.end);
        decoded
            .map(|key| ReplyHead { e: s, key })
            .map_err(|e| undecodable(s, e))
    }

    /// Sever shard `s`'s connection, optionally inject a reconnect storm
    /// (junk connections racing the shard's real reconnect), accept the
    /// shard's re-handshake, and re-deliver the sealed wave. Each node
    /// dedups it by `(t, run, m)` if the original actually made it through.
    fn sever_and_redeliver(
        &mut self,
        s: usize,
        (t, run, m): FrameKey,
        policy: &ChaosPolicy,
        recovery: &mut RecoveryMetrics,
    ) -> Result<(), RuntimeError> {
        self.conns.sever(s);
        if WireChaos::new(*policy).reconnect_storm(t, run, m, self.ranges[s].0) {
            // Junk connections that never send a Hello; the accept loop
            // must skip them and still find the real shard.
            recovery.injected_storms += 1;
            for _ in 0..2 {
                if let Ok(junk) = TcpStream::connect(self.addr) {
                    let _ = junk.shutdown(Shutdown::Both);
                }
            }
        }
        self.accept_reconnect(s)?;
        recovery.reconnects += 1;
        self.conns.queue_retransmit(s, &self.waves[s].sealed);
        self.conns.flush(s).map_err(|_| self.down(s))
    }

    /// Accept shard `s`'s reconnect on the kept listener: validate the
    /// re-sent `Hello` (version + shard id must match the original) and
    /// swap the new connection in. Junk connections (storms, stale
    /// handshakes) are discarded.
    fn accept_reconnect(&mut self, s: usize) -> Result<(), RuntimeError> {
        let Some(listener) = self.listener.as_ref() else {
            return Err(transport("reconnect after halt"));
        };
        let deadline = Instant::now() + ACCEPT_TIMEOUT;
        let mut backoff = Backoff::new();
        let mut payload = Vec::new();
        loop {
            match listener.accept() {
                Ok((stream, _)) => {
                    stream.set_nodelay(true).ok();
                    let mut r = &stream;
                    if stream.set_read_timeout(Some(ACCEPT_TIMEOUT)).is_err()
                        || read_frame(&mut r, &mut payload).is_err()
                    {
                        continue; // junk/storm connection: no Hello
                    }
                    self.conns.wire.frames_total += 1;
                    self.conns.wire.bytes_total += (FRAME_PREFIX_LEN + payload.len()) as u64;
                    // Wrong shard id or version skew: not our shard's
                    // re-handshake — drop it.
                    if decode_hello(&payload).ok() != Some(s as u32)
                        || set_tick(&stream, self.tick).is_err()
                    {
                        continue;
                    }
                    if let Some(taps) = &self.conns.taps {
                        tap_extend(&taps.from_shard[s], &payload);
                    }
                    let c = &mut self.conns.shards[s];
                    c.stream = Some(stream);
                    c.inbox.clear();
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(if self.shard_handles[s].is_finished() {
                            self.down(s)
                        } else {
                            transport(format_args!(
                                "shard {s} did not reconnect within {ACCEPT_TIMEOUT:?}"
                            ))
                        });
                    }
                    backoff.sleep();
                }
                Err(e) => return Err(transport(format_args!("reconnect accept failed: {e}"))),
            }
        }
    }
}

/// A reply frame shard `s` sent that the driver cannot decode.
fn undecodable(s: usize, e: WireError) -> RuntimeError {
    transport(format_args!(
        "shard {s} sent an undecodable reply frame: {e}"
    ))
}

impl<NB: NodeBehavior> SocketTransport<NB> {
    /// Halt every shard and join the shard threads, returning their
    /// behaviors in id order (panicked shards are skipped).
    fn halt_and_join(&mut self) -> Vec<NB> {
        let halt = [1, 0, 0, 0, T_HALT];
        for s in 0..self.conns.shards.len() {
            self.conns.queue(s, &halt);
            let _ = self.conns.flush(s);
        }
        // Closing the connections also frees a shard still blocked writing
        // replies that nobody will read.
        self.conns.shards.clear();
        // Dropping the listener unblocks any shard still trying to
        // reconnect (its connect loop fails fast).
        self.listener = None;
        let mut nodes = Vec::new();
        for h in self.shard_handles.drain(..) {
            if let Ok(mut chunk) = h.join() {
                nodes.append(&mut chunk);
            }
        }
        nodes
    }

    /// Halt the shards and return their behaviors plus the final wire
    /// ledger, which includes the `Halt` frames of the shutdown itself — so
    /// it equals the total bytes on the captured taps exactly.
    pub fn shutdown_with_metrics(mut self) -> (Vec<NB>, WireMetrics) {
        let nodes = self.halt_and_join();
        (nodes, self.conns.wire)
    }
}

impl<NB> Transport<NB> for SocketTransport<NB>
where
    NB: NodeBehavior + 'static,
    NB::Up: FrameCodec,
    NB::Down: FrameCodec,
{
    type Frame = Vec<u8>;

    fn spawn(nodes: Vec<NB>, chaos: Option<ChaosPolicy>) -> Result<Self, RuntimeError> {
        Self::connect(nodes, false, chaos)
    }

    fn endpoints(&self) -> usize {
        self.ranges.len()
    }

    fn endpoint_of(&self, i: u32) -> usize {
        self.shard_of[i as usize] as usize
    }

    fn first_node(&self, e: usize) -> NodeId {
        NodeId(self.ranges[e].0)
    }

    fn is_dead(&self, e: usize) -> bool {
        self.shard_handles[e].is_finished()
    }

    fn stage(&mut self, i: u32, work: Work<'_, NB::Down>) {
        self.waves[self.shard_of[i as usize] as usize].stage(i, work);
    }

    fn seal(&mut self, e: usize, key: FrameKey) {
        self.waves[e].seal(key, MAX_FRAME_LEN, &mut self.conns.wire);
    }

    fn keep(&self, e: usize) -> Vec<u8> {
        self.waves[e].sealed.clone()
    }

    /// A stall goes ahead of the wave as a `T_STALL` frame.
    fn send(&mut self, e: usize, stall_ms: u32) -> Result<(), RuntimeError> {
        if stall_ms > 0 {
            control_frame(&mut self.scratch, T_STALL, &[u64::from(stall_ms)]);
            self.conns.queue_retransmit(e, &self.scratch);
        }
        self.conns.queue(e, &self.waves[e].sealed);
        Ok(())
    }

    fn resend(&mut self, e: usize, frame: &Vec<u8>) -> Result<(), RuntimeError> {
        self.conns.queue_retransmit(e, frame);
        Ok(())
    }

    fn flush(&mut self) -> Result<(), RuntimeError> {
        for s in 0..self.conns.shards.len() {
            self.conns.flush(s).map_err(|_| self.down(s))?;
        }
        Ok(())
    }

    /// Takes a frame already in a receive buffer first; otherwise reads the
    /// owing shards in turn, each until a frame completes or a tick passes
    /// without a byte.
    fn recv(
        &mut self,
        owed: &[u32],
        timeout: Duration,
        into: &mut Vec<Reply<NB::Up>>,
    ) -> Result<Option<ReplyHead>, RuntimeError> {
        if timeout != self.tick {
            for c in &self.conns.shards {
                if let Some(stream) = &c.stream {
                    set_tick(stream, timeout).map_err(transport)?;
                }
            }
            self.tick = timeout;
        }
        for read in [false, true] {
            for s in (0..owed.len()).filter(|&s| owed[s] > 0) {
                if let Some(range) = self.reply_frame(s, read)? {
                    return self.take_reply(s, range, into).map(Some);
                }
            }
        }
        Ok(None)
    }

    fn charge_reply(&mut self, kind: ChannelKind, up_bytes: u64) {
        self.conns.wire.count(kind, up_bytes);
    }

    fn send_abort(&mut self, e: usize, t: u64, run: u32) -> Result<(), RuntimeError> {
        control_frame(&mut self.scratch, T_ABORT, &[t, u64::from(run)]);
        self.conns.queue_retransmit(e, &self.scratch);
        Ok(())
    }

    /// Before the first write: a connection reset (the wave dies with the
    /// connection) or a torn frame (half of its first frame hits the wire,
    /// then the cut). After it: a half-open connection (the wave made it
    /// out, the reply path dies). Each severs, reconnects and re-delivers.
    fn wire_fault(
        &mut self,
        e: usize,
        key: FrameKey,
        sent: bool,
        policy: &ChaosPolicy,
        recovery: &mut RecoveryMetrics,
    ) -> Result<bool, RuntimeError> {
        let (t, run, m) = key;
        let w = WireChaos::new(*policy);
        let node = self.ranges[e].0;
        if sent {
            if !w.half_open(t, run, m, node) {
                return Ok(false);
            }
            recovery.injected_half_opens += 1;
            self.conns.flush(e).map_err(|_| self.down(e))?;
        } else if w.conn_reset(t, run, m, node) {
            recovery.injected_conn_resets += 1;
        } else if w.torn_frame(t, run, m, node) {
            recovery.injected_torn_frames += 1;
            self.conns.write_torn(e, &self.waves[e].sealed);
        } else {
            return Ok(false);
        }
        self.sever_and_redeliver(e, key, policy, recovery)?;
        Ok(true)
    }

    fn wire(&self) -> Option<&WireMetrics> {
        Some(&self.conns.wire)
    }

    fn shutdown(self) -> Vec<NB> {
        self.shutdown_with_metrics().0
    }
}

impl<NB: NodeBehavior> Drop for SocketTransport<NB> {
    fn drop(&mut self) {
        self.halt_and_join();
    }
}

/// Socket-only surface of the driver: the wire ledger, captures and shard
/// layout.
impl<NB> SocketCluster<NB>
where
    NB: NodeBehavior + 'static,
    NB::Up: FrameCodec,
    NB::Down: FrameCodec,
{
    /// [`Cluster::spawn`] with per-connection byte capture armed, for the
    /// golden-frame snapshot test (see [`SocketCluster::capture`]).
    pub fn spawn_captured(nodes: Vec<NB>) -> Self {
        Self::launch(nodes, None, |nodes, chaos| {
            SocketTransport::connect(nodes, true, chaos)
        })
    }

    /// Number of shard connections.
    pub fn shards(&self) -> usize {
        self.transport().shards()
    }

    /// The physical wire ledger: frames and bytes actually written to the
    /// sockets, per model channel plus totals.
    pub fn wire(&self) -> &WireMetrics {
        &self.transport().conns.wire
    }

    /// Handles to the per-connection byte captures (only on a cluster built
    /// with [`SocketCluster::spawn_captured`]).
    pub fn capture(&self) -> Option<WireTaps> {
        self.transport().capture()
    }

    /// [`Cluster::shutdown`], also returning the final wire ledger (see
    /// [`SocketTransport::shutdown_with_metrics`]).
    pub fn shutdown_with_metrics(self) -> (Vec<NB>, WireMetrics) {
        self.into_transport().shutdown_with_metrics()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::behavior::{ObserveAction, RoundAction};
    use crate::wire::WireSize;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn frame_roundtrip() {
        let mut wire = Vec::new();
        write_frame(&mut wire, b"hello").unwrap();
        write_frame(&mut wire, b"").unwrap();
        write_frame(&mut wire, &[0xff; 300]).unwrap();
        let mut r: &[u8] = &wire;
        let mut payload = Vec::new();
        read_frame(&mut r, &mut payload).unwrap();
        assert_eq!(payload, b"hello");
        read_frame(&mut r, &mut payload).unwrap();
        assert!(payload.is_empty());
        read_frame(&mut r, &mut payload).unwrap();
        assert_eq!(payload, vec![0xff; 300]);
        let e = read_frame(&mut r, &mut payload).unwrap_err();
        assert!(e.is_clean_eof(), "end of stream is a clean EOF: {e}");
    }

    #[test]
    fn oversized_declared_length_rejected_without_allocating() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let mut r: &[u8] = &wire;
        let mut payload = Vec::new();
        assert_eq!(
            read_frame(&mut r, &mut payload),
            Err(WireError::Oversized {
                declared: u32::MAX as usize,
                max: MAX_FRAME_LEN
            })
        );
        assert!(payload.capacity() < MAX_FRAME_LEN, "no speculative alloc");
    }

    #[test]
    fn oversized_payload_rejected_before_writing() {
        let big = vec![0u8; MAX_FRAME_LEN + 1];
        let mut wire = Vec::new();
        assert_eq!(
            write_frame(&mut wire, &big),
            Err(WireError::Oversized {
                declared: MAX_FRAME_LEN + 1,
                max: MAX_FRAME_LEN
            })
        );
        assert!(wire.is_empty(), "no byte of a refused frame is written");
        // Exactly at the cap: written, and read back by the other side.
        write_frame(&mut wire, &big[1..]).unwrap();
        let mut r: &[u8] = &wire;
        let mut payload = Vec::new();
        read_frame(&mut r, &mut payload).unwrap();
        assert_eq!(payload.len(), MAX_FRAME_LEN);
    }

    /// Model message of [`Echo`]: one varint.
    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Msg(u64);

    impl WireSize for Msg {
        fn wire_bits(&self) -> u32 {
            64
        }
    }

    impl FrameCodec for Msg {
        fn encode_frame(&self, buf: &mut Vec<u8>) {
            put_varint(buf, self.0);
        }

        fn decode_frame(buf: &mut &[u8]) -> Result<Self, WireError> {
            get_varint(buf)
                .map(Msg)
                .ok_or_else(|| malformed("truncated msg"))
        }
    }

    /// Reports every observation; checkpointable, so an abort can roll it
    /// back.
    #[derive(Clone)]
    struct Echo(NodeId);

    impl NodeBehavior for Echo {
        type Up = Msg;
        type Down = Msg;

        fn id(&self) -> NodeId {
            self.0
        }

        fn observe(&mut self, _t: u64, value: Value) -> ObserveAction<Msg> {
            ObserveAction {
                up: Some(Msg(value)),
                engaged: false,
                wake_at: None,
            }
        }

        fn micro_round(&mut self, _: u64, _: u32, _: &[Msg], _: Option<&Msg>) -> RoundAction<Msg> {
            RoundAction::idle()
        }

        fn checkpoint(&self, slot: &mut Option<Self>) {
            *slot = Some(self.clone());
        }

        fn rollback(&mut self, at: &Self) {
            *self = at.clone();
        }
    }

    /// A writer that keeps the bytes of every `write` call apart.
    #[derive(Default)]
    struct WriteLog(Vec<Vec<u8>>);

    impl Write for WriteLog {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    /// The framed reply a shard owes to one node-phase-0 wave in which
    /// nodes `first..` report `values` back.
    fn owed_reply(first: u64, values: &[u64], key: FrameKey) -> Vec<u8> {
        let mut out = Vec::new();
        let at = open_reply(&mut out, key);
        for (i, &v) in values.iter().enumerate() {
            put_varint(&mut out, if i == 0 { first } else { 1 });
            let a = RoundAction {
                up: Some(Msg(v)),
                engaged: false,
                wake_at: None,
            };
            put_reply_body(&mut out, &a);
        }
        close_frame(&mut out, at);
        out
    }

    /// Seal one node-phase-0 wave of `values` for nodes `0..` under `key`,
    /// its payloads kept within `cap`.
    fn sealed_wave(values: &[u64], key: FrameKey, cap: usize) -> Vec<u8> {
        let mut w = Wave::default();
        for (i, &v) in values.iter().enumerate() {
            w.stage::<Msg>(i as u32, Work::Observe(Some(v)));
        }
        w.seal(key, cap, &mut WireMetrics::default());
        w.sealed
    }

    fn control(tag: u8, fields: &[u64]) -> Vec<u8> {
        let mut out = Vec::new();
        control_frame(&mut out, tag, fields);
        out
    }

    fn echo_shard(n: u32) -> ShardState<Echo> {
        ShardState {
            hosts: (0..n).map(|i| NodeHost::new(Echo(NodeId(i)))).collect(),
            first: 0,
            shard: 0,
        }
    }

    fn hello() -> Vec<u8> {
        let mut hello = Vec::new();
        write_frame(&mut hello, &[T_HELLO, WIRE_VERSION, 0]).unwrap();
        hello
    }

    /// Serve `input` on a 64-node shard 0 until it runs out. Returns the
    /// shard's writes after its `Hello`.
    fn serve_input(input: &[u8]) -> Vec<Vec<u8>> {
        let mut st = echo_shard(64);
        let mut log = WriteLog::default();
        assert!(matches!(st.serve(input, &mut log), ServeExit::Lost));
        assert_eq!(log.0.first(), Some(&hello()), "the hello leaves on its own");
        log.0.split_off(1)
    }

    fn burst_values() -> Vec<u64> {
        (0..64).map(|i| 1000 + 7 * i).collect()
    }

    /// Serve a burst of one-frame waves on shard 0, wave `stall_at` stalled
    /// for 1 ms. Returns the shard's writes after its `Hello`, and the
    /// framed reply it owes each wave.
    fn serve_burst(waves: u64, stall_at: Option<u64>) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let values = burst_values();
        let (mut input, mut owed) = (Vec::new(), Vec::new());
        for t in 0..waves {
            if stall_at == Some(t) {
                input.extend_from_slice(&control(T_STALL, &[1]));
            }
            input.extend_from_slice(&sealed_wave(&values, (t, 0, 0), MAX_FRAME_LEN));
            owed.push(owed_reply(0, &values, (t, 0, 0)));
        }
        (serve_input(&input), owed)
    }

    #[test]
    fn shard_answers_a_burst_with_one_write() {
        let (writes, owed) = serve_burst(4, None);
        assert_eq!(writes, [owed.concat()]);
    }

    #[test]
    fn stall_flushes_the_burst_before_sleeping() {
        let (writes, owed) = serve_burst(4, Some(2));
        assert_eq!(writes, [owed[..2].concat(), owed[2..].concat()]);
    }

    /// Every shard takes an abort: one ack at `ABORT_M`, after which the
    /// aborted attempt's frames are stale and the re-run is served.
    #[test]
    fn shard_acks_an_abort_and_keeps_serving() {
        let values = burst_values();
        let wave = |run| sealed_wave(&values, (5, run, 0), MAX_FRAME_LEN);
        let input = [wave(0), control(T_ABORT, &[5, 0]), wave(0), wave(1)].concat();
        let mut ack = Vec::new();
        let at = open_reply(&mut ack, (5, 0, ABORT_M));
        close_frame(&mut ack, at);
        let want = [
            owed_reply(0, &values, (5, 0, 0)),
            ack,
            owed_reply(0, &values, (5, 1, 0)),
        ];
        assert_eq!(serve_input(&input), [want.concat()]);
    }

    /// What a shard did, in order: bytes it read or wrote.
    #[derive(Debug, PartialEq, Eq)]
    enum Io {
        Read(usize),
        Write(Vec<u8>),
    }

    /// In-memory halves that log every read and write into one shared
    /// list; the read half hands out one frame per `read` call.
    struct LogRead(Rc<RefCell<Vec<Io>>>, Vec<Vec<u8>>);
    struct LogWrite(Rc<RefCell<Vec<Io>>>);

    impl Read for LogRead {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let Some(frame) = (!self.1.is_empty()).then(|| self.1.remove(0)) else {
                return Ok(0);
            };
            buf[..frame.len()].copy_from_slice(&frame);
            self.0.borrow_mut().push(Io::Read(frame.len()));
            Ok(frame.len())
        }
    }

    impl Write for LogWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.borrow_mut().push(Io::Write(buf.to_vec()));
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn split_wave_is_answered_with_one_write_after_its_last_frame() {
        let values: Vec<u64> = (0..30).map(|i| 5000 + i).collect();
        // A 5-byte header plus ten 3-byte observe entries per frame splits
        // the wave into three frames.
        let sealed = sealed_wave(&values, (9, 0, 0), 35);
        let frames: Vec<Vec<u8>> = payloads(&sealed)
            .map(|p| {
                let mut f = Vec::new();
                write_frame(&mut f, p).unwrap();
                f
            })
            .collect();
        assert_eq!(frames.len(), 3, "the wave is split across 3 frames");
        assert_eq!(frames.concat(), sealed);
        assert!(frames[..2]
            .iter()
            .all(|f| f[FRAME_PREFIX_LEN] == T_WAVE_MORE));
        assert_eq!(frames[2][FRAME_PREFIX_LEN], T_WAVE);
        let lens: Vec<usize> = frames.iter().map(Vec::len).collect();

        let log = Rc::new(RefCell::new(Vec::new()));
        let mut st = echo_shard(30);
        let exit = st.serve(LogRead(log.clone(), frames), LogWrite(log.clone()));
        assert!(matches!(exit, ServeExit::Lost));

        // One reply frame per work frame, written together at the end.
        let replies: Vec<u8> = (0..3)
            .flat_map(|c| owed_reply(10 * c, &values[10 * c as usize..][..10], (9, 0, 0)))
            .collect();
        assert_eq!(
            *log.borrow(),
            [
                Io::Write(hello()),
                Io::Read(lens[0]),
                Io::Read(lens[1]),
                Io::Read(lens[2]),
                Io::Write(replies),
            ],
            "no write before the third frame is read, then exactly one"
        );
    }

    #[test]
    fn wave_over_the_cap_goes_out_as_frames_within_it() {
        // 120k observes of 9-byte values: ~1.3 MB of entries on one shard.
        let values: Vec<u64> = (0..120_000).map(|i| u64::MAX - i).collect();
        let sealed = sealed_wave(&values, (3, 0, 0), MAX_FRAME_LEN);
        let frames: Vec<&[u8]> = payloads(&sealed).collect();
        assert!(frames.len() >= 2, "the wave needs more than one frame");
        assert!(frames.iter().all(|p| p.len() <= MAX_FRAME_LEN));
        let (last, more) = frames.split_last().unwrap();
        assert!(more.iter().all(|p| p[0] == T_WAVE_MORE));
        assert_eq!(last[0], T_WAVE);
        // Every frame decodes on its own, and together they carry every
        // entry once, in order.
        let mut seen = Vec::new();
        let (mut bcasts, mut entries) = (Vec::<Msg>::new(), Vec::new());
        for p in frames {
            let ids = 0..values.len() as u32;
            let key = decode_wave(&p[1..], ids, &mut bcasts, &mut entries).unwrap();
            assert_eq!(key, (3, 0, 0));
            seen.extend(entries.iter().map(|e| (e.id, e.value)));
        }
        let want: Vec<_> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (i as u32, Some(v)))
            .collect();
        assert_eq!(seen, want);
    }

    #[test]
    fn wave_entries_roundtrip_with_broadcast_offsets_and_unicasts() {
        // Node 4 is a calendar replay that needs all three broadcasts; the
        // others get the round's last one, and node 6 a unicast too.
        let log = [Msg(11), Msg(22), Msg(33)];
        let mut w = Wave::default();
        let mut wire = WireMetrics::default();
        w.stage(
            2,
            Work::Round {
                bcasts: &log[2..],
                ucast: None,
            },
        );
        w.stage(
            4,
            Work::Round {
                bcasts: &log[..],
                ucast: None,
            },
        );
        w.stage(
            6,
            Work::Round {
                bcasts: &log[2..],
                ucast: Some(&Msg(99)),
            },
        );
        w.seal((5, 1, 2), MAX_FRAME_LEN, &mut wire);
        let frame = payloads(&w.sealed).next().unwrap();
        assert_eq!(frame[0], T_WAVE);
        let (mut bcasts, mut entries) = (Vec::new(), Vec::new());
        let key = decode_wave::<Msg>(&frame[1..], 0..8, &mut bcasts, &mut entries);
        assert_eq!(key, Ok((5, 1, 2)));
        assert_eq!(
            bcasts, log,
            "the broadcasts go out once, for the longest suffix"
        );
        let got: Vec<_> = entries
            .iter()
            .map(|e| (e.id, e.from, e.ucast.clone()))
            .collect();
        assert_eq!(got, [(2, 2, None), (4, 0, None), (6, 2, Some(Msg(99)))]);
        assert_eq!(wire.broadcast_frames, 3, "one copy per broadcast per frame");
        assert_eq!((wire.down_frames, wire.down_bytes), (1, 1));
    }

    /// A reader that hands out `chunks` one per call, timing out before
    /// each.
    struct Trickle(Vec<Vec<u8>>, bool);

    impl Read for Trickle {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.1 = !self.1;
            if self.1 {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            let Some(chunk) = (!self.0.is_empty()).then(|| self.0.remove(0)) else {
                return Ok(0);
            };
            let k = chunk.len().min(buf.len());
            buf[..k].copy_from_slice(&chunk[..k]);
            if k < chunk.len() {
                self.0.insert(0, chunk[k..].to_vec());
            }
            Ok(k)
        }
    }

    #[test]
    fn inbox_assembles_frames_across_timeouts_and_grows_only_for_a_larger_one() {
        let mut stream = Vec::new();
        write_frame(&mut stream, &[7; 100]).unwrap();
        write_frame(&mut stream, &[9; 20_000]).unwrap();
        let mut r = Trickle(stream.chunks(3000).map(<[u8]>::to_vec).collect(), false);
        let mut inbox = Inbox::new();
        let mut frames = Vec::new();
        while frames.len() < 2 {
            if let Some(range) = inbox.next_frame().unwrap() {
                frames.push(inbox.buf[range.clone()].to_vec());
                inbox.consume(range.end);
                continue;
            }
            match inbox.fill(&mut r) {
                Ok(k) => assert!(k > 0, "the stream ended early"),
                Err(e) => assert!(is_timeout(&e)),
            }
        }
        assert_eq!(frames, [vec![7; 100], vec![9; 20_000]]);
        assert_eq!(inbox.buf.len(), FRAME_PREFIX_LEN + 20_000);
    }

    #[test]
    fn torn_prefix_and_torn_payload_are_typed() {
        let mut r: &[u8] = &[0x05, 0x00];
        let mut payload = Vec::new();
        assert_eq!(
            read_frame(&mut r, &mut payload),
            Err(WireError::TruncatedPrefix { have: 2 })
        );
        let mut wire = Vec::new();
        write_frame(&mut wire, b"abcdef").unwrap();
        let mut r: &[u8] = &wire[..wire.len() - 2];
        assert_eq!(
            read_frame(&mut r, &mut payload),
            Err(WireError::TruncatedFrame {
                declared: 6,
                have: 4
            })
        );
    }

    #[test]
    fn shard_ranges_cover_and_balance() {
        for n in [1, 2, 3, 4, 5, 7, 8, 64, 1000] {
            let ranges = shard_ranges(n);
            assert_eq!(ranges.len(), shard_count(n));
            let mut next = 0u32;
            for &(first, len) in &ranges {
                assert_eq!(first, next);
                assert!(len > 0);
                next += len;
            }
            assert_eq!(next as usize, n);
            let (lo, hi) = ranges
                .iter()
                .fold((u32::MAX, 0), |(lo, hi), &(_, l)| (lo.min(l), hi.max(l)));
            assert!(hi - lo <= 1, "balanced split for n={n}");
        }
    }

    #[test]
    fn hello_decodes_and_rejects_version_skew() {
        let mut buf = vec![T_HELLO, WIRE_VERSION];
        put_varint(&mut buf, 3);
        assert_eq!(decode_hello(&buf), Ok(3));
        let bad = vec![T_HELLO, WIRE_VERSION + 1, 0x00];
        assert!(matches!(
            decode_hello(&bad),
            Err(WireError::Malformed { .. })
        ));
        assert!(matches!(
            decode_hello(&[0x7f, WIRE_VERSION, 0]),
            Err(WireError::UnknownTag { tag: 0x7f })
        ));
    }

    #[test]
    fn wire_metrics_channel_accounting() {
        let mut w = WireMetrics::default();
        w.count(ChannelKind::Up, 3);
        w.count(ChannelKind::Up, 5);
        w.count(ChannelKind::Broadcast, 7);
        w.count(ChannelKind::Down, 2);
        w.bytes_total = 100;
        assert_eq!(w.frames_sent(ChannelKind::Up), 2);
        assert_eq!(w.bytes_sent(ChannelKind::Up), 8);
        assert_eq!(w.model_bytes(), 17);
        assert_eq!(w.overhead_bytes(), 83);
    }
}
