//! Socket transport: node shards live behind loopback-TCP connections and
//! every message travels as a length-prefixed frame.
//!
//! The step driver — visit rule, ledger accounting, fault injection and the
//! recovery state machine — is [`crate::driver::Cluster`]; [`SocketCluster`]
//! is that driver over [`SocketTransport`]. What this module adds is the
//! wire: [`SocketTransport::spawn`] binds a loopback listener on port 0 and
//! spawns [`shard_count`]`(n)` shard threads, each owning a contiguous id
//! range of node behaviors and one persistent connection. A shard
//! identifies itself with a version-checked `Hello` frame (accept order is
//! nondeterministic; the handshake makes stream identity deterministic).
//! Per work frame the shard runs the behavior and encodes one `Reply`
//! frame; replies are buffered and flushed when the shard is about to wait.
//! Per-shard reader threads funnel replies into one channel. Each shard is
//! one endpoint of the driver, so an abort wave sends one abort per shard.
//!
//! # Flush rule
//!
//! A side flushes only when it is about to wait. The driver buffers a whole
//! wave and flushes once per shard before it collects the replies; a shard
//! buffers its replies and flushes when its reader does not already hold
//! the next whole frame (the read may block) or before an injected stall.
//! A burst of work frames is therefore answered by one write, not one per
//! frame, while `TCP_NODELAY` lets that write leave at once. Neither side
//! ever waits on a peer that is still holding bytes for it, so coalescing
//! cannot deadlock, and it changes no byte on the wire.
//!
//! Because the frames are real bytes, the visit rule's skips are
//! measurable as bytes *not* written, tallied in [`WireMetrics`] — the
//! physical twin of the model ledger — while the model ledger itself stays
//! bit-identical to every other runtime.
//!
//! # Frame format
//!
//! See [`crate::wire`] for the byte-level layout (4-byte little-endian
//! length prefix, tag byte, LEB128 varint fields, version byte in `Hello`).
//! Model payloads are embedded through [`FrameCodec`], whose
//! implementations delegate to the concrete message codec (e.g.
//! `topk-core`'s `codec.rs`). The clean layout is pinned byte for byte by
//! `crates/net/tests/wire_golden.rs`; a chaotic transport switches to a
//! recoverable layout whose work frames and replies carry the `(t, run, m)`
//! key and a stall slot.
//!
//! # Wire faults
//!
//! On top of the driver's in-process classes, [`WireChaos`] attacks the
//! connection itself ([`Transport::wire_fault`]): a **torn** frame (half the
//! payload, then a sever), a connection **reset** before the write, a
//! **half-open** connection (frame delivered, severed before the reply), and
//! a **reconnect storm** of junk connections racing the shard's real
//! re-handshake. A severed shard reconnects to the retained listener and
//! re-sends its `Hello` (version and shard id are validated, junk is
//! skipped); the frame is then re-delivered and deduped by its key. All
//! faulty traffic is charged to [`ChannelKind::Retransmit`] in both
//! ledgers.

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};
use std::io::{self, BufReader, BufWriter, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::behavior::NodeBehavior;
use crate::chaos::{ChaosPolicy, RecoveryMetrics, RuntimeError, WireChaos};
use crate::driver::{Admit, Cluster, FrameKey, NodeHost, Reply, Transport, Work, ABORT_M};
use crate::id::{NodeId, Value};
use crate::ledger::{ChannelKind, WireMetrics};
use crate::wire::{get_varint, put_varint};

/// The step driver over loopback-TCP node shards.
pub type SocketCluster<NB> = Cluster<NB, SocketTransport<NB>>;

/// Length of the frame length prefix (little-endian `u32`).
pub const FRAME_PREFIX_LEN: usize = 4;

/// Upper bound on a declared payload length. A prefix above this is
/// rejected *before* any allocation — a torn or hostile stream cannot make
/// the reader balloon.
pub const MAX_FRAME_LEN: usize = 1 << 20;

/// Transport wire-format version, carried in every `Hello` frame.
pub const WIRE_VERSION: u8 = 0x01;

/// Upper bound on shard connections (one per node below that).
const MAX_SHARDS: usize = 4;

/// How long `spawn` waits for all shards to connect and say hello.
const ACCEPT_TIMEOUT: Duration = Duration::from_secs(10);

/// First and longest sleep of a non-blocking accept loop (see [`Backoff`]).
const ACCEPT_POLL_MIN: Duration = Duration::from_micros(20);
const ACCEPT_POLL_MAX: Duration = Duration::from_millis(1);

/// Reconnect attempts a recoverable shard may consume before giving up —
/// far above any real fault schedule; a runaway sever loop fails typed
/// instead of spinning forever.
const SHARD_RECONNECT_BUDGET: u32 = 256;

// Transport frame tags (distinct namespace from the model-message codec).
const T_HELLO: u8 = 0x01;
const T_OBSERVE: u8 = 0x10;
const T_OBSERVE_CACHED: u8 = 0x11;
const T_ROUND: u8 = 0x12;
const T_ABORT: u8 = 0x1e;
const T_HALT: u8 = 0x1f;
const T_REPLY: u8 = 0x20;

// Reply flag bits.
const F_UP: u8 = 0b001;
const F_ENGAGED: u8 = 0b010;
const F_WAKE: u8 = 0b100;

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

/// Decode one reply frame. `with_run` selects the chaos-mode layout, whose
/// replies echo the `run` component of the `(t, run, m)` idempotency key;
/// the clean layout (golden-snapshot bytes) has no such field.
fn decode_reply<U: FrameCodec>(payload: &[u8], with_run: bool) -> Result<Reply<U>, WireError> {
    let mut rd: &[u8] = payload;
    match take_u8(&mut rd) {
        Some(T_REPLY) => {}
        Some(tag) => return Err(WireError::UnknownTag { tag }),
        None => return Err(malformed("empty frame")),
    }
    let t = need_varint(&mut rd, "reply t")?;
    let run = if with_run {
        need_u32(&mut rd, "reply run")?
    } else {
        0
    };
    let m = need_u32(&mut rd, "reply m")?;
    let id = need_u32(&mut rd, "reply node")?;
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
    if !rd.is_empty() {
        return Err(malformed("trailing bytes after reply"));
    }
    Ok(Reply {
        id: NodeId(id),
        t,
        run,
        m,
        up,
        engaged: flags & F_ENGAGED != 0,
        wake_at,
        up_bytes,
    })
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

/// Encode one work frame for node `i` into `buf`. `recoverable` selects the
/// chaos-mode layout: a stall-milliseconds slot directly after the tag
/// (zero on the canonical copy — see [`stalled_copy`]) and the attempt
/// number after `t`, completing the on-wire `(t, run, m)` key. The clean
/// layout is byte-identical to the golden snapshot. Every embedded model
/// payload is charged to `wire` as one on-wire copy.
fn encode_work<D: FrameCodec>(
    buf: &mut Vec<u8>,
    recoverable: bool,
    i: u32,
    (t, run, m): FrameKey,
    work: Work<'_, D>,
    wire: &mut WireMetrics,
) {
    buf.clear();
    buf.push(match work {
        Work::Observe(Some(_)) => T_OBSERVE,
        Work::Observe(None) => T_OBSERVE_CACHED,
        Work::Round { .. } => T_ROUND,
    });
    if recoverable {
        put_varint(buf, 0); // stall slot, patched by `stalled_copy`
    }
    put_varint(buf, t);
    if recoverable {
        put_varint(buf, run as u64);
    }
    match work {
        Work::Observe(value) => {
            put_varint(buf, i as u64);
            if let Some(v) = value {
                put_varint(buf, v);
            }
        }
        Work::Round { bcasts, ucast } => {
            put_varint(buf, m as u64);
            put_varint(buf, i as u64);
            put_varint(buf, bcasts.len() as u64);
            for b in bcasts {
                let at = buf.len();
                b.encode_frame(buf);
                wire.count(ChannelKind::Broadcast, (buf.len() - at) as u64);
            }
            match ucast {
                Some(d) => {
                    buf.push(1);
                    let at = buf.len();
                    d.encode_frame(buf);
                    wire.count(ChannelKind::Down, (buf.len() - at) as u64);
                }
                None => buf.push(0),
            }
        }
    }
}

/// Re-encode a canonical chaos-mode work frame with its stall slot set.
/// The canonical copy always carries `varint(0)` (one byte) directly after
/// the tag, so the patch is a copy with that byte replaced.
fn stalled_copy(payload: &[u8], stall_ms: u32, out: &mut Vec<u8>) {
    debug_assert!(payload.len() >= 2, "work frame has tag + stall slot");
    out.clear();
    out.push(payload[0]);
    put_varint(out, stall_ms as u64);
    out.extend_from_slice(&payload[2..]);
}

/// Encode a reply frame. `key` is `(t, run, m)`; `run: Some(r)` selects the
/// chaos-mode layout that echoes the attempt number (see [`decode_reply`]).
fn encode_reply<U: FrameCodec>(
    buf: &mut Vec<u8>,
    i: u32,
    key: (u64, Option<u32>, u32),
    up: &Option<U>,
    engaged: bool,
    wake_at: Option<u32>,
) {
    let (t, run, m) = key;
    buf.clear();
    buf.push(T_REPLY);
    put_varint(buf, t);
    if let Some(r) = run {
        put_varint(buf, r as u64);
    }
    put_varint(buf, m as u64);
    put_varint(buf, i as u64);
    let mut flags = 0u8;
    if up.is_some() {
        flags |= F_UP;
    }
    if engaged {
        flags |= F_ENGAGED;
    }
    if wake_at.is_some() {
        flags |= F_WAKE;
    }
    buf.push(flags);
    if let Some(u) = up {
        u.encode_frame(buf);
    }
    if let Some(w) = wake_at {
        put_varint(buf, w as u64);
    }
}

/// Driver reader thread: drain one shard connection, decoding replies (with
/// their frame size on the wire) into the shared channel. Exits on clean
/// close, torn frame, or a dropped receiver — the driver detects the dead
/// shard via its thread handle.
fn reader_main<U: FrameCodec + Send + 'static>(
    stream: TcpStream,
    tx: Sender<(Reply<U>, u64)>,
    tap: Option<Arc<Mutex<Vec<u8>>>>,
    with_run: bool,
) {
    let mut reader = BufReader::new(stream);
    let mut payload = Vec::new();
    while read_frame(&mut reader, &mut payload).is_ok() {
        if let Some(t) = &tap {
            tap_extend(t, &payload);
        }
        let Ok(rep) = decode_reply::<U>(&payload, with_run) else {
            break;
        };
        if tx
            .send((rep, (FRAME_PREFIX_LEN + payload.len()) as u64))
            .is_err()
        {
            break;
        }
    }
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
    /// frame). Recoverable shards reconnect; clean shards exit.
    Lost,
}

/// One decoded work frame (its broadcasts land in the caller's buffer).
struct WorkIn<D> {
    stall_ms: u32,
    key: FrameKey,
    node: u32,
    value: Option<Value>,
    ucast: Option<D>,
}

/// Decode the body of a work frame after its tag — the inverse of
/// [`encode_work`]. The input is decoded fully before any state is
/// touched, so a torn or garbage payload can never half-apply.
fn decode_work<D: FrameCodec>(
    tag: u8,
    rd: &mut &[u8],
    recoverable: bool,
    bcasts: &mut Vec<D>,
) -> Result<WorkIn<D>, WireError> {
    let stall_ms = if recoverable {
        need_u32(rd, "stall")?
    } else {
        0
    };
    let t = need_varint(rd, "t")?;
    let run = if recoverable { need_u32(rd, "run")? } else { 0 };
    let m = if tag == T_ROUND {
        need_u32(rd, "m")?
    } else {
        0
    };
    let node = need_u32(rd, "node")?;
    let value = if tag == T_OBSERVE {
        Some(need_varint(rd, "value")?)
    } else {
        None
    };
    let mut ucast = None;
    if tag == T_ROUND {
        let n_bcasts = need_varint(rd, "bcast count")?;
        if n_bcasts > rd.len() as u64 {
            return Err(malformed("bcast count exceeds payload")); // each ≥ 1 byte
        }
        bcasts.clear();
        for _ in 0..n_bcasts {
            bcasts.push(D::decode_frame(rd)?);
        }
        ucast = match take_u8(rd) {
            Some(0) => None,
            Some(1) => Some(D::decode_frame(rd)?),
            _ => return Err(malformed("bad unicast flag")),
        };
    }
    Ok(WorkIn {
        stall_ms,
        key: (t, run, m),
        node,
        value,
        ucast,
    })
}

/// Node-range state a shard keeps across reconnects: one [`NodeHost`] per
/// node, whose reply cache holds the encoded reply bytes.
struct ShardState<NB: NodeBehavior> {
    hosts: Vec<NodeHost<NB, Vec<u8>>>,
    first: u32,
    shard: u32,
    recoverable: bool,
}

impl<NB> ShardState<NB>
where
    NB: NodeBehavior,
    NB::Up: FrameCodec,
    NB::Down: FrameCodec,
{
    /// Serve one connection until halt or loss. Work frames arrive on
    /// `read_half`; the hello handshake and every reply are buffered on
    /// `write_half` and leave when the shard is about to wait (see
    /// [`next_frame`]). Node state lives in `self` and survives the
    /// connection.
    fn serve(&mut self, read_half: impl Read, write_half: impl Write) -> ServeExit {
        let mut reader = BufReader::new(read_half);
        let mut writer = BufWriter::new(write_half);
        let mut buf = vec![T_HELLO, WIRE_VERSION];
        put_varint(&mut buf, self.shard as u64);
        if write_frame(&mut writer, &buf).is_err() {
            return ServeExit::Lost;
        }
        let mut payload = Vec::new();
        let mut bcasts: Vec<NB::Down> = Vec::new();
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
                T_ABORT if self.recoverable => {
                    let (Ok(t), Ok(run)) = (
                        need_varint(&mut rd, "abort t"),
                        need_u32(&mut rd, "abort run"),
                    ) else {
                        return ServeExit::Lost;
                    };
                    for h in &mut self.hosts {
                        h.abort(t, run);
                    }
                    // One ack per shard, keyed like a reply at ABORT_M.
                    encode_reply::<NB::Up>(
                        &mut buf,
                        self.first,
                        (t, Some(run), ABORT_M),
                        &None,
                        false,
                        None,
                    );
                    if write_frame(&mut writer, &buf).is_err() {
                        return ServeExit::Lost;
                    }
                }
                T_OBSERVE | T_OBSERVE_CACHED | T_ROUND => {
                    let Ok(w) = decode_work(tag, &mut rd, self.recoverable, &mut bcasts) else {
                        return ServeExit::Lost;
                    };
                    let Some(host) = (w.node as usize)
                        .checked_sub(self.first as usize)
                        .and_then(|idx| self.hosts.get_mut(idx))
                    else {
                        return ServeExit::Lost;
                    };
                    if w.stall_ms > 0 {
                        // About to wait: the replies so far leave first.
                        if writer.flush().is_err() {
                            return ServeExit::Lost;
                        }
                        std::thread::sleep(Duration::from_millis(w.stall_ms as u64));
                    }
                    match host.admit(w.key, self.recoverable) {
                        Admit::Stale => continue,
                        Admit::Repeat(cached) => {
                            if cached.is_some_and(|bytes| write_frame(&mut writer, bytes).is_err())
                            {
                                return ServeExit::Lost;
                            }
                            continue;
                        }
                        Admit::Run => {}
                    }
                    let work = if tag == T_ROUND {
                        Work::Round {
                            bcasts: &bcasts,
                            ucast: w.ucast.as_ref(),
                        }
                    } else {
                        Work::Observe(w.value)
                    };
                    let a = host.run(w.key, work);
                    let (t, run, m) = w.key;
                    let key = (t, self.recoverable.then_some(run), m);
                    encode_reply(&mut buf, w.node, key, &a.up, a.engaged, a.wake_at);
                    if self.recoverable {
                        host.commit(w.key, buf.clone());
                    }
                    if write_frame(&mut writer, &buf).is_err() {
                        return ServeExit::Lost;
                    }
                }
                _ => return ServeExit::Lost,
            }
        }
    }
}

/// Shard thread: own a contiguous node range behind one TCP connection.
/// On a recoverable (chaos) transport the shard survives a severed
/// connection: it re-connects to the driver's listener, re-sends its
/// `Hello`, and keeps serving with its node state intact, bounded by
/// [`SHARD_RECONNECT_BUDGET`].
fn shard_main<NB>(
    nodes: Vec<NB>,
    first: u32,
    shard: u32,
    addr: SocketAddr,
    recoverable: bool,
) -> Vec<NB>
where
    NB: NodeBehavior,
    NB::Up: FrameCodec,
    NB::Down: FrameCodec,
{
    let mut st = ShardState {
        hosts: nodes.into_iter().map(NodeHost::new).collect(),
        first,
        shard,
        recoverable,
    };
    let mut budget = if recoverable {
        SHARD_RECONNECT_BUDGET
    } else {
        0
    };
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

/// The driver side of the shard connections: one buffered writer per shard
/// (`None` while severed, awaiting reconnect), the wire ledger, and the
/// optional byte captures.
struct Conns {
    writers: Vec<Option<BufWriter<TcpStream>>>,
    wire: WireMetrics,
    taps: Option<WireTaps>,
}

impl Conns {
    /// Write one frame (physical charge + tap + length prefix).
    fn write(&mut self, s: usize, payload: &[u8]) -> Result<(), WireError> {
        let Some(w) = self.writers[s].as_mut() else {
            return Err(WireError::Io(io::ErrorKind::NotConnected));
        };
        write_frame(w, payload)?;
        self.wire.frames_total += 1;
        self.wire.bytes_total += (FRAME_PREFIX_LEN + payload.len()) as u64;
        if let Some(taps) = &self.taps {
            tap_extend(&taps.to_shard[s], payload);
        }
        Ok(())
    }

    /// Write a duplicate/re-sent frame, charging its payload bytes to
    /// [`ChannelKind::Retransmit`] so the model split stays clean.
    fn write_retransmit(&mut self, s: usize, payload: &[u8]) -> Result<(), WireError> {
        self.wire
            .count(ChannelKind::Retransmit, payload.len() as u64);
        self.write(s, payload)
    }

    /// Write a deliberately torn frame: a full-length prefix followed by
    /// only half the payload. Write errors are ignored — the connection is
    /// about to be severed anyway. The bytes that did leave are charged as
    /// retransmit overhead.
    fn write_torn(&mut self, s: usize, payload: &[u8]) {
        let keep = payload.len() / 2;
        if let Some(w) = self.writers[s].as_mut() {
            let prefix = (payload.len() as u32).to_le_bytes();
            let _ = w.write_all(&prefix);
            let _ = w.write_all(&payload[..keep]);
            let _ = w.flush();
        }
        self.wire.frames_total += 1;
        self.wire.bytes_total += (FRAME_PREFIX_LEN + keep) as u64;
        self.wire.count(ChannelKind::Retransmit, keep as u64);
    }

    fn flush(&mut self, s: usize) -> io::Result<()> {
        self.writers[s].as_mut().map_or(Ok(()), |w| w.flush())
    }

    /// Tear down shard `s`'s connection from the driver side. `shutdown`
    /// (not just drop) because the reader thread holds a dup of the fd —
    /// both halves must die so the old reader exits and the shard sees
    /// EOF/reset and reconnects.
    fn sever(&mut self, s: usize) {
        if let Some(mut w) = self.writers[s].take() {
            let _ = w.flush();
            let _ = w.get_ref().shutdown(Shutdown::Both);
        }
    }
}

/// Loopback-TCP connections to node shards, plus the shard and reader
/// threads behind them.
pub struct SocketTransport<NB: NodeBehavior> {
    conns: Conns,
    shard_handles: Vec<JoinHandle<Vec<NB>>>,
    reader_handles: Vec<JoinHandle<()>>,
    from_shards: Receiver<(Reply<NB::Up>, u64)>,
    /// Kept on a chaotic transport so reconnect readers can clone it (`None`
    /// on a clean one, where reader exit must surface as `Disconnected`).
    reply_tx: Option<Sender<(Reply<NB::Up>, u64)>>,
    /// Retained (nonblocking) on a chaotic transport to accept reconnects.
    listener: Option<TcpListener>,
    /// The listener's loopback address (reconnect storms self-connect).
    addr: SocketAddr,
    /// Node id → owning shard index.
    shard_of: Vec<u32>,
    /// First node id per shard.
    shard_first: Vec<u32>,
    recoverable: bool,
    /// The staged (canonical) work frame.
    frame_buf: Vec<u8>,
    /// Scratch for stalled copies and abort frames.
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
        let recoverable = chaos.is_some();

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
                .spawn(move || shard_main(chunk, first, s as u32, addr, recoverable))
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
                    stream.set_read_timeout(None).map_err(transport)?;
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

        let (tx, rx) = unbounded();
        let mut writers = Vec::with_capacity(s_count);
        let mut reader_handles = Vec::with_capacity(s_count);
        for (s, slot) in streams.into_iter().enumerate() {
            let Some(stream) = slot else {
                return Err(transport("shard stream missing after accept"));
            };
            let read_half = stream.try_clone().map_err(transport)?;
            let tap = taps.as_ref().map(|t| t.from_shard[s].clone());
            let tx = tx.clone();
            reader_handles.push(
                std::thread::Builder::new()
                    .name(format!("topk-shard-rx-{s}"))
                    .spawn(move || reader_main::<NB::Up>(read_half, tx, tap, recoverable))
                    .expect("spawn reader thread"),
            );
            writers.push(Some(BufWriter::new(stream)));
        }

        let mut shard_of = vec![0u32; n];
        for (s, &(first, len)) in ranges.iter().enumerate() {
            shard_of[first as usize..(first + len) as usize].fill(s as u32);
        }
        Ok(SocketTransport {
            conns: Conns {
                writers,
                wire,
                taps,
            },
            shard_handles,
            reader_handles,
            from_shards: rx,
            reply_tx: recoverable.then(|| tx.clone()),
            listener: recoverable.then_some(listener),
            addr,
            shard_of,
            shard_first: ranges.iter().map(|&(first, _)| first).collect(),
            recoverable,
            frame_buf: Vec::new(),
            scratch: Vec::new(),
        })
    }

    /// Number of shard connections.
    pub fn shards(&self) -> usize {
        self.shard_first.len()
    }

    /// Handles to the per-connection byte captures (only when built with
    /// capture armed). Clone-cheap; valid across shutdown.
    pub fn capture(&self) -> Option<WireTaps> {
        self.conns.taps.clone()
    }

    fn down(&self, i: u32) -> RuntimeError {
        RuntimeError::NodeDown { id: NodeId(i) }
    }

    /// Sever shard `s`'s connection, optionally inject a reconnect storm
    /// (junk connections racing the shard's real reconnect), accept the
    /// shard's re-handshake, and re-deliver the staged frame. The shard
    /// dedups by `(t, run, m)` if the original actually made it through.
    fn sever_and_redeliver(
        &mut self,
        i: u32,
        (t, run, m): FrameKey,
        policy: &ChaosPolicy,
        recovery: &mut RecoveryMetrics,
    ) -> Result<(), RuntimeError> {
        let s = self.shard_of[i as usize] as usize;
        self.conns.sever(s);
        if WireChaos::new(*policy).reconnect_storm(t, run, m, i) {
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
        self.conns
            .write_retransmit(s, &self.frame_buf)
            .map_err(|_| self.down(i))?;
        self.conns.flush(s).map_err(|_| self.down(i))
    }

    /// Accept shard `s`'s reconnect on the retained listener: validate the
    /// re-sent `Hello` (version + shard id must match the original), spawn
    /// a fresh reader for the new connection, and restore the writer. Junk
    /// connections (storms, stale handshakes) are discarded.
    fn accept_reconnect(&mut self, s: usize) -> Result<(), RuntimeError> {
        let Some(listener) = self.listener.as_ref() else {
            return Err(transport("reconnect without a retained listener"));
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
                        || stream.set_read_timeout(None).is_err()
                    {
                        continue;
                    }
                    let read_half = stream.try_clone().map_err(transport)?;
                    let Some(tx) = self.reply_tx.clone() else {
                        return Err(transport("reconnect without a retained reply channel"));
                    };
                    let tap = self.conns.taps.as_ref().map(|t| t.from_shard[s].clone());
                    if let Some(tap) = &tap {
                        tap_extend(tap, &payload);
                    }
                    self.reader_handles.push(
                        std::thread::Builder::new()
                            .name(format!("topk-shard-rx-{s}r"))
                            .spawn(move || reader_main::<NB::Up>(read_half, tx, tap, true))
                            .expect("spawn reader thread"),
                    );
                    self.conns.writers[s] = Some(BufWriter::new(stream));
                    return Ok(());
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(if self.shard_handles[s].is_finished() {
                            RuntimeError::NodeDown {
                                id: NodeId(self.shard_first[s]),
                            }
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

impl<NB: NodeBehavior> SocketTransport<NB> {
    /// Halt every shard and join all threads, returning the shards'
    /// behaviors in id order (panicked shards are skipped).
    fn halt_and_join(&mut self) -> Vec<NB> {
        for s in 0..self.conns.writers.len() {
            let _ = self.conns.write(s, &[T_HALT]);
            let _ = self.conns.flush(s);
        }
        self.conns.writers.clear();
        // Dropping the listener unblocks any shard still trying to
        // reconnect (its connect loop fails fast).
        self.listener = None;
        let mut nodes = Vec::new();
        for h in self.shard_handles.drain(..) {
            if let Ok(mut chunk) = h.join() {
                nodes.append(&mut chunk);
            }
        }
        for h in self.reader_handles.drain(..) {
            let _ = h.join();
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
        self.shard_first.len()
    }

    fn endpoint_of(&self, i: u32) -> usize {
        self.shard_of[i as usize] as usize
    }

    fn first_node(&self, e: usize) -> NodeId {
        NodeId(self.shard_first[e])
    }

    fn is_dead(&self, e: usize) -> bool {
        self.shard_handles[e].is_finished()
    }

    fn encode(&mut self, i: u32, key: FrameKey, work: Work<'_, NB::Down>) {
        let wire = &mut self.conns.wire;
        encode_work(&mut self.frame_buf, self.recoverable, i, key, work, wire);
    }

    fn keep(&self) -> Vec<u8> {
        self.frame_buf.clone()
    }

    fn send(&mut self, i: u32, stall_ms: u32) -> Result<(), RuntimeError> {
        let s = self.shard_of[i as usize] as usize;
        let res = if stall_ms > 0 {
            stalled_copy(&self.frame_buf, stall_ms, &mut self.scratch);
            self.conns.write(s, &self.scratch)
        } else {
            self.conns.write(s, &self.frame_buf)
        };
        res.map_err(|_| self.down(i))
    }

    fn resend(&mut self, i: u32, frame: &Vec<u8>) -> Result<(), RuntimeError> {
        let s = self.shard_of[i as usize] as usize;
        self.conns
            .write_retransmit(s, frame)
            .map_err(|_| self.down(i))
    }

    fn flush(&mut self) -> Result<(), RuntimeError> {
        for s in 0..self.conns.writers.len() {
            self.conns.flush(s).map_err(|_| RuntimeError::NodeDown {
                id: NodeId(self.shard_first[s]),
            })?;
        }
        Ok(())
    }

    fn recv(&mut self, timeout: Duration) -> Result<Reply<NB::Up>, RecvTimeoutError> {
        let (rep, frame_bytes) = self.from_shards.recv_timeout(timeout)?;
        self.conns.wire.frames_total += 1;
        self.conns.wire.bytes_total += frame_bytes;
        Ok(rep)
    }

    fn charge_reply(&mut self, kind: ChannelKind, up_bytes: u64) {
        self.conns.wire.count(kind, up_bytes);
    }

    fn send_abort(&mut self, e: usize, t: u64, run: u32) -> Result<(), RuntimeError> {
        self.scratch.clear();
        self.scratch.push(T_ABORT);
        put_varint(&mut self.scratch, t);
        put_varint(&mut self.scratch, run as u64);
        self.conns
            .write_retransmit(e, &self.scratch)
            .map_err(|_| RuntimeError::NodeDown {
                id: NodeId(self.shard_first[e]),
            })
    }

    /// Before the first write: a connection reset (the frame dies with the
    /// connection) or a torn frame (half of it hits the wire, then the cut).
    /// After it: a half-open connection (the frame made it out, the reply
    /// path dies). Each severs, reconnects and re-delivers.
    fn wire_fault(
        &mut self,
        i: u32,
        key: FrameKey,
        sent: bool,
        policy: &ChaosPolicy,
        recovery: &mut RecoveryMetrics,
    ) -> Result<bool, RuntimeError> {
        let (t, run, m) = key;
        let w = WireChaos::new(*policy);
        let s = self.shard_of[i as usize] as usize;
        if sent {
            if !w.half_open(t, run, m, i) {
                return Ok(false);
            }
            recovery.injected_half_opens += 1;
            self.conns.flush(s).map_err(|_| self.down(i))?;
        } else if w.conn_reset(t, run, m, i) {
            recovery.injected_conn_resets += 1;
        } else if w.torn_frame(t, run, m, i) {
            recovery.injected_torn_frames += 1;
            self.conns.write_torn(s, &self.frame_buf);
        } else {
            return Ok(false);
        }
        self.sever_and_redeliver(i, key, policy, recovery)?;
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

    /// Reports every observation; checkpointable, so it also runs on the
    /// recoverable layout.
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

        fn checkpoint(&self) -> Option<Self> {
            Some(self.clone())
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

    /// Serve one in-memory burst of `n` observe frames on shard 0, the
    /// frame at `stall_at` (recoverable layout only) stalled for 1 ms.
    /// Returns the shard's writes after its `Hello`, and the framed reply
    /// it owes to each work frame.
    fn serve_burst(
        n: u32,
        recoverable: bool,
        stall_at: Option<u32>,
    ) -> (Vec<Vec<u8>>, Vec<Vec<u8>>) {
        let key = (1, 0, 0);
        let (mut input, mut owed) = (Vec::new(), Vec::new());
        let (mut frame, mut stalled) = (Vec::new(), Vec::new());
        let mut wire = WireMetrics::default();
        for i in 0..n {
            let v = 1000 + 7 * i as u64;
            let work = Work::Observe(Some(v));
            encode_work::<Msg>(&mut frame, recoverable, i, key, work, &mut wire);
            if stall_at == Some(i) {
                stalled_copy(&frame, 1, &mut stalled);
                write_frame(&mut input, &stalled).unwrap();
            } else {
                write_frame(&mut input, &frame).unwrap();
            }
            let reply_key = (1, recoverable.then_some(0), 0);
            encode_reply(&mut frame, i, reply_key, &Some(Msg(v)), false, None);
            let mut reply = Vec::new();
            write_frame(&mut reply, &frame).unwrap();
            owed.push(reply);
        }
        let mut st = ShardState {
            hosts: (0..n).map(|i| NodeHost::new(Echo(NodeId(i)))).collect(),
            first: 0,
            shard: 0,
            recoverable,
        };
        let mut log = WriteLog::default();
        assert!(matches!(st.serve(&input[..], &mut log), ServeExit::Lost));
        let mut hello = Vec::new();
        write_frame(&mut hello, &[T_HELLO, WIRE_VERSION, 0]).unwrap();
        assert_eq!(log.0.first(), Some(&hello), "the hello leaves on its own");
        (log.0.split_off(1), owed)
    }

    #[test]
    fn shard_answers_a_burst_with_one_write() {
        for recoverable in [false, true] {
            let (writes, owed) = serve_burst(64, recoverable, None);
            assert_eq!(writes, [owed.concat()], "recoverable={recoverable}");
        }
    }

    #[test]
    fn stall_flushes_the_burst_before_sleeping() {
        let (writes, owed) = serve_burst(64, true, Some(20));
        assert_eq!(writes, [owed[..20].concat(), owed[20..].concat()]);
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
