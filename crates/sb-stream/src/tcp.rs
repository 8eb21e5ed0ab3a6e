//! The TCP transport backend: length-prefixed frames to a broker process.
//!
//! The paper's components are separate executables wired by FlexPath over
//! the network; this backend gives the reproduction that process boundary.
//! One process runs a [`TcpBroker`] — an accept loop in front of an
//! ordinary in-proc [`StreamHub`], which remains the single authority for
//! step queues, backpressure, rendezvous, and supervision state. Every
//! other process opens a hub with [`StreamHub::connect`] and gets the exact
//! same `StreamWriter`/`StreamReader` API; each endpoint is one TCP
//! connection served by one broker thread.
//!
//! ## Framing
//!
//! Every message is one frame: a `u32` little-endian payload length, then
//! the payload, whose first byte is the opcode. Payload fields are read and
//! written through the [`sb_data::cursor`] (length-prefixed strings, LE
//! integers); a frame that ends mid-field is a typed error naming the field.
//! Under protocol **v1**, steps travel as [`sb_data::wire::encode_chunk`]
//! frames, whose `meta` is the description the file components persist.
//! Under protocol **v2**
//! (the default, negotiated in the hello) each connection interns variable
//! metadata: a numbered definition travels once and chunks reference it by
//! id ([`sb_data::wire::encode_chunk_interned`]), optionally with per-chunk
//! LZ compression ([`TcpOptions::with_compression`]). The v2 step frames:
//!
//! ```text
//! W_STEP     := 0x11 | u64 step | u32 ndefs | def* | u32 nchunks | ichunk*
//! R_BEGIN    := 0x20 | u64 step [ | u16 nboxes | (str var | region)* ]
//! REPLY_STEP := 0x82 | u64 step | u32 ndefs | def* | u32 nchunks | ichunk*
//! ichunk     := u32 id | region | u64 nelems | u8 codec | payload
//! ```
//!
//! The writer's encoded bytes are the stream's bytes: once a v2 reader has
//! opened the stream, a broker writer session keeps each received `W_STEP`
//! frame and seeds the per-stream relay cache with its chunks (meta ids
//! rewritten in place to stream-global ones), and reader sessions answer
//! fetches with slices of those frames — no re-encode, no second
//! compression. A chunk nothing seeded (in-proc or v1 writer, another
//! codec, a step committed before any v2 reader opened the stream) is
//! encoded **once** per codec into the same cache and shared the same way;
//! per-connection definition high-water marks prepend exactly the
//! definitions a given reader still lacks. The cache keeps a step only while
//! the hub buffers it: every seed, reply and release first drops the steps
//! below the stream's `steps_consumed`, and a reader session that answers
//! end of stream empties it. Each frame byte is charged once, to the hop it
//! crossed (writer→broker or broker→reader), by the broker sessions — see
//! the honest-accounting notes in `crate::metrics`.
//!
//! ## Each reader rank is sent its box, not the step
//!
//! FlexPath's MxN contract is that a reader pulls only the writer chunks
//! its bounding box meets. An `R_BEGIN` therefore may end in a box trailer:
//! the `(variable, region)` pairs the rank read in the step before, which
//! is what it will read in this one unless the component changes its mind.
//! Of a variable the trailer names, the reply leaves out every chunk no box
//! meets, and a chunk a box meets in a proper *row slab* travels as that
//! slab: a fresh 15 + 16·rank byte `ichunk` header (`id | sub-region |
//! nelems | codec = none`) in front of the run of the cached frame the slab
//! occupies — shared, not copied, and decoded by the reader like any other
//! chunk. Everything else travels as cached: variables the trailer does not
//! name, a variable with a box that fails [`Region::validate`] against the
//! step's shape, a chunk met in anything but a row slab or by several
//! boxes, an LZ-coded payload (a block has no addressable rows). A reply
//! never lacks a variable. No trailer — a connection's first request, a v1
//! or older v2 client, more than `MAX_STEP_BOXES` boxes — means the whole
//! step, and a broker that predates the trailer ignores it and replies
//! whole, so every pairing of old and new peers still works.
//!
//! ## Latency discipline
//!
//! *One request, one reply per writer step*: `begin_step` sends nothing and
//! `put` only encodes into a local batch; the whole step goes out as one
//! `W_STEP` frame at `end_step`, and its one reply covers the broker's wait
//! for buffer space, the commit and, in rendezvous mode, the consumption —
//! so an N-variable step costs one round trip, not N + 1. The broker
//! session owns the writer's step sequence: it expects the step its hub
//! registration started at, then each next one, and anything else costs
//! the connection. *Reader-side prefetch*: releasing step `s` immediately
//! pipelines the request for `s + 1` — `R_RELEASE s` and `R_BEGIN s + 1`
//! with the boxes of step `s` leave as one gathered write — so the broker
//! can cut and send the next step while the component is still computing.
//!
//! ## Failure semantics
//!
//! Connect and read deadlines are configurable via [`TcpOptions`] and
//! surface as the existing [`StreamError::Timeout`] /
//! [`StreamError::PeerGone`] taxonomy, so the workflow supervisor's
//! Restart/Degrade policies work unchanged across the process boundary. A
//! remote writer blocks only in `end_step`: a full queue surfaces there as
//! the broker's own `Timeout { waiting_for: "buffer space" }`, and a step
//! that failed so committed nothing. A hello, put or release the hub refuses
//! (a rank disagreeing with its group, a step committed or released twice)
//! is answered `PeerGone`, never a broker panic. A writer session that ends
//! without a clean `close`/`abandon` terminator — the connection dropped (a
//! SIGKILLed component), a reply could not be sent, a frame was malformed or
//! out of sequence — is a *noisy* disconnect: a drop guard on the session's
//! endpoint makes every such exit one, so readers blocked on steps that
//! writer group can no longer commit fail promptly with `PeerGone` instead
//! of waiting out the hub timeout. A reader session has no terminator to
//! send: a reader process that dies holding a step leaves its writers
//! blocked on buffer space until a supervisor detaches or restarts the
//! group — or, if none does, until the hub timeout.
//!
//! A box is a guess. When a `get` asks a step that was fetched with boxes
//! for a region its chunks do not cover, the reader handle asks for the
//! open step again without a trailer (fetching is idempotent until the
//! release), reads from the whole step, and only then may report
//! `RegionOutOfBounds` — never a silent zero-fill. The second fetch shows in
//! `wire_reader_bytes` and as a second `relay_*` trace instant for the step.
//!
//! A reader session releases only the step it last served and has not yet
//! released; any other `R_RELEASE` is a protocol violation that costs the
//! connection, not a step its sibling ranks have yet to read.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sb_data::cursor::{
    fits, get_str, get_u16, get_u32, get_u64, get_u8, put_str, put_u16, put_u32, put_u64, put_u8,
};
use sb_data::wire::{
    decode_chunk, decode_chunk_interned, decode_region, encode_chunk, encode_chunk_interned,
    encode_region, Compression, MetaDefs, MetaInternTable,
};
use sb_data::{lock, AllocationId, Chunk, DataError, DataResult, Region};

use crate::error::{StreamError, StreamResult};
use crate::hub::StreamHub;
use crate::metrics::{Counters, StreamMetrics};
use crate::stream::WriterOptions;
use crate::trace::{EventKind, TraceSite, Tracer};
use crate::transport::{
    ReaderConnection, ReaderEndpoint, StepContents, Transport, VarSlot, WriterConnection,
    WriterEndpoint, MAX_STEP_BOXES,
};

// Client → broker.
const HELLO_WRITER: u8 = 0x01;
const HELLO_READER: u8 = 0x02;
const HELLO_CONTROL: u8 = 0x03;
const W_STEP: u8 = 0x11;
const W_CLOSE: u8 = 0x12;
const W_ABANDON: u8 = 0x13;
const R_BEGIN: u8 = 0x20;
const R_RELEASE: u8 = 0x21;
const C_POISON: u8 = 0x30;
const C_FORCE_EOS: u8 = 0x31;
const C_DETACH: u8 = 0x32;
const C_RESTART: u8 = 0x33;
const C_SET_TIMEOUT: u8 = 0x34;
const C_METRICS: u8 = 0x35;

// Broker → client.
const REPLY_OK: u8 = 0x80;
const REPLY_STARTED: u8 = 0x81;
const REPLY_STEP: u8 = 0x82;
const REPLY_EOS: u8 = 0x83;
const REPLY_ERR_TIMEOUT: u8 = 0x84;
const REPLY_ERR_PEER_GONE: u8 = 0x85;
const REPLY_METRICS: u8 = 0x86;

/// Upper bound on a single frame; a corrupt length prefix fails cleanly
/// instead of attempting a giant allocation.
pub(crate) const MAX_FRAME: u32 = 1 << 30;

/// Frame-protocol revisions the hello negotiates.
///
/// v1 re-sends full [`sb_data::VariableMeta`] with every chunk of every
/// step; v2 interns metadata per connection (a numbered definition travels
/// once, chunks reference it by id) and may compress chunk payloads. The
/// hello carries the client's preferred revision and the broker echoes what
/// it accepted in `REPLY_STARTED`; a hello with no protocol trailer is a
/// v1 client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub enum WireProtocol {
    /// Self-describing chunk frames ([`sb_data::wire::encode_chunk`]).
    V1,
    /// Interned metadata + optional per-chunk compression
    /// ([`sb_data::wire::encode_chunk_interned`]).
    #[default]
    V2,
}

impl WireProtocol {
    /// The one-byte wire tag.
    pub fn tag(self) -> u8 {
        match self {
            WireProtocol::V1 => 1,
            WireProtocol::V2 => 2,
        }
    }

    /// Parses a wire tag.
    pub fn from_tag(tag: u8) -> DataResult<WireProtocol> {
        match tag {
            1 => Ok(WireProtocol::V1),
            2 => Ok(WireProtocol::V2),
            t => Err(DataError::Container {
                detail: format!("unknown wire protocol {t}"),
            }),
        }
    }

    /// The name used in flags, benchmarks, and reports.
    pub fn name(self) -> &'static str {
        match self {
            WireProtocol::V1 => "v1",
            WireProtocol::V2 => "v2",
        }
    }
}

/// Connect/read deadlines of the TCP backend.
///
/// Marked `#[non_exhaustive]`; construct via [`TcpOptions::default`] and
/// refine with the `with_*` setters.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TcpOptions {
    /// Total budget for dialing the broker, retried while it comes up —
    /// launch-order independence across processes. Expiry surfaces as
    /// [`StreamError::Timeout`] from the first blocking call.
    pub connect_timeout: Duration,
    /// Slack added to the hub wait timeout for the socket read deadline:
    /// the broker enforces the hub timeout where the blocking happens, so
    /// the client only needs the margin to cover the wire.
    pub read_grace: Duration,
    /// Frame-protocol revision offered in the hello. Defaults to
    /// [`WireProtocol::V2`]; the broker accepts either, so this is only a
    /// compatibility/ablation knob.
    pub protocol: WireProtocol,
    /// Per-chunk payload compression requested for v2 connections
    /// (ignored under v1, which has no codec field). Defaults to
    /// [`Compression::None`]. Under [`Compression::Lz`] a chunk is stored
    /// raw unless it shrinks, and a payload above 48 KiB is compressed
    /// whole only if a head/middle/tail sample shrinks: LAMMPS frames
    /// compress by 1.33, GROMACS coordinates (0.996) go raw.
    pub compression: Compression,
}

impl Default for TcpOptions {
    fn default() -> Self {
        TcpOptions {
            connect_timeout: Duration::from_secs(15),
            read_grace: Duration::from_secs(15),
            protocol: WireProtocol::V2,
            compression: Compression::None,
        }
    }
}

impl TcpOptions {
    /// Sets the total connect budget (builder style).
    pub fn with_connect_timeout(mut self, timeout: Duration) -> TcpOptions {
        self.connect_timeout = timeout;
        self
    }

    /// Sets the read-deadline slack over the hub timeout (builder style).
    pub fn with_read_grace(mut self, grace: Duration) -> TcpOptions {
        self.read_grace = grace;
        self
    }

    /// Selects the frame-protocol revision offered in the hello.
    pub fn with_protocol(mut self, protocol: WireProtocol) -> TcpOptions {
        self.protocol = protocol;
        self
    }

    /// Selects per-chunk payload compression (effective under v2 only).
    pub fn with_compression(mut self, compression: Compression) -> TcpOptions {
        self.compression = compression;
        self
    }
}

/// Parses and resolves a `tcp://host:port` URL.
pub fn parse_url(url: &str) -> io::Result<SocketAddr> {
    let rest = url.strip_prefix("tcp://").ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("transport URL {url:?} must start with tcp://"),
        )
    })?;
    rest.to_socket_addrs()?.next().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("transport URL {url:?} resolved to no address"),
        )
    })
}

// ---- framing -------------------------------------------------------------

/// One framed, bidirectional byte channel: the seam between the protocol
/// (hellos, steps, control verbs) and the fabric carrying it. Every kernel
/// stream [`Socket`] implements it — the TCP socket here, the Unix-domain
/// socket of [`crate::shm`] — so every client and broker-session codepath
/// above this line is fabric-agnostic.
pub(crate) trait FrameIo: Send {
    /// Sends `frames` back to back as one gathered write, each a
    /// `u32`-length-prefixed frame whose payload is the concatenation of its
    /// parts, returning the bytes that crossed the fabric (headers plus
    /// payloads). Taking a payload as slices is what lets a sender frame
    /// bytes it does not own contiguously — a step batch behind its header,
    /// relayed chunk bodies behind a prelude — without first copying them
    /// into one buffer; taking several frames is what lets a reader's
    /// release and its next request leave in one syscall.
    fn send_frames(&mut self, frames: &[&[&[u8]]]) -> io::Result<usize>;

    /// Sends one frame whose payload is the concatenation of `parts`.
    fn send_frame_parts(&mut self, parts: &[&[u8]]) -> io::Result<usize> {
        self.send_frames(&[parts])
    }

    /// Sends one frame from a contiguous payload.
    fn send_frame(&mut self, payload: &[u8]) -> io::Result<usize> {
        self.send_frame_parts(&[payload])
    }

    /// Receives one frame payload.
    fn recv_frame(&mut self) -> io::Result<Vec<u8>>;

    /// Sets the deadline applied to subsequent [`FrameIo::recv_frame`]
    /// calls; expiry must surface as `WouldBlock` or `TimedOut`.
    fn set_recv_deadline(&mut self, deadline: Option<Duration>);
}

/// The length prefix for a frame made of `parts`, refusing one the peer's
/// [`read_frame`] would reject (and one a `u32` could not even describe).
pub(crate) fn frame_header(parts: &[&[u8]]) -> io::Result<[u8; 4]> {
    let len: usize = parts.iter().map(|p| p.len()).sum();
    match u32::try_from(len) {
        Ok(len) if len <= MAX_FRAME => Ok(len.to_le_bytes()),
        _ => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        )),
    }
}

/// Most bytes [`read_frame`] reserves ahead of the bytes that have actually
/// arrived.
pub(crate) const FRAME_STRIDE: usize = 4 << 20;

/// Reads one length-prefixed frame from either fabric's byte stream.
///
/// The prefix is hostile until the body has arrived: it is capped at
/// [`MAX_FRAME`], and the body buffer is reserved at most one
/// [`FRAME_STRIDE`] ahead of what has been received, so a forged 1 GiB
/// prefix followed by a hang-up costs one stride, not a gigabyte. A frame
/// that fits one stride — every step the workflows here move — is received
/// into a single exact reservation.
pub(crate) fn read_frame(src: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    src.read_exact(&mut len)?;
    let len = u32::from_le_bytes(len);
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let len = len as usize;
    let mut body = Vec::new();
    while body.len() < len {
        let stride = (len - body.len()).min(FRAME_STRIDE);
        body.reserve(stride);
        let got = src.by_ref().take(stride as u64).read_to_end(&mut body)?;
        if got < stride {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-frame",
            ));
        }
    }
    Ok(body)
}

/// A kernel stream socket: blocking reads and writes, backpressure from the
/// socket buffer, EOF when the peer closes or dies. [`TcpStream`] and the
/// `UnixStream` of [`crate::shm`] share the one [`FrameIo`] below.
pub(crate) trait Socket: Read + Write + Send {
    /// The socket's receive-timeout setter (`SO_RCVTIMEO`).
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()>;
}

impl Socket for TcpStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        TcpStream::set_read_timeout(self, timeout)
    }
}

impl<S: Socket> FrameIo for S {
    fn send_frames(&mut self, frames: &[&[&[u8]]]) -> io::Result<usize> {
        let headers = frames
            .iter()
            .map(|parts| frame_header(parts))
            .collect::<io::Result<Vec<[u8; 4]>>>()?;
        let mut slices = Vec::with_capacity(frames.iter().map(|parts| 1 + parts.len()).sum());
        let mut sent = 0;
        for (header, parts) in headers.iter().zip(frames) {
            slices.push(IoSlice::new(header));
            slices.extend(
                parts
                    .iter()
                    .filter(|p| !p.is_empty())
                    .map(|p| IoSlice::new(p)),
            );
            sent += header.len() + u32::from_le_bytes(*header) as usize;
        }
        // One gathered write per call in the common case; the loop covers
        // short writes and lists longer than the kernel's iovec limit.
        let mut rest = &mut slices[..];
        while !rest.is_empty() {
            match self.write_vectored(rest) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted no bytes mid-frame",
                    ))
                }
                Ok(n) => IoSlice::advance_slices(&mut rest, n),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(sent)
    }

    fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
        read_frame(self)
    }

    fn set_recv_deadline(&mut self, deadline: Option<Duration>) {
        // A zero timeout is `InvalidInput` to the socket and would leave the
        // previous (possibly infinite) deadline armed; the shortest real one
        // keeps "no time left" a timeout instead of a hang.
        let deadline = deadline.map(|d| d.max(Duration::from_millis(1)));
        let _ = self.set_read_timeout(deadline);
    }
}

// ---- payload codecs -------------------------------------------------------

/// Parses the optional trailing `[u8 proto][u8 comp]` negotiation bytes a
/// hello or `REPLY_STARTED` may carry. Their absence means the peer
/// predates protocol v2 and speaks v1 uncompressed.
fn negotiated(cur: &mut &[u8]) -> DataResult<(WireProtocol, Compression)> {
    if cur.is_empty() {
        return Ok((WireProtocol::V1, Compression::None));
    }
    let proto = WireProtocol::from_tag(get_u8(cur, "protocol tag")?)?;
    let comp = Compression::from_tag(get_u8(cur, "compression tag")?)?;
    // v1 frames have nowhere to record a codec; the pair degrades together.
    if proto == WireProtocol::V1 {
        return Ok((proto, Compression::None));
    }
    Ok((proto, comp))
}

/// Appends the box trailer of an `R_BEGIN`: `u16 nboxes | (str var | region)*`.
fn encode_boxes(buf: &mut Vec<u8>, boxes: &[(String, Region)]) -> DataResult<()> {
    put_u16(buf, fits(boxes.len(), "box count")?);
    for (var, region) in boxes {
        put_str(buf, var)?;
        encode_region(buf, region)?;
    }
    Ok(())
}

/// Parses what follows the step id of an `R_BEGIN`. Nothing there, or more
/// boxes than [`MAX_STEP_BOXES`], asks for the whole step (and the excess is
/// not even parsed). The regions are as hostile as the rest of the frame:
/// nothing may do arithmetic on one before it passed
/// [`Region::validate`] against the shape it is to cut.
fn decode_boxes(cur: &mut &[u8]) -> DataResult<Vec<(String, Region)>> {
    if cur.is_empty() {
        return Ok(Vec::new());
    }
    let n = get_u16(cur, "box count")? as usize;
    if n > MAX_STEP_BOXES {
        return Ok(Vec::new());
    }
    let mut boxes = Vec::with_capacity(n);
    for _ in 0..n {
        boxes.push((get_str(cur, "box variable")?, decode_region(cur)?));
    }
    Ok(boxes)
}

fn proto_gone(stream: &str, detail: impl std::fmt::Display) -> StreamError {
    StreamError::PeerGone {
        stream: stream.to_string(),
        reason: format!("transport protocol error: {detail}"),
    }
}

fn encode_err(buf: &mut Vec<u8>, err: &StreamError) {
    let start = buf.len();
    let framed = (|| -> DataResult<()> {
        match err {
            StreamError::Timeout {
                stream,
                waiting_for,
                timeout,
                detail,
            } => {
                put_u8(buf, REPLY_ERR_TIMEOUT);
                put_str(buf, stream)?;
                put_str(buf, waiting_for)?;
                put_u64(buf, timeout.as_micros() as u64);
                put_str(buf, detail)?;
            }
            StreamError::PeerGone { stream, reason } => {
                put_u8(buf, REPLY_ERR_PEER_GONE);
                put_str(buf, stream)?;
                put_str(buf, reason)?;
            }
        }
        Ok(())
    })();
    if framed.is_err() {
        // An error whose strings cannot fit the frame must still reach the
        // peer as *something* decodable; degrade to a constant PeerGone.
        buf.truncate(start);
        const DETAIL: &str = "unframeable error reply";
        put_u8(buf, REPLY_ERR_PEER_GONE);
        put_u32(buf, 0); // empty stream name
        put_u32(buf, DETAIL.len() as u32);
        buf.extend_from_slice(DETAIL.as_bytes());
    }
}

fn decode_err(op: u8, cur: &mut &[u8]) -> DataResult<StreamError> {
    match op {
        REPLY_ERR_TIMEOUT => Ok(StreamError::Timeout {
            stream: get_str(cur, "error stream")?,
            waiting_for: get_str(cur, "error cause")?,
            timeout: Duration::from_micros(get_u64(cur, "error timeout")?),
            detail: get_str(cur, "error detail")?,
        }),
        REPLY_ERR_PEER_GONE => Ok(StreamError::PeerGone {
            stream: get_str(cur, "error stream")?,
            reason: get_str(cur, "error reason")?,
        }),
        other => Err(DataError::Container {
            detail: format!("unexpected reply opcode {other:#04x}"),
        }),
    }
}

/// Parses a reply frame whose opcode should be `want`, reading what
/// follows the opcode with `body`. Any other opcode is the broker's typed
/// error; a malformed frame is a protocol error against `stream` — the one
/// place a client turns a [`DataError`] into a [`StreamError`].
fn parse_reply<T>(
    payload: &[u8],
    want: u8,
    stream: &str,
    body: impl FnOnce(&mut &[u8]) -> DataResult<T>,
) -> StreamResult<T> {
    let mut cur = payload;
    let parsed = get_u8(&mut cur, "reply opcode").and_then(|op| {
        if op == want {
            body(&mut cur).map(Ok)
        } else {
            decode_err(op, &mut cur).map(Err)
        }
    });
    parsed.unwrap_or_else(|e| Err(proto_gone(stream, e)))
}

fn encode_metrics(buf: &mut Vec<u8>, m: &StreamMetrics) -> DataResult<()> {
    put_str(buf, &m.stream)?;
    for v in [
        m.bytes_written,
        m.bytes_read,
        m.steps_committed,
        m.steps_consumed,
        m.writer_wait.as_nanos() as u64,
        m.reader_wait.as_nanos() as u64,
        m.bytes_copied,
        m.copies_elided,
        m.zero_fills_elided,
        m.wire_writer_bytes,
        m.wire_reader_bytes,
        m.wire_shm_bytes,
        m.wire_uncompressed_bytes,
        m.wire_compressed_bytes,
        m.bytes_on_wire,
    ] {
        put_u64(buf, v);
    }
    Ok(())
}

fn decode_metrics(cur: &mut &[u8]) -> DataResult<StreamMetrics> {
    Ok(StreamMetrics {
        stream: get_str(cur, "metrics stream")?,
        bytes_written: get_u64(cur, "bytes_written")?,
        bytes_read: get_u64(cur, "bytes_read")?,
        steps_committed: get_u64(cur, "steps_committed")?,
        steps_consumed: get_u64(cur, "steps_consumed")?,
        writer_wait: Duration::from_nanos(get_u64(cur, "writer_wait")?),
        reader_wait: Duration::from_nanos(get_u64(cur, "reader_wait")?),
        bytes_copied: get_u64(cur, "bytes_copied")?,
        copies_elided: get_u64(cur, "copies_elided")?,
        zero_fills_elided: get_u64(cur, "zero_fills_elided")?,
        wire_writer_bytes: get_u64(cur, "wire_writer_bytes")?,
        wire_reader_bytes: get_u64(cur, "wire_reader_bytes")?,
        wire_shm_bytes: get_u64(cur, "wire_shm_bytes")?,
        wire_uncompressed_bytes: get_u64(cur, "wire_uncompressed_bytes")?,
        wire_compressed_bytes: get_u64(cur, "wire_compressed_bytes")?,
        bytes_on_wire: get_u64(cur, "bytes_on_wire")?,
    })
}

// ---- client side ---------------------------------------------------------

/// One endpoint's connection to the broker, with typed send/receive.
struct ClientConn {
    io: Box<dyn FrameIo>,
    stream_name: String,
    peer: String,
    wait_timeout_micros: Arc<AtomicU64>,
    read_grace: Duration,
    /// Raised when this connection breaks; see [`TcpTransport::client_conn`].
    broker_lost: Arc<AtomicBool>,
}

impl ClientConn {
    fn send(&mut self, payload: &[u8]) -> StreamResult<()> {
        self.send_parts(&[payload])
    }

    fn send_parts(&mut self, parts: &[&[u8]]) -> StreamResult<()> {
        self.send_frames(&[parts])
    }

    fn send_frames(&mut self, frames: &[&[&[u8]]]) -> StreamResult<()> {
        self.io
            .send_frames(frames)
            .map(|_| ())
            .map_err(|e| self.lost(e))
    }

    /// The typed error for a connection that broke (EOF, reset, a frame cut
    /// short): the broker closed it or died. A frame refused at send for its
    /// size (`InvalidInput`) never touched the connection.
    fn lost(&self, e: io::Error) -> StreamError {
        if e.kind() != io::ErrorKind::InvalidInput {
            self.broker_lost.store(true, Ordering::Relaxed);
        }
        StreamError::PeerGone {
            stream: self.stream_name.clone(),
            reason: format!("broker connection lost ({e})"),
        }
    }

    /// Receives one reply frame. The broker enforces the hub timeout where
    /// the blocking happens; the fabric deadline only adds wire slack, and
    /// its expiry surfaces as the same [`StreamError::Timeout`].
    fn recv(&mut self, waiting_for: &str) -> StreamResult<Vec<u8>> {
        let base = Duration::from_micros(self.wait_timeout_micros.load(Ordering::Relaxed));
        let deadline = base + self.read_grace;
        self.io.set_recv_deadline(Some(deadline));
        self.io.recv_frame().map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => StreamError::Timeout {
                stream: self.stream_name.clone(),
                waiting_for: waiting_for.to_string(),
                timeout: deadline,
                detail: format!("no reply from broker at {}", self.peer),
            },
            _ => self.lost(e),
        })
    }

    /// Receives a reply and requires a bare `OK`.
    fn expect_ok(&mut self, waiting_for: &str) -> StreamResult<()> {
        let payload = self.recv(waiting_for)?;
        parse_reply(&payload, REPLY_OK, &self.stream_name, |_| Ok(()))
    }
}

/// Connects to the broker at `peer`, retrying while it comes up
/// (launch-order independence) until the connect budget runs out. `connect`
/// makes one attempt within the time it is given.
pub(crate) fn dial_retry<S>(
    peer: &str,
    options: &TcpOptions,
    stream_name: &str,
    connect: impl Fn(Duration) -> io::Result<S>,
) -> Result<S, StreamError> {
    let deadline = Instant::now() + options.connect_timeout;
    let mut last_err: Option<io::Error> = None;
    loop {
        let remaining = deadline.saturating_duration_since(Instant::now());
        if remaining.is_zero() {
            return Err(StreamError::Timeout {
                stream: stream_name.to_string(),
                waiting_for: "broker connection".to_string(),
                timeout: options.connect_timeout,
                detail: format!(
                    "{peer}: {}",
                    last_err
                        .map(|e| e.to_string())
                        .unwrap_or_else(|| "connect budget exhausted".to_string())
                ),
            });
        }
        match connect(remaining.min(Duration::from_secs(2))) {
            Ok(sock) => return Ok(sock),
            Err(e) => {
                last_err = Some(e);
                // The broker may still be coming up; retry until the
                // budget runs out.
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    }
}

/// Dials one fabric connection per endpoint — the client-side seam that
/// lets [`TcpTransport`] drive any [`FrameIo`] fabric. The same-host
/// backend reuses the whole client protocol by substituting its dialer.
pub(crate) trait Dialer: Send + Sync {
    /// Backend name reported by [`Transport::backend`].
    fn backend(&self) -> &'static str;

    /// Opens one framed connection for `stream_name`'s endpoint.
    fn dial(&self, stream_name: &str) -> Result<Box<dyn FrameIo>, StreamError>;

    /// Peer identity for error detail text.
    fn peer(&self) -> String;
}

struct TcpDialer {
    addr: SocketAddr,
    options: TcpOptions,
}

impl Dialer for TcpDialer {
    fn backend(&self) -> &'static str {
        "tcp"
    }

    fn dial(&self, stream_name: &str) -> Result<Box<dyn FrameIo>, StreamError> {
        let sock = dial_retry(&self.peer(), &self.options, stream_name, |budget| {
            let sock = TcpStream::connect_timeout(&self.addr, budget)?;
            // Steps are latency-bound: never let Nagle hold a frame back.
            let _ = sock.set_nodelay(true);
            Ok(sock)
        })?;
        Ok(Box::new(sock))
    }

    fn peer(&self) -> String {
        self.addr.to_string()
    }
}

/// The client-side [`Transport`]: every endpoint is one framed connection
/// to the broker, dialed through a fabric-specific [`Dialer`] (a TCP
/// socket, or the same-host Unix-domain socket of [`crate::shm`]).
pub(crate) struct TcpTransport {
    dialer: Box<dyn Dialer>,
    options: TcpOptions,
    wait_timeout_micros: Arc<AtomicU64>,
    tracer: Arc<Tracer>,
    /// Local read-side counter blocks per stream (the MxN assembly in this
    /// process charges here; merged into broker snapshots on `all_metrics`).
    counters: Mutex<HashMap<String, Arc<Counters>>>,
    /// Lazily dialed control connection for the supervision verbs.
    control: Mutex<Option<ClientConn>>,
    /// Whether a connection to the broker has broken.
    broker_lost: Arc<AtomicBool>,
}

impl TcpTransport {
    /// Resolves `url` (`tcp://host:port`). Sockets are dialed when
    /// endpoints open, so the broker may come up later.
    pub fn connect(
        url: &str,
        options: TcpOptions,
        wait_timeout_micros: Arc<AtomicU64>,
        tracer: Arc<Tracer>,
    ) -> io::Result<TcpTransport> {
        let addr = parse_url(url)?;
        Ok(TcpTransport::with_dialer(
            Box::new(TcpDialer { addr, options }),
            options,
            wait_timeout_micros,
            tracer,
        ))
    }

    /// Assembles the client protocol over an arbitrary fabric dialer.
    pub(crate) fn with_dialer(
        dialer: Box<dyn Dialer>,
        options: TcpOptions,
        wait_timeout_micros: Arc<AtomicU64>,
        tracer: Arc<Tracer>,
    ) -> TcpTransport {
        TcpTransport {
            dialer,
            options,
            wait_timeout_micros,
            tracer,
            counters: Mutex::new(HashMap::new()),
            control: Mutex::new(None),
            broker_lost: Arc::new(AtomicBool::new(false)),
        }
    }

    fn stream_counters(&self, name: &str) -> Arc<Counters> {
        Arc::clone(
            lock(&self.counters)
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(Counters::default())),
        )
    }

    fn client_conn(&self, stream_name: &str) -> Result<ClientConn, StreamError> {
        // The connect budget is for a broker still coming up. One that broke
        // a connection held every stream's state and took it along; the
        // teardown verbs that follow must not each wait the budget out.
        if self.broker_lost.load(Ordering::Relaxed) {
            return Err(StreamError::PeerGone {
                stream: stream_name.to_string(),
                reason: format!("the broker at {} is gone", self.dialer.peer()),
            });
        }
        let io = self.dialer.dial(stream_name)?;
        Ok(ClientConn {
            io,
            stream_name: stream_name.to_string(),
            peer: self.dialer.peer(),
            wait_timeout_micros: Arc::clone(&self.wait_timeout_micros),
            read_grace: self.options.read_grace,
            broker_lost: Arc::clone(&self.broker_lost),
        })
    }

    /// Runs one control-channel exchange, redialing if the cached control
    /// connection is gone; the connection is dropped on any error so the
    /// next verb starts clean.
    fn control_exchange(&self, request: &[u8], waiting_for: &str) -> StreamResult<Vec<u8>> {
        let mut guard = lock(&self.control);
        if guard.is_none() {
            let mut conn = self.client_conn("<control>")?;
            conn.send(&[HELLO_CONTROL])?;
            conn.expect_ok("control handshake")?;
            *guard = Some(conn);
        }
        let conn = guard.as_mut().expect("control connection just installed");
        let result = conn.send(request).and_then(|()| conn.recv(waiting_for));
        if result.is_err() {
            *guard = None;
        }
        result
    }

    fn control_ok(&self, request: &[u8], waiting_for: &str) -> StreamResult<()> {
        let payload = self.control_exchange(request, waiting_for)?;
        parse_reply(&payload, REPLY_OK, "<control>", |_| Ok(()))
    }

    fn broker_metrics(&self) -> StreamResult<Vec<StreamMetrics>> {
        let payload = self.control_exchange(&[C_METRICS], "metrics snapshot")?;
        parse_reply(&payload, REPLY_METRICS, "<control>", |cur| {
            (0..get_u32(cur, "metrics count")?)
                .map(|_| decode_metrics(cur))
                .collect()
        })
    }
}

struct TcpWriter {
    io: Result<ClientConn, StreamError>,
    stream: String,
    counters: Arc<Counters>,
    /// Protocol revision the broker accepted for this connection.
    proto: WireProtocol,
    /// Payload codec the broker accepted (always `None` under v1).
    compression: Compression,
    /// This connection's interning table (v2): definitions below
    /// `defs_sent` have already been framed.
    table: MetaInternTable,
    defs_sent: u32,
    /// Encoded definitions pending for the open step (v2).
    defs: Vec<u8>,
    ndefs: u32,
    /// Chunks of the open step, encoded as they are put; flushed as one
    /// `W_STEP` frame at `end_step` (writer-side batching).
    batch: Vec<u8>,
    nchunks: u32,
    /// Payload bytes of the open step before/after the codec.
    step_raw: u64,
    step_wire: u64,
    /// An encode failure is not a refusal of the group protocol, which
    /// `StreamWriter::put` panics on: it is stashed here and surfaces from
    /// `end_step`, where the run loop handles errors.
    encode_failure: Option<String>,
    tracer: Arc<Tracer>,
    trace_id: u32,
    rank: usize,
}

impl TcpWriter {
    fn conn(&mut self) -> StreamResult<&mut ClientConn> {
        match &mut self.io {
            Ok(conn) => Ok(conn),
            Err(e) => Err(e.clone()),
        }
    }

    fn put_interned(&mut self, chunk: &Chunk) -> sb_data::DataResult<()> {
        let id = self.table.intern(&chunk.meta)?;
        if self.table.len() > self.defs_sent {
            self.ndefs += self.table.append_defs_since(self.defs_sent, &mut self.defs);
            self.defs_sent = self.table.len();
        }
        let enc = encode_chunk_interned(&mut self.batch, chunk, id, self.compression)?;
        self.step_raw += enc.raw_payload as u64;
        self.step_wire += enc.wire_payload as u64;
        Ok(())
    }
}

impl WriterEndpoint for TcpWriter {
    fn begin_step(&mut self, _step: u64) -> StreamResult<()> {
        // Nothing goes out: the broker waits for buffer space when the step
        // arrives, and answers for it in `end_step`'s one reply.
        self.conn().map(drop)
    }

    fn put(&mut self, _step: u64, chunk: Chunk) -> StreamResult<()> {
        if self.encode_failure.is_some() {
            return Ok(());
        }
        let result = match self.proto {
            WireProtocol::V1 => encode_chunk(&mut self.batch, &chunk),
            WireProtocol::V2 => self.put_interned(&chunk),
        };
        match result {
            Ok(()) => self.nchunks += 1,
            Err(e) => self.encode_failure = Some(e.to_string()),
        }
        Ok(())
    }

    fn end_step(&mut self, step: u64) -> StreamResult<()> {
        if let Some(detail) = self.encode_failure.take() {
            // Drop the poisoned batch but keep any pending defs: their ids
            // are already marked sent in `defs_sent`, so they must still
            // ride along with the next step that does go out.
            self.batch.clear();
            self.nchunks = 0;
            self.step_raw = 0;
            self.step_wire = 0;
            return Err(StreamError::PeerGone {
                stream: self.stream.clone(),
                reason: format!("unencodable chunk: {detail}"),
            });
        }
        // The frame goes out as slices of the buffers it was built in; the
        // batch is cleared afterwards, not taken, so the next step encodes
        // into capacity this one already paid for.
        let nchunks = std::mem::take(&mut self.nchunks);
        let ndefs = std::mem::take(&mut self.ndefs);
        let (step_raw, step_wire) = (self.step_raw, self.step_wire);
        self.step_raw = 0;
        self.step_wire = 0;
        let mut head = vec![W_STEP];
        put_u64(&mut head, step);
        if self.proto == WireProtocol::V2 {
            put_u32(&mut head, ndefs);
            // The writer-hop payload is encoded here, so this side charges
            // the compression ledger (the broker charges only what it has
            // to encode itself).
            self.counters
                .add_compression(step_raw as usize, step_wire as usize);
            if step_wire < step_raw {
                self.tracer.instant(
                    EventKind::Compressed,
                    TraceSite::stream(self.trace_id, self.rank, step),
                    step_raw - step_wire,
                );
            }
        }
        let count = nchunks.to_le_bytes();
        let parts: [&[u8]; 4] = [&head, &self.defs, &count, &self.batch];
        let sent = match &mut self.io {
            Ok(conn) => conn.send_parts(&parts),
            Err(e) => Err(e.clone()),
        };
        self.defs.clear();
        self.batch.clear();
        sent?;
        self.conn()?.expect_ok("step commit")
    }

    fn close(&mut self) {
        if let Ok(conn) = &mut self.io {
            // Wait for the ack so the close is durable broker-side before
            // this process may exit.
            let _ = conn.send(&[W_CLOSE]);
            let _ = conn.expect_ok("close acknowledgement");
        }
    }

    fn abandon(&mut self) {
        if let Ok(conn) = &mut self.io {
            // Explicit *silent* terminator: the broker must not treat the
            // imminent connection drop as a noisy disconnect — the
            // supervisor owns the failure.
            let _ = conn.send(&[W_ABANDON, 0]);
        }
    }

    fn disconnect(&mut self) {
        if let Ok(conn) = &mut self.io {
            let _ = conn.send(&[W_ABANDON, 1]);
        }
    }
}

struct TcpReader {
    io: Result<ClientConn, StreamError>,
    /// Protocol revision the broker accepted for this connection.
    proto: WireProtocol,
    /// Definitions applied so far (v2 interning, per connection).
    defs: MetaDefs,
    /// Step a `R_BEGIN` is in flight for (reader-side prefetch).
    pending: Option<u64>,
    eos: bool,
    fetched: u64,
}

impl ReaderEndpoint for TcpReader {
    fn fetch_step(&mut self, step: u64) -> StreamResult<Option<StepContents>> {
        if self.eos {
            return Ok(None);
        }
        let conn = match &mut self.io {
            Ok(conn) => conn,
            Err(e) => return Err(e.clone()),
        };
        if self.pending != Some(step) {
            // Not prefetched: the connection's first step, or the open step
            // asked for again. No boxes, so the reply is the whole step.
            let mut req = vec![R_BEGIN];
            put_u64(&mut req, step);
            conn.send(&req)?;
            self.pending = Some(step);
        }
        let payload = conn.recv("a committed step")?;
        self.pending = None;
        if payload.first() == Some(&REPLY_EOS) {
            self.eos = true;
            return Ok(None);
        }
        let (proto, defs) = (self.proto, &mut self.defs);
        let (got, chunks) = parse_reply(&payload, REPLY_STEP, &conn.stream_name, |cur| {
            let got = get_u64(cur, "step id")?;
            Ok((got, decode_step_body(&payload, cur, proto, defs)?))
        })?;
        if got != step {
            return Err(proto_gone(
                &conn.stream_name,
                format!("broker sent step {got}, expected {step}"),
            ));
        }
        let mut vars: BTreeMap<String, VarSlot> = BTreeMap::new();
        for (chunk, _) in chunks {
            vars.entry(chunk.meta.name.clone())
                .or_insert_with(|| VarSlot {
                    meta: chunk.meta.clone(),
                    chunks: Vec::new(),
                })
                .chunks
                .push(chunk);
        }
        self.fetched += 1;
        Ok(Some(Arc::new(vars)))
    }

    fn release_step(&mut self, step: u64, boxes: &[(String, Region)]) -> StreamResult<()> {
        if self.eos {
            return Ok(());
        }
        if let Ok(conn) = &mut self.io {
            let mut release = vec![R_RELEASE];
            put_u64(&mut release, step);
            // Prefetch: pipeline the request for the next step, in the same
            // write, so the broker can push it while this rank computes. It
            // names the boxes this step read; v1 replies are never cut.
            let mut next = Vec::with_capacity(64);
            put_u8(&mut next, R_BEGIN);
            put_u64(&mut next, step + 1);
            if self.proto == WireProtocol::V2 && !boxes.is_empty() {
                let bare = next.len();
                if encode_boxes(&mut next, boxes).is_err() {
                    next.truncate(bare);
                }
            }
            // A broken connection surfaces from the next fetch instead.
            if conn.send_frames(&[&[&release], &[&next]]).is_ok() {
                self.pending = Some(step + 1);
            }
        }
        Ok(())
    }

    fn committed_steps(&self) -> u64 {
        // The broker holds the authoritative counter; locally we know how
        // many steps this rank has already received.
        self.fetched
    }
}

impl Transport for TcpTransport {
    fn backend(&self) -> &'static str {
        self.dialer.backend()
    }

    fn open_writer(
        &self,
        name: &str,
        rank: usize,
        nranks: usize,
        options: WriterOptions,
    ) -> StreamResult<WriterConnection> {
        let trace_id = self.tracer.intern(name);
        let counters = self.stream_counters(name);
        let opened = (|| -> StreamResult<(ClientConn, u64, WireProtocol, Compression)> {
            let mut conn = self.client_conn(name)?;
            let mut hello = vec![HELLO_WRITER];
            put_str(&mut hello, name).map_err(|e| proto_gone(name, e))?;
            put_u32(&mut hello, rank as u32);
            put_u32(&mut hello, nranks as u32);
            put_u32(&mut hello, options.queue_capacity as u32);
            put_u8(&mut hello, options.rendezvous as u8);
            put_u32(&mut hello, options.expected_reader_groups as u32);
            put_u8(&mut hello, self.options.protocol.tag());
            put_u8(&mut hello, self.options.compression.tag());
            conn.send(&hello)?;
            let payload = conn.recv("writer registration")?;
            let (start, (proto, comp)) = parse_reply(&payload, REPLY_STARTED, name, |cur| {
                Ok((get_u64(cur, "start step")?, negotiated(cur)?))
            })?;
            Ok((conn, start, proto, comp))
        })();
        let (io, start_step, proto, compression) = match opened {
            Ok((conn, start, proto, comp)) => (Ok(conn), start, proto, comp),
            // A failed open is stored and surfaces from the first
            // begin_step, where the run loop handles it.
            Err(e) => (Err(e), 0, WireProtocol::V1, Compression::None),
        };
        Ok(WriterConnection {
            endpoint: Box::new(TcpWriter {
                io,
                stream: name.to_string(),
                counters: Arc::clone(&counters),
                proto,
                compression,
                table: MetaInternTable::default(),
                defs_sent: 0,
                defs: Vec::new(),
                ndefs: 0,
                batch: Vec::new(),
                nchunks: 0,
                step_raw: 0,
                step_wire: 0,
                encode_failure: None,
                tracer: Arc::clone(&self.tracer),
                trace_id,
                rank,
            }),
            start_step,
            tracer: Arc::clone(&self.tracer),
            trace_id,
            counters,
        })
    }

    fn open_reader(
        &self,
        name: &str,
        group: &str,
        rank: usize,
        nranks: usize,
    ) -> StreamResult<ReaderConnection> {
        let trace_id = self.tracer.intern(name);
        let counters = self.stream_counters(name);
        let opened = (|| -> StreamResult<(ClientConn, u64, WireProtocol)> {
            let mut conn = self.client_conn(name)?;
            let mut hello = vec![HELLO_READER];
            put_str(&mut hello, name).map_err(|e| proto_gone(name, e))?;
            put_str(&mut hello, group).map_err(|e| proto_gone(name, e))?;
            put_u32(&mut hello, rank as u32);
            put_u32(&mut hello, nranks as u32);
            put_u8(&mut hello, self.options.protocol.tag());
            put_u8(&mut hello, self.options.compression.tag());
            conn.send(&hello)?;
            let payload = conn.recv("reader registration")?;
            let (first, (proto, _comp)) = parse_reply(&payload, REPLY_STARTED, name, |cur| {
                Ok((get_u64(cur, "first step")?, negotiated(cur)?))
            })?;
            Ok((conn, first, proto))
        })();
        let (io, first_step, proto, pending) = match opened {
            Ok((mut conn, first, proto)) => {
                // Prefetch the first step right away.
                let mut req = vec![R_BEGIN];
                put_u64(&mut req, first);
                let pending = conn.send(&req).is_ok().then_some(first);
                (Ok(conn), first, proto, pending)
            }
            Err(e) => (Err(e), 0, WireProtocol::V1, None),
        };
        Ok(ReaderConnection {
            learns_boxes: io.is_ok() && proto == WireProtocol::V2,
            endpoint: Box::new(TcpReader {
                io,
                proto,
                defs: MetaDefs::default(),
                pending,
                eos: false,
                fetched: 0,
            }),
            first_step,
            tracer: Arc::clone(&self.tracer),
            trace_id,
            counters,
        })
    }

    fn stream_names(&self) -> Vec<String> {
        match self.broker_metrics() {
            Ok(all) => all.into_iter().map(|m| m.stream).collect(),
            Err(_) => {
                let mut names: Vec<String> = lock(&self.counters).keys().cloned().collect();
                names.sort();
                names
            }
        }
    }

    fn metrics(&self, name: &str) -> Option<StreamMetrics> {
        self.all_metrics().into_iter().find(|m| m.stream == name)
    }

    fn all_metrics(&self) -> Vec<StreamMetrics> {
        let local = lock(&self.counters);
        match self.broker_metrics() {
            Ok(mut all) => {
                for m in &mut all {
                    if let Some(counters) = local.get(&m.stream) {
                        counters.merge_into(m);
                    }
                }
                all.sort_by(|a, b| a.stream.cmp(&b.stream));
                all
            }
            // Broker unreachable (teardown): serve what this process saw,
            // which is no wire hop — only the broker sessions meter those.
            Err(_) => {
                let mut out: Vec<StreamMetrics> =
                    local.iter().map(|(name, c)| c.snapshot(name)).collect();
                out.sort_by(|a, b| a.stream.cmp(&b.stream));
                out
            }
        }
    }

    fn poison_all(&self, reason: &str) {
        // The control verbs are fire-and-forget; an unframeable argument
        // degrades to a skipped verb, never a client panic.
        let mut req = vec![C_POISON];
        if put_str(&mut req, reason).is_ok() {
            let _ = self.control_ok(&req, "poison acknowledgement");
        }
    }

    fn force_end_of_stream(&self, name: &str) {
        let mut req = vec![C_FORCE_EOS];
        if put_str(&mut req, name).is_ok() {
            let _ = self.control_ok(&req, "forced EOS acknowledgement");
        }
    }

    fn detach_reader_group(&self, name: &str, group: &str) {
        let mut req = vec![C_DETACH];
        if put_str(&mut req, name)
            .and_then(|()| put_str(&mut req, group))
            .is_ok()
        {
            let _ = self.control_ok(&req, "detach acknowledgement");
        }
    }

    fn prepare_restart(&self, inputs: &[(String, String)], outputs: &[String]) {
        let mut req = vec![C_RESTART];
        let framed = (|| -> DataResult<()> {
            put_u32(&mut req, inputs.len() as u32);
            for (stream, group) in inputs {
                put_str(&mut req, stream)?;
                put_str(&mut req, group)?;
            }
            put_u32(&mut req, outputs.len() as u32);
            for stream in outputs {
                put_str(&mut req, stream)?;
            }
            Ok(())
        })();
        if framed.is_ok() {
            let _ = self.control_ok(&req, "restart preparation acknowledgement");
        }
    }

    fn set_wait_timeout(&self, timeout: Duration) {
        let mut req = vec![C_SET_TIMEOUT];
        put_u64(&mut req, timeout.as_micros() as u64);
        let _ = self.control_ok(&req, "timeout acknowledgement");
    }
}

// ---- broker side ---------------------------------------------------------

/// Decrements the active-connection gauge even if the session panics.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// How long the accept loop rests after a failed `accept`. A persistent
/// failure (out of file descriptors) would otherwise spin a core.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// What [`TcpBroker`] and [`crate::shm::ShmBroker`] share: the fronted hub,
/// a blocking accept loop, one session thread per connection, and the
/// connection gauges. The brokers differ only in the listener they bind.
pub(crate) struct BrokerCore {
    hub: Arc<StreamHub>,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    seen: Arc<AtomicUsize>,
    relays: Arc<RelayTable>,
    accept: Option<JoinHandle<()>>,
}

impl BrokerCore {
    /// Refuses a hub that is itself a remote client (`who` names the broker
    /// type in the error).
    pub(crate) fn require_inproc(hub: &StreamHub, who: &str) -> io::Result<()> {
        if hub.backend() == "inproc" {
            return Ok(());
        }
        Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("{who} must front an in-proc hub, not another remote transport"),
        ))
    }

    /// Starts the accept thread (`sb-<fabric>-broker`): every connection
    /// `accept` yields is served on a thread of its own
    /// (`sb-<fabric>-session`) until its client hangs up. `shm` is
    /// [`serve_session`]'s fabric flag.
    pub(crate) fn start<S: FrameIo + 'static>(
        hub: Arc<StreamHub>,
        shm: bool,
        mut accept: impl FnMut() -> io::Result<S> + Send + 'static,
    ) -> io::Result<BrokerCore> {
        let fabric = if shm { "shm" } else { "tcp" };
        let shutdown = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let seen = Arc::new(AtomicUsize::new(0));
        let relays = Arc::new(RelayTable::default());
        let thread = {
            let hub = Arc::clone(&hub);
            let shutdown = Arc::clone(&shutdown);
            let active = Arc::clone(&active);
            let seen = Arc::clone(&seen);
            let relays = Arc::clone(&relays);
            std::thread::Builder::new()
                .name(format!("sb-{fabric}-broker"))
                .spawn(move || loop {
                    let sock = accept();
                    if shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(mut sock) = sock else {
                        std::thread::sleep(ACCEPT_BACKOFF);
                        continue;
                    };
                    active.fetch_add(1, Ordering::SeqCst);
                    seen.fetch_add(1, Ordering::SeqCst);
                    let guard = ConnGuard(Arc::clone(&active));
                    let hub = Arc::clone(&hub);
                    let relays = Arc::clone(&relays);
                    let _ = std::thread::Builder::new()
                        .name(format!("sb-{fabric}-session"))
                        .spawn(move || {
                            let _guard = guard;
                            let _ = serve_session(&hub, &relays, &mut sock, shm);
                        });
                })?
        };
        Ok(BrokerCore {
            hub,
            shutdown,
            active,
            seen,
            relays,
            accept: Some(thread),
        })
    }

    pub(crate) fn hub(&self) -> &Arc<StreamHub> {
        &self.hub
    }

    pub(crate) fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    pub(crate) fn connections_seen(&self) -> usize {
        self.seen.load(Ordering::SeqCst)
    }

    /// Stops accepting: raises the flag and has `wake` unblock the pending
    /// `accept` with one last connection. Returns whether this call did the
    /// stopping (`false` on a repeat). If the wake-up cannot reach the
    /// listener, the accept thread is left parked rather than joined forever.
    pub(crate) fn stop(&mut self, wake: impl FnOnce() -> io::Result<()>) -> bool {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return false;
        }
        let woken = wake().is_ok();
        if let Some(accept) = self.accept.take() {
            if woken {
                let _ = accept.join();
            }
        }
        true
    }
}

/// The broker: an accept loop serving a local in-proc [`StreamHub`] to
/// remote processes over framed TCP.
///
/// One thread per connection; frames on a connection are strictly ordered,
/// so each endpoint's protocol needs no further synchronization. All
/// queueing, backpressure, rendezvous, and supervision state lives in the
/// fronted hub — remote endpoints observe exactly the in-proc semantics.
pub struct TcpBroker {
    core: BrokerCore,
    addr: SocketAddr,
}

impl TcpBroker {
    /// Binds `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) in front
    /// of a fresh in-proc hub.
    pub fn bind(addr: &str) -> io::Result<TcpBroker> {
        Self::serve(StreamHub::new(), addr)
    }

    /// Binds `addr` in front of an existing in-proc hub — the broker
    /// process can then also run components of its own on `hub` directly.
    pub fn serve(hub: Arc<StreamHub>, addr: &str) -> io::Result<TcpBroker> {
        BrokerCore::require_inproc(&hub, "a TcpBroker")?;
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let core = BrokerCore::start(hub, false, move || {
            let (sock, _) = listener.accept()?;
            let _ = sock.set_nodelay(true);
            Ok(sock)
        })?;
        Ok(TcpBroker { core, addr })
    }

    /// Steps of `stream` the relay cache currently holds encoded bytes for
    /// (diagnostics: between relay operations at most the steps the hub
    /// buffers, and 0 once a remote reader has been told end of stream).
    #[doc(hidden)]
    pub fn relay_cached_steps(&self, stream: &str) -> usize {
        let relay = lock(&self.core.relays.streams).get(stream).cloned();
        relay.map_or(0, |relay| lock(&relay.inner).steps.len())
    }

    /// The bound address (with the resolved ephemeral port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The `tcp://…` URL remote hubs connect to.
    pub fn url(&self) -> String {
        format!("tcp://{}", self.addr)
    }

    /// The fronted in-proc hub.
    pub fn hub(&self) -> &Arc<StreamHub> {
        self.core.hub()
    }

    /// Currently open client connections (endpoints plus control channels).
    pub fn active_connections(&self) -> usize {
        self.core.active_connections()
    }

    /// Total connections ever accepted. Monotonic, so unlike
    /// [`active_connections`](Self::active_connections) a poll loop cannot
    /// miss a client that connected and left between two samples.
    pub fn connections_seen(&self) -> usize {
        self.core.connections_seen()
    }

    /// Stops accepting connections; existing sessions run until their
    /// clients hang up.
    pub fn shutdown(&mut self) {
        let addr = self.addr;
        self.core
            .stop(|| TcpStream::connect_timeout(&addr, Duration::from_secs(1)).map(drop));
    }
}

impl Drop for TcpBroker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn session_err(detail: impl ToString) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail.to_string())
}

/// Sends one reply frame, returning the frame bytes that crossed the
/// fabric. The caller charges them to the hop-appropriate wire counter —
/// there is no counter parameter precisely so no call site can charge the
/// wrong hop silently.
fn reply(io: &mut dyn FrameIo, payload: &[u8]) -> io::Result<usize> {
    io.send_frame(payload)
}

fn reply_result(io: &mut dyn FrameIo, result: StreamResult<()>) -> io::Result<usize> {
    match result {
        Ok(()) => reply(io, &[REPLY_OK]),
        Err(e) => {
            let mut buf = Vec::with_capacity(128);
            encode_err(&mut buf, &e);
            reply(io, &buf)
        }
    }
}

/// Answers a hello the hub refused with the refusal, which the client's
/// open stores, and ends the session: nothing was registered.
fn refuse(io: &mut dyn FrameIo, refused: StreamError) -> io::Result<()> {
    let detail = refused.to_string();
    reply_result(io, Err(refused))?;
    Err(session_err(detail))
}

/// Charges one session's frame bytes to its hop counter, attributing them
/// to the shm fabric ledger too when the session runs over the same-host
/// fabric (see [`Counters::add_wire_shm`]).
#[derive(Clone, Copy)]
enum Hop {
    Writer,
    Reader,
}

struct HopLedger {
    counters: Arc<Counters>,
    hop: Hop,
    shm: bool,
}

impl HopLedger {
    fn charge(&self, bytes: usize) {
        match self.hop {
            Hop::Writer => self.counters.add_wire_writer(bytes),
            Hop::Reader => self.counters.add_wire_reader(bytes),
        }
        if self.shm {
            self.counters.add_wire_shm(bytes);
        }
    }
}

// ---- broker relay cache (protocol v2) -------------------------------------

/// Broker-side per-stream relay state: the shared interning table plus the
/// cache of encoded chunks. One per broker, keyed by stream name.
#[derive(Default)]
pub(crate) struct RelayTable {
    streams: Mutex<HashMap<String, Arc<StreamRelay>>>,
}

impl RelayTable {
    fn stream(&self, name: &str) -> Arc<StreamRelay> {
        Arc::clone(lock(&self.streams).entry(name.to_string()).or_default())
    }
}

/// One stream's relay state, shared by its writer and reader sessions.
#[derive(Default)]
struct StreamRelay {
    inner: Mutex<RelayInner>,
    /// Set at the hello of the stream's first v2 reader session and never
    /// cleared: until then nobody could use a writer's frame, so writer
    /// sessions seed nothing. It publishes no other data (`Relaxed`): a
    /// writer that sees it late costs a reader one encode, never a wrong
    /// byte.
    read_remotely: AtomicBool,
}

#[derive(Default)]
struct RelayInner {
    /// Definitions interned across the whole stream — ids are global to
    /// the broker side, and each session tracks its own high-water mark of
    /// ids already sent.
    table: MetaInternTable,
    /// Encoded chunks by step: only steps the hub still buffers (see
    /// [`StreamRelay::retire`]).
    steps: BTreeMap<u64, Vec<CachedChunk>>,
}

/// A run of bytes inside a shared buffer: a writer's received `W_STEP`
/// frame, or the output of one broker-side encode.
#[derive(Clone)]
struct Segment {
    buf: Arc<Vec<u8>>,
    range: Range<usize>,
}

impl Segment {
    fn bytes(&self) -> &[u8] {
        &self.buf[self.range.clone()]
    }

    fn owning(buf: Vec<u8>) -> Segment {
        Segment {
            range: 0..buf.len(),
            buf: Arc::new(buf),
        }
    }
}

/// Cuts the row slab `part` out of a cached `ichunk` that carries `whole`
/// raw: a fresh header (`id | part | nelems | codec None`) and the run of
/// the cached payload `part` occupies, shared, not copied. `None` when the
/// payload is LZ-coded, which has no addressable rows.
fn slab_of(cached: &CachedChunk, elem_bytes: usize, part: &Region) -> Option<[Segment; 2]> {
    let whole = &cached.region;
    // id | u16 rank | (offset, count)* | nelems | codec
    let payload_at = 4 + 2 + 16 * whole.ndims() + 8 + 1;
    let bytes = cached.bytes.bytes();
    let raw = whole.len() * elem_bytes;
    if bytes.len() != payload_at + raw || bytes[payload_at - 1] != Compression::None.tag() {
        return None;
    }
    let row = raw.checked_div(*whole.count().first()?)?;
    let start =
        cached.bytes.range.start + payload_at + (part.offset()[0] - whole.offset()[0]) * row;
    let mut header = Vec::with_capacity(payload_at);
    put_u32(&mut header, cached.id);
    encode_region(&mut header, part).ok()?;
    put_u64(&mut header, part.len() as u64);
    put_u8(&mut header, Compression::None.tag());
    Some([
        Segment::owning(header),
        Segment {
            buf: Arc::clone(&cached.bytes.buf),
            range: start..start + part.count()[0] * row,
        },
    ])
}

/// One chunk's `ichunk` bytes, already carrying its relay-global meta id.
struct CachedChunk {
    /// The relay-global meta id and the region written into `bytes`: one
    /// payload may sit under several variables or regions of a step
    /// (zero-copy forwarding), and each of those is a different chunk.
    id: u32,
    region: Region,
    /// The decoded payload these bytes encode. A committed chunk being a
    /// handle to that very allocation is what proves the bytes are its —
    /// no bookkeeping of ranks, restarts or discarded steps can go stale,
    /// because a stale entry simply never matches. An id, not a handle: the
    /// cache pins the encoded bytes only.
    data: AllocationId,
    /// The codec negotiated by the connection the bytes were encoded for
    /// (not the per-chunk codec byte, which says whether LZ won): v2
    /// readers negotiating different codecs never share bytes they did not
    /// ask for.
    codec: Compression,
    bytes: Segment,
}

/// What [`StreamRelay::reply_step`] hands a reader session to send.
struct StepReply {
    /// `REPLY_STEP | step | ndefs | def* | nchunks`.
    prelude: Vec<u8>,
    /// The chunk bodies, in the step's canonical order: one segment per
    /// chunk sent as cached, a header and a payload run per slab.
    parts: Vec<Segment>,
    /// Payload bytes before/after the codec of the chunks this reply had
    /// to encode itself; `(0, 0)` when every chunk was already cached.
    encoded: (u64, u64),
}

impl StreamRelay {
    /// Drops every cached step below `consumed`, the stream's
    /// `steps_consumed`. That counter is the hub's oldest buffered step —
    /// both move only in `Stream::pop_consumed` — so no reader can fetch an
    /// older step again. Sessions call this before every seed, reply and
    /// release, and with `u64::MAX` before answering end of stream.
    fn retire(&self, consumed: u64) {
        lock(&self.inner).steps.retain(|&step, _| step >= consumed);
    }

    /// Seeds the cache with the chunks of one received `W_STEP` frame, so
    /// readers of `step` are sent the writer's own bytes instead of a
    /// re-encode. `chunks` pairs each decoded chunk with the range of its
    /// `ichunk` bytes inside `frame`; the leading meta id of each — numbered
    /// by the writer's connection — is overwritten in place with the
    /// stream-global id, after which the frame is shared, never copied.
    ///
    /// Writer sessions call it only once a v2 reader has opened the stream
    /// (`read_remotely`): before that nobody could use the bytes, and a
    /// late reader is served by the encode path.
    fn seed(
        &self,
        step: u64,
        comp: Compression,
        mut frame: Vec<u8>,
        chunks: &[(Chunk, Range<usize>)],
    ) {
        let mut inner = lock(&self.inner);
        let mut ids = Vec::with_capacity(chunks.len());
        for (chunk, range) in chunks {
            let Ok(id) = inner.table.intern(&chunk.meta) else {
                return;
            };
            frame[range.start..range.start + 4].copy_from_slice(&id.to_le_bytes());
            ids.push(id);
        }
        let buf = Arc::new(frame);
        let cached = chunks
            .iter()
            .zip(ids)
            .map(|((chunk, range), id)| CachedChunk {
                id,
                region: chunk.region.clone(),
                data: chunk.data.allocation_id(),
                codec: comp,
                bytes: Segment {
                    buf: Arc::clone(&buf),
                    range: range.clone(),
                },
            });
        inner.steps.entry(step).or_default().extend(cached);
    }

    /// Builds the `REPLY_STEP` for `step` out of cached chunk bytes: the
    /// writer's own where [`seed`](Self::seed) supplied them, otherwise an
    /// encode that joins the same cache — so while the step is cached, each
    /// chunk is encoded at most once per codec across all readers, and not
    /// at all on the pass-through path. Only the per-session definition catch-up prelude
    /// and the cut below differ between readers. The lock is held across the
    /// encode, which is what makes "at most once" exact.
    ///
    /// A chunk misses when nothing seeded it: its writer is in-proc on the
    /// broker hub or speaks v1, it negotiated a different codec than this
    /// reader, its frame arrived before any v2 reader opened the stream, or
    /// another reader group's end of stream emptied the cache. Finding
    /// a chunk is a scan of the step's cached chunks — one per writer rank
    /// and variable, so a handful.
    ///
    /// `boxes` are the regions the requesting rank expects to read. Of a
    /// variable they name, a chunk that meets none of them is left out, and
    /// one they meet in a proper row slab travels as that slab of the cached
    /// bytes ([`slab_of`]). Everything else travels whole: variables no box
    /// names, variables with a box that does not fit the step's shape, a
    /// variable no chunk of which meets a box (so no reply ever lacks a
    /// variable), chunks met in anything but a row slab, LZ-coded payloads.
    fn reply_step(
        &self,
        step: u64,
        comp: Compression,
        contents: &StepContents,
        boxes: &[(String, Region)],
        defs_seen: &mut u32,
    ) -> sb_data::DataResult<StepReply> {
        let mut guard = lock(&self.inner);
        let inner = &mut *guard;
        let entry = inner.steps.entry(step).or_default();
        // BTreeMap order makes the chunk order canonical, so every reader
        // of a step sees byte-identical chunk bodies.
        let mut parts = Vec::new();
        let mut nchunks = 0u32;
        let mut encoded = (0u64, 0u64);
        for (name, slot) in contents.iter() {
            let mut wanted: Vec<&Region> = boxes
                .iter()
                .filter(|(var, _)| var == name)
                .map(|(_, region)| region)
                .collect();
            if wanted.iter().any(|b| b.validate(&slot.meta.shape).is_err()) {
                wanted.clear();
            }
            // The part of each chunk the boxes meet; all of it if several do.
            let mut cuts: Vec<Option<Region>> = slot
                .chunks
                .iter()
                .map(|chunk| {
                    let mut met = wanted.iter().filter_map(|b| chunk.region.intersect(b));
                    let first = met.next()?;
                    Some(if met.next().is_none() {
                        first
                    } else {
                        chunk.region.clone()
                    })
                })
                .collect();
            if cuts.iter().all(Option::is_none) {
                cuts = slot.chunks.iter().map(|c| Some(c.region.clone())).collect();
            }
            for (chunk, cut) in slot.chunks.iter().zip(cuts) {
                let Some(cut) = cut else { continue };
                // A hit keeps the id it was cached under. Interning again
                // would miss once a later step redefined the variable (the
                // table maps a name to its newest meta) and re-send the
                // definition with a re-encoded chunk.
                let table = &inner.table;
                let hit = entry.iter().position(|c| {
                    c.codec == comp
                        && c.region == chunk.region
                        && c.data.names(&chunk.data)
                        && table.meta(c.id) == Some(&chunk.meta)
                });
                let at = match hit {
                    Some(at) => at,
                    None => {
                        let id = inner.table.intern(&chunk.meta)?;
                        let mut buf = Vec::new();
                        let enc = encode_chunk_interned(&mut buf, chunk, id, comp)?;
                        encoded.0 += enc.raw_payload as u64;
                        encoded.1 += enc.wire_payload as u64;
                        entry.push(CachedChunk {
                            id,
                            region: chunk.region.clone(),
                            data: chunk.data.allocation_id(),
                            codec: comp,
                            bytes: Segment::owning(buf),
                        });
                        entry.len() - 1
                    }
                };
                let cached = &entry[at];
                let slab = (cut != chunk.region && cut.is_row_slab_of(&chunk.region))
                    .then(|| slab_of(cached, chunk.meta.dtype.elem_bytes(), &cut))
                    .flatten();
                match slab {
                    Some(slab) => parts.extend(slab),
                    None => parts.push(cached.bytes.clone()),
                }
                nchunks += 1;
            }
        }

        let mut prelude = Vec::with_capacity(32);
        put_u8(&mut prelude, REPLY_STEP);
        put_u64(&mut prelude, step);
        let ndefs_at = prelude.len();
        put_u32(&mut prelude, 0);
        let ndefs = inner.table.append_defs_since(*defs_seen, &mut prelude);
        prelude[ndefs_at..ndefs_at + 4].copy_from_slice(&ndefs.to_le_bytes());
        *defs_seen = inner.table.len();
        put_u32(&mut prelude, nchunks);
        Ok(StepReply {
            prelude,
            parts,
            encoded,
        })
    }
}

/// Serves one accepted connection over any [`FrameIo`] fabric. `shm` marks
/// sessions accepted on an `shm://` rendezvous so their frame bytes are
/// also attributed to the shm fabric ledger.
pub(crate) fn serve_session(
    hub: &Arc<StreamHub>,
    relays: &Arc<RelayTable>,
    io: &mut dyn FrameIo,
    shm: bool,
) -> io::Result<()> {
    let hello = io.recv_frame()?;
    // The sessions charge the full hello frame to their hop themselves;
    // `hello_len` carries the length because the cursor they parse from is
    // consumed by then.
    let hello_len = 4 + hello.len();
    let mut cur = &hello[..];
    match get_u8(&mut cur, "hello opcode").map_err(session_err)? {
        HELLO_WRITER => writer_session(hub, relays, io, &mut cur, hello_len, shm),
        HELLO_READER => reader_session(hub, relays, io, &mut cur, hello_len, shm),
        HELLO_CONTROL => control_session(hub, io),
        op => Err(session_err(format!("unknown hello opcode {op:#04x}"))),
    }
}

/// Decodes the body of one `W_STEP` or `REPLY_STEP` frame (everything
/// after the step id): the definitions the receiver still lacked, then the
/// chunks, each paired with the range of its bytes inside `frame`.
fn decode_step_body(
    frame: &[u8],
    body: &mut &[u8],
    proto: WireProtocol,
    defs: &mut MetaDefs,
) -> DataResult<Vec<(Chunk, Range<usize>)>> {
    if proto == WireProtocol::V2 {
        for _ in 0..get_u32(body, "def count")? {
            defs.decode_def(body)?;
        }
    }
    let mut chunks = Vec::new();
    for _ in 0..get_u32(body, "chunk count")? {
        let at = frame.len() - body.len();
        let chunk = match proto {
            WireProtocol::V1 => decode_chunk(body)?,
            WireProtocol::V2 => decode_chunk_interned(body, defs)?,
        };
        chunks.push((chunk, at..frame.len() - body.len()));
    }
    Ok(chunks)
}

/// A writer session's endpoint, disconnected on drop unless `W_CLOSE` or
/// `W_ABANDON` terminated it first. However else the session ends — the
/// connection dropped, a reply could not be sent, a frame was malformed —
/// nothing will commit the group's open steps again, so readers must see
/// `PeerGone` now rather than the hub timeout later.
struct DisconnectOnDrop {
    endpoint: Box<dyn WriterEndpoint>,
    defused: bool,
}

impl DisconnectOnDrop {
    /// The endpoint, for the client's own terminator.
    fn defuse(&mut self) -> &mut dyn WriterEndpoint {
        self.defused = true;
        &mut *self.endpoint
    }
}

impl Drop for DisconnectOnDrop {
    fn drop(&mut self) {
        if !self.defused {
            self.endpoint.disconnect();
        }
    }
}

fn writer_session(
    hub: &Arc<StreamHub>,
    relays: &Arc<RelayTable>,
    io: &mut dyn FrameIo,
    hello: &mut &[u8],
    hello_len: usize,
    shm: bool,
) -> io::Result<()> {
    let parsed = (|| -> DataResult<_> {
        Ok((
            get_str(hello, "stream name")?,
            get_u32(hello, "rank")? as usize,
            get_u32(hello, "nranks")? as usize,
            get_u32(hello, "queue capacity")? as usize,
            get_u8(hello, "rendezvous flag")? != 0,
            get_u32(hello, "reader groups")? as usize,
            negotiated(hello)?,
        ))
    })();
    let (name, rank, nranks, queue, rendezvous, groups, (proto, comp)) =
        parsed.map_err(session_err)?;
    if rank >= nranks || queue == 0 || groups == 0 {
        return Err(session_err(format!(
            "invalid writer hello for {name:?}: rank {rank}/{nranks} queue {queue} groups {groups}"
        )));
    }
    let options = WriterOptions::default()
        .with_queue_capacity(queue)
        .with_rendezvous(rendezvous)
        .with_reader_groups(groups);
    let conn = match hub.transport().open_writer(&name, rank, nranks, options) {
        Ok(conn) => conn,
        Err(refused) => return refuse(io, refused),
    };
    let ledger = HopLedger {
        counters: Arc::clone(&conn.counters),
        hop: Hop::Writer,
        shm,
    };
    let mut writer = DisconnectOnDrop {
        endpoint: conn.endpoint,
        defused: false,
    };
    ledger.charge(hello_len);
    // Interned definitions this connection has applied (v2).
    let mut defs = MetaDefs::default();
    let relay = relays.stream(&name);

    let mut started = vec![REPLY_STARTED];
    put_u64(&mut started, conn.start_step);
    put_u8(&mut started, proto.tag());
    put_u8(&mut started, comp.tag());
    ledger.charge(reply(io, &started)?);
    // The one step this connection may send next: the hub takes step
    // numbers on trust, so the sequence is kept here.
    let mut next = conn.start_step;

    loop {
        // A connection that drops without a terminator is a process gone
        // (killed, crashed before abandon): not a session error, and the
        // guard makes it noisy.
        let Ok(payload) = io.recv_frame() else {
            return Ok(());
        };
        ledger.charge(4 + payload.len());
        let mut cur = &payload[..];
        match get_u8(&mut cur, "writer opcode").map_err(session_err)? {
            W_STEP => {
                let step = get_u64(&mut cur, "step").map_err(session_err)?;
                if step != next {
                    return Err(session_err(format!(
                        "writer {rank} of {name:?} sent step {step}, expected {next}"
                    )));
                }
                // Decoded whole before anything can fail, so this
                // connection's definitions stay in step with the writer's.
                let result = match decode_step_body(&payload, &mut cur, proto, &mut defs) {
                    Err(e) => Err(proto_gone(&name, e)),
                    Ok(chunks) => writer.endpoint.begin_step(step).and_then(|()| {
                        // Seeded once the step owns a hub slot, so the cache
                        // spans no more steps than the hub buffers, and
                        // before the commit makes it fetchable, or a fast
                        // reader would miss.
                        let wanted = relay.read_remotely.load(Ordering::Relaxed);
                        if proto == WireProtocol::V2 && wanted {
                            relay.retire(conn.counters.steps_consumed.load(Ordering::Relaxed));
                            relay.seed(step, comp, payload, &chunks);
                        }
                        for (chunk, _) in chunks {
                            writer.endpoint.put(step, chunk)?;
                        }
                        writer.endpoint.end_step(step)
                    }),
                };
                if result.is_ok() {
                    next += 1;
                }
                ledger.charge(reply_result(io, result)?);
            }
            W_CLOSE => {
                writer.defuse().close();
                ledger.charge(reply(io, &[REPLY_OK])?);
                return Ok(());
            }
            W_ABANDON => {
                let noisy = get_u8(&mut cur, "abandon flag").map_err(session_err)? != 0;
                let endpoint = writer.defuse();
                if noisy {
                    endpoint.disconnect();
                } else {
                    endpoint.abandon();
                }
                return Ok(());
            }
            op => return Err(session_err(format!("unknown writer opcode {op:#04x}"))),
        }
    }
}

/// The whole v1 `REPLY_STEP` as one prelude: v1 has no interning to share
/// across readers, so nothing of it is cached.
fn encode_v1_step(step: u64, contents: &StepContents) -> sb_data::DataResult<StepReply> {
    let mut prelude = vec![REPLY_STEP];
    put_u64(&mut prelude, step);
    let nchunks: usize = contents.values().map(|v| v.chunks.len()).sum();
    put_u32(&mut prelude, nchunks as u32);
    let mut raw = 0;
    for chunk in contents.values().flat_map(|slot| &slot.chunks) {
        encode_chunk(&mut prelude, chunk)?;
        raw += chunk.byte_len() as u64;
    }
    Ok(StepReply {
        prelude,
        parts: Vec::new(),
        encoded: (raw, raw),
    })
}

fn reader_session(
    hub: &Arc<StreamHub>,
    relays: &Arc<RelayTable>,
    io: &mut dyn FrameIo,
    hello: &mut &[u8],
    hello_len: usize,
    shm: bool,
) -> io::Result<()> {
    let parsed = (|| -> DataResult<_> {
        Ok((
            get_str(hello, "stream name")?,
            get_str(hello, "reader group")?,
            get_u32(hello, "rank")? as usize,
            get_u32(hello, "nranks")? as usize,
            negotiated(hello)?,
        ))
    })();
    let (name, group, rank, nranks, (proto, comp)) = parsed.map_err(session_err)?;
    if rank >= nranks {
        return Err(session_err(format!(
            "invalid reader hello for {name:?}: rank {rank}/{nranks}"
        )));
    }
    let conn = match hub.transport().open_reader(&name, &group, rank, nranks) {
        Ok(conn) => conn,
        Err(refused) => return refuse(io, refused),
    };
    let counters = conn.counters;
    let ledger = HopLedger {
        counters: Arc::clone(&counters),
        hop: Hop::Reader,
        shm,
    };
    let mut endpoint = conn.endpoint;
    ledger.charge(hello_len);
    let relay = relays.stream(&name);
    if proto == WireProtocol::V2 {
        relay.read_remotely.store(true, Ordering::Relaxed);
    }
    let consumed = || counters.steps_consumed.load(Ordering::Relaxed);
    // Definition ids already sent to this session (v2 catch-up mark).
    let mut defs_seen = 0u32;
    // The step this session last served and has not released yet: the only
    // one it may release. The hub trusts its callers with step numbers.
    let mut held: Option<u64> = None;
    let trace_id = hub.tracer().intern(&name);

    let mut started = vec![REPLY_STARTED];
    put_u64(&mut started, conn.first_step);
    put_u8(&mut started, proto.tag());
    put_u8(&mut started, comp.tag());
    ledger.charge(reply(io, &started)?);

    loop {
        // A reader hanging up mid-stream needs no bookkeeping here: its
        // partial releases are reset by the supervisor on restart, or the
        // group is detached on degrade.
        let payload = io.recv_frame()?;
        ledger.charge(4 + payload.len());
        let mut cur = &payload[..];
        match get_u8(&mut cur, "reader opcode").map_err(session_err)? {
            R_BEGIN => {
                let step = get_u64(&mut cur, "step").map_err(session_err)?;
                let boxes = decode_boxes(&mut cur).map_err(session_err)?;
                match endpoint.fetch_step(step) {
                    Ok(Some(contents)) => {
                        held = Some(step);
                        let built = match proto {
                            // v1 re-sends every chunk self-described.
                            WireProtocol::V1 => encode_v1_step(step, &contents),
                            WireProtocol::V2 => {
                                relay.retire(consumed());
                                relay.reply_step(step, comp, &contents, &boxes, &mut defs_seen)
                            }
                        };
                        match built {
                            Ok(built) => {
                                let (raw, wire) = built.encoded;
                                if proto == WireProtocol::V2 && raw > 0 {
                                    counters.add_compression(raw as usize, wire as usize);
                                    if wire < raw {
                                        hub.tracer().instant(
                                            EventKind::Compressed,
                                            TraceSite::stream(trace_id, rank, step),
                                            raw - wire,
                                        );
                                    }
                                }
                                let mut parts = vec![&built.prelude[..]];
                                parts.extend(built.parts.iter().map(Segment::bytes));
                                let sent = io.send_frame_parts(&parts)?;
                                ledger.charge(sent);
                                let kind = if raw > 0 {
                                    EventKind::RelayEncoded
                                } else {
                                    EventKind::RelayPassThrough
                                };
                                hub.tracer().instant(
                                    kind,
                                    TraceSite::stream(trace_id, rank, step),
                                    sent as u64,
                                );
                            }
                            Err(e) => {
                                let mut buf = Vec::with_capacity(128);
                                let gone = proto_gone(&name, format!("unencodable step: {e}"));
                                encode_err(&mut buf, &gone);
                                ledger.charge(reply(io, &buf)?);
                            }
                        }
                    }
                    Ok(None) => {
                        // A group that lags this one pays at most an encode
                        // per step it still fetches.
                        relay.retire(u64::MAX);
                        ledger.charge(reply(io, &[REPLY_EOS])?);
                    }
                    Err(e) => {
                        let mut buf = Vec::with_capacity(128);
                        encode_err(&mut buf, &e);
                        ledger.charge(reply(io, &buf)?);
                    }
                }
            }
            R_RELEASE => {
                let step = get_u64(&mut cur, "step").map_err(session_err)?;
                if held.take() != Some(step) {
                    return Err(session_err(format!(
                        "reader {rank} of {group:?} released step {step} of {name:?}, \
                         which this connection does not hold"
                    )));
                }
                endpoint.release_step(step, &[]).map_err(session_err)?;
                relay.retire(consumed());
            }
            op => return Err(session_err(format!("unknown reader opcode {op:#04x}"))),
        }
    }
}

fn control_session(hub: &Arc<StreamHub>, io: &mut dyn FrameIo) -> io::Result<()> {
    reply(io, &[REPLY_OK])?;
    loop {
        let payload = match io.recv_frame() {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let mut cur = &payload[..];
        match get_u8(&mut cur, "control opcode").map_err(session_err)? {
            C_POISON => {
                let reason = get_str(&mut cur, "poison reason").map_err(session_err)?;
                hub.poison_all(&reason);
                reply(io, &[REPLY_OK])?;
            }
            C_FORCE_EOS => {
                let name = get_str(&mut cur, "stream name").map_err(session_err)?;
                hub.force_end_of_stream(&name);
                reply(io, &[REPLY_OK])?;
            }
            C_DETACH => {
                let parsed = get_str(&mut cur, "stream name")
                    .and_then(|name| Ok((name, get_str(&mut cur, "reader group")?)));
                let (name, group) = parsed.map_err(session_err)?;
                hub.detach_reader_group(&name, &group);
                reply(io, &[REPLY_OK])?;
            }
            C_RESTART => {
                let parsed = (|| -> DataResult<_> {
                    let nin = get_u32(&mut cur, "input count")?;
                    let mut inputs = Vec::with_capacity((nin as usize).min(1024));
                    for _ in 0..nin {
                        let stream = get_str(&mut cur, "input stream")?;
                        inputs.push((stream, get_str(&mut cur, "input group")?));
                    }
                    let nout = get_u32(&mut cur, "output count")?;
                    let outputs: Vec<String> = (0..nout)
                        .map(|_| get_str(&mut cur, "output stream"))
                        .collect::<DataResult<_>>()?;
                    Ok((inputs, outputs))
                })();
                let (inputs, outputs) = parsed.map_err(session_err)?;
                hub.prepare_restart(&inputs, &outputs);
                reply(io, &[REPLY_OK])?;
            }
            C_SET_TIMEOUT => {
                let micros = get_u64(&mut cur, "timeout").map_err(session_err)?;
                hub.set_wait_timeout(Duration::from_micros(micros));
                reply(io, &[REPLY_OK])?;
            }
            C_METRICS => {
                let all = hub.all_metrics();
                // Each entry is framed into a scratch buffer first so one
                // unframeable stream name drops that entry, not the reply.
                let mut bodies = Vec::with_capacity(all.len());
                for m in &all {
                    let mut body = Vec::with_capacity(128);
                    if encode_metrics(&mut body, m).is_ok() {
                        bodies.push(body);
                    }
                }
                let mut buf = Vec::with_capacity(64 + bodies.len() * 128);
                put_u8(&mut buf, REPLY_METRICS);
                put_u32(&mut buf, bodies.len() as u32);
                for body in &bodies {
                    buf.extend_from_slice(body);
                }
                reply(io, &buf)?;
            }
            op => return Err(session_err(format!("unknown control opcode {op:#04x}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::StepStatus;
    use sb_data::{Buffer, DType, Shape, SharedBuffer, Variable};

    fn var(vals: Vec<f64>) -> Variable {
        Variable::new("x", Shape::linear("n", vals.len()), Buffer::F64(vals)).unwrap()
    }

    #[test]
    fn oversized_protocol_string_is_an_error_not_a_panic() {
        // Regression: the protocol-string putter used to `.expect()` on the
        // u32 length check, panicking the client thread on an oversized
        // stream or group name. Every framed string's length now passes the
        // one gate `put_str` shares with every encoded count, exercised by
        // injection — nobody allocates a >4 GiB name in a test.
        assert_eq!(fits::<u32>(0, "string length"), Ok(0));
        assert_eq!(
            fits::<u32>(u32::MAX as usize, "string length"),
            Ok(u32::MAX)
        );
        let err = fits::<u32>(u32::MAX as usize + 1, "string length").unwrap_err();
        assert!(
            err.to_string().contains("does not fit the u32 wire field"),
            "{err}"
        );
        assert!(fits::<u32>(usize::MAX, "string length").is_err());
        // A client surfaces it as a typed error of the stream it framed for.
        let gone = proto_gone("t.fp", err);
        assert!(matches!(&gone, StreamError::PeerGone { stream, .. } if stream == "t.fp"));
    }

    #[test]
    fn unframeable_error_reply_degrades_to_constant_peer_gone() {
        // An error whose strings cannot be framed must still produce a
        // decodable reply; the fallback is byte-built without `put_str`.
        let mut buf = Vec::new();
        const DETAIL: &str = "unframeable error reply";
        put_u8(&mut buf, REPLY_ERR_PEER_GONE);
        put_u32(&mut buf, 0);
        put_u32(&mut buf, DETAIL.len() as u32);
        buf.extend_from_slice(DETAIL.as_bytes());
        let mut cur = &buf[..];
        let op = get_u8(&mut cur, "reply opcode").unwrap();
        let err = decode_err(op, &mut cur).unwrap();
        match err {
            StreamError::PeerGone { stream, reason } => {
                assert_eq!(stream, "");
                assert_eq!(reason, DETAIL);
            }
            other => panic!("expected PeerGone, got {other:?}"),
        }
    }

    #[test]
    fn tcp_round_trip_single_stream() {
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        let hub = StreamHub::connect(&broker.url()).unwrap();
        assert_eq!(hub.backend(), "tcp");

        let mut w = hub.open_writer("t.fp", 0, 1, WriterOptions::default());
        for step in 0..3 {
            w.begin_step().unwrap();
            w.put_whole(var(vec![step as f64, 1.0, 2.0]));
            w.end_step().unwrap();
        }
        w.close();

        let mut r = hub.open_reader("t.fp", 0, 1);
        for step in 0..3 {
            assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(step));
            let v = r.get_whole("x").unwrap();
            assert_eq!(v.data.to_f64_vec(), vec![step as f64, 1.0, 2.0]);
            r.end_step();
        }
        assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);

        let metrics = hub.metrics("t.fp").unwrap();
        assert_eq!(metrics.steps_committed, 3);
        assert!(metrics.bytes_on_wire > 0, "wire bytes must be counted");
    }

    #[test]
    fn tcp_mxn_redistribution_across_connections() {
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        let hub = StreamHub::connect(&broker.url()).unwrap();

        // Two writer ranks, each holding half the rows of a 4x3 array.
        let writers: Vec<_> = (0..2)
            .map(|rank| {
                let hub = Arc::clone(&hub);
                std::thread::spawn(move || {
                    let mut w = hub.open_writer("m.fp", rank, 2, WriterOptions::default());
                    let meta = sb_data::VariableMeta::new(
                        "grid",
                        Shape::of(&[("rows", 4), ("cols", 3)]),
                        sb_data::DType::F64,
                    );
                    let base = rank * 2;
                    let data: Vec<f64> = (0..6).map(|i| (base * 3 + i) as f64).collect();
                    let chunk = Chunk::new(
                        meta,
                        Region::new(vec![base, 0], vec![2, 3]),
                        Buffer::F64(data),
                    )
                    .unwrap();
                    w.begin_step().unwrap();
                    w.put(chunk);
                    w.end_step().unwrap();
                    w.close();
                })
            })
            .collect();

        let mut r = hub.open_reader("m.fp", 0, 1);
        assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
        let v = r.get_whole("grid").unwrap();
        assert_eq!(
            v.data.to_f64_vec(),
            (0..12).map(|i| i as f64).collect::<Vec<_>>()
        );
        r.end_step();
        assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);
        for w in writers {
            w.join().unwrap();
        }
    }

    #[test]
    fn killed_connection_surfaces_peer_gone_promptly() {
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        broker.hub().set_wait_timeout(Duration::from_secs(30));
        let hub = StreamHub::connect(&broker.url()).unwrap();
        hub.set_wait_timeout(Duration::from_secs(30));

        let mut w = hub.open_writer("k.fp", 0, 1, WriterOptions::default());
        w.begin_step().unwrap();
        w.put_whole(var(vec![1.0]));
        w.end_step().unwrap();
        // Simulate a killed process: the socket just goes away, no
        // terminator frame.
        drop(w);

        // Actually `drop` runs close(); emulate the kill by disconnecting
        // explicitly on a second stream instead.
        let mut w2 = hub.open_writer("k2.fp", 0, 1, WriterOptions::default());
        w2.begin_step().unwrap();
        w2.put_whole(var(vec![1.0]));
        w2.end_step().unwrap();
        w2.disconnect();

        let mut r = hub.open_reader("k2.fp", 0, 1);
        assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
        r.end_step();
        let start = Instant::now();
        let err = match r.begin_step() {
            Err(e) => e,
            Ok(s) => panic!("expected PeerGone, got {s:?}"),
        };
        assert!(matches!(err, StreamError::PeerGone { .. }), "{err}");
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "PeerGone must surface promptly, took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn connect_timeout_surfaces_as_stream_timeout() {
        // Nothing listens on this port (bound then dropped).
        let port = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().port()
        };
        let hub = StreamHub::connect_with(
            &format!("tcp://127.0.0.1:{port}"),
            TcpOptions::default().with_connect_timeout(Duration::from_millis(200)),
        )
        .unwrap();
        let mut w = hub.open_writer("c.fp", 0, 1, WriterOptions::default());
        let err = w.begin_step().unwrap_err();
        assert!(matches!(err, StreamError::Timeout { .. }), "{err}");
        w.abandon();
    }

    #[test]
    fn bad_url_is_rejected() {
        assert!(StreamHub::connect("udp://127.0.0.1:1").is_err());
        assert!(StreamHub::connect("tcp://not a host").is_err());
    }

    /// Pumps `steps` steps of `vals` through one stream and returns the
    /// final metrics snapshot plus the payload bytes per step.
    fn pump(hub: &Arc<StreamHub>, name: &str, steps: u64, vals: Vec<f64>) -> (StreamMetrics, u64) {
        let payload = (vals.len() * 8) as u64;
        let mut w = hub.open_writer(name, 0, 1, WriterOptions::default());
        for _ in 0..steps {
            w.begin_step().unwrap();
            w.put_whole(var(vals.clone()));
            w.end_step().unwrap();
        }
        w.close();
        let mut r = hub.open_reader(name, 0, 1);
        for step in 0..steps {
            assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(step));
            let v = r.get_whole("x").unwrap();
            assert_eq!(v.data.to_f64_vec(), vals);
            r.end_step();
        }
        assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);
        (hub.metrics(name).unwrap(), payload)
    }

    #[test]
    fn v1_clients_still_round_trip() {
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        let hub = StreamHub::connect_with(
            &broker.url(),
            TcpOptions::default().with_protocol(WireProtocol::V1),
        )
        .unwrap();
        let (m, payload) = pump(&hub, "v1.fp", 3, (0..32).map(f64::from).collect());
        assert_eq!(m.steps_committed, 3);
        assert_eq!(m.bytes_written, 3 * payload);
        // v1 has no codec, so the compression ledger shows pass-through.
        assert_eq!(m.wire_uncompressed_bytes, m.wire_compressed_bytes);
    }

    #[test]
    fn per_hop_wire_accounting_is_single_counted() {
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        let hub = StreamHub::connect(&broker.url()).unwrap();
        let steps = 4u64;
        let (m, payload) = pump(&hub, "h.fp", steps, (0..1024).map(f64::from).collect());
        let floor = steps * payload;
        assert_eq!(m.bytes_on_wire, m.wire_writer_bytes + m.wire_reader_bytes);
        // Each hop carries every payload byte exactly once, plus framing
        // and protocol small-talk — nowhere near the doubled 2x-per-hop
        // the old shared counter reported.
        for (hop, bytes) in [
            ("writer", m.wire_writer_bytes),
            ("reader", m.wire_reader_bytes),
        ] {
            assert!(bytes >= floor, "{hop} hop lost bytes: {bytes} < {floor}");
            assert!(
                (bytes as f64) < (floor as f64) * 1.1,
                "{hop} hop amplification too high: {bytes} vs payload {floor}"
            );
        }
    }

    #[test]
    fn compressed_v2_round_trips_and_shrinks_payload() {
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        let hub = StreamHub::connect_with(
            &broker.url(),
            TcpOptions::default().with_compression(Compression::Lz),
        )
        .unwrap();
        // A constant payload is maximally compressible.
        let (m, payload) = pump(&hub, "z.fp", 3, vec![7.5; 2048]);
        assert_eq!(m.bytes_written, 3 * payload);
        assert!(
            m.wire_compressed_bytes * 10 < m.wire_uncompressed_bytes,
            "constant payload should collapse: {} vs {}",
            m.wire_compressed_bytes,
            m.wire_uncompressed_bytes
        );
        // Both hops move compressed frames, so each stays far under the
        // raw payload volume.
        assert!(m.wire_writer_bytes < 3 * payload / 4);
        assert!(m.wire_reader_bytes < 3 * payload / 4);
    }

    #[test]
    fn interning_sends_each_definition_once_per_connection() {
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        let hub = StreamHub::connect(&broker.url()).unwrap();
        let steps = 4u64;
        let (m, payload) = pump(&hub, "i.fp", steps, (0..256).map(f64::from).collect());
        // v2 overhead per step is bounded by framing + the interned chunk
        // header (~80 bytes); the meta definition itself travels only with
        // step 0. The budget still catches a meta re-sent every step, which
        // would add >60 bytes of name/dims/labels each time.
        let budget = steps * (payload + 96) + 512;
        assert!(
            m.wire_writer_bytes <= budget,
            "writer hop resends metadata: {} > {budget}",
            m.wire_writer_bytes
        );
        assert!(
            m.wire_reader_bytes <= budget,
            "reader hop resends metadata: {} > {budget}",
            m.wire_reader_bytes
        );
    }

    /// Polls `cond` for up to ten seconds (broker sessions end on their own
    /// threads, a moment after the client side hangs up).
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn pass_through_counts_each_payload_byte_once_and_says_so_in_the_trace() {
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        broker.hub().tracer().enable(&crate::TraceConfig::default());
        let hub = StreamHub::connect_with(
            &broker.url(),
            TcpOptions::default().with_compression(Compression::Lz),
        )
        .unwrap();
        // The reader attaches first, so every step the writer sends is
        // seeded and no reply has to encode.
        let mut r = hub.open_reader("once.fp", 0, 1);
        let mut w = hub.open_writer("once.fp", 0, 1, WriterOptions::default());
        let steps = 3u64;
        let vals: Vec<f64> = (0..2048).map(|i| (i / 16) as f64).collect();
        let payload = (vals.len() * 8) as u64;
        for step in 0..steps {
            w.begin_step().unwrap();
            w.put_whole(var(vals.clone()));
            w.end_step().unwrap();
            assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(step));
            // From the second step on the request names this box; an LZ
            // block has no rows to cut, so the chunk still travels as sent.
            let half = r.get("x", &Region::new(vec![0], vec![1024])).unwrap();
            assert_eq!(half.data.to_f64_vec(), vals[..1024]);
            r.end_step();
        }
        w.close();
        assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);

        // One codec pass per payload byte on the whole stream: the writer's.
        let m = hub.metrics("once.fp").unwrap();
        assert_eq!(m.wire_uncompressed_bytes, steps * payload);
        assert!(m.wire_compressed_bytes < m.wire_uncompressed_bytes / 2);
        // Both hops still carried the compressed frames.
        assert!(m.wire_writer_bytes < steps * payload / 2);
        assert!(m.wire_reader_bytes < steps * payload / 2);

        let timeline = broker.hub().tracer().drain();
        let passed: Vec<_> = timeline.of_kind(EventKind::RelayPassThrough).collect();
        assert_eq!(passed.len() as u64, steps);
        assert!(passed.iter().all(|e| e.stream == "once.fp" && e.arg > 0));
        assert_eq!(timeline.of_kind(EventKind::RelayEncoded).count(), 0);
        // The broker ran no codec, so it reports no compression either.
        assert_eq!(timeline.of_kind(EventKind::Compressed).count(), 0);
    }

    #[test]
    fn a_box_read_moves_the_box_and_runs_no_codec() {
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        broker.hub().tracer().enable(&crate::TraceConfig::default());
        let hub = StreamHub::connect(&broker.url()).unwrap();
        let mut r = hub.open_reader("box.fp", 0, 1);
        let mut w = hub.open_writer("box.fp", 0, 1, WriterOptions::default());
        let steps = 5u64;
        let vals: Vec<f64> = (0..4096).map(f64::from).collect();
        let payload = (vals.len() * 8) as u64;
        let quarter = Region::new(vec![1024], vec![1024]);
        for step in 0..steps {
            w.begin_step().unwrap();
            w.put_whole(var(vals.clone()));
            w.end_step().unwrap();
            assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(step));
            let got = r.get("x", &quarter).unwrap();
            assert_eq!(got.data.to_f64_vec(), vals[1024..2048]);
            r.end_step();
        }
        w.close();
        assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);

        // The first step was asked for before any box was known and came
        // whole; every later one is the quarter, handed over as it arrived.
        let m = hub.metrics("box.fp").unwrap();
        let moved = payload + (steps - 1) * payload / 4;
        assert!(m.wire_reader_bytes >= moved);
        assert!(
            m.wire_reader_bytes < moved + 1024,
            "{}",
            m.wire_reader_bytes
        );
        assert_eq!(m.copies_elided, steps - 1);
        assert_eq!(m.bytes_copied, payload / 4);
        let timeline = broker.hub().tracer().drain();
        assert_eq!(
            timeline.of_kind(EventKind::RelayPassThrough).count() as u64,
            steps
        );
        assert_eq!(timeline.of_kind(EventKind::RelayEncoded).count(), 0);
    }

    #[test]
    fn a_reader_with_another_codec_is_served_by_the_encode_path() {
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        broker.hub().tracer().enable(&crate::TraceConfig::default());
        let lz = StreamHub::connect_with(
            &broker.url(),
            TcpOptions::default().with_compression(Compression::Lz),
        )
        .unwrap();
        let plain = StreamHub::connect(&broker.url()).unwrap();
        let mut r = plain.open_reader("mix.fp", 0, 1);
        let mut w = lz.open_writer("mix.fp", 0, 1, WriterOptions::default());
        let vals = vec![7.5; 4096];
        w.begin_step().unwrap();
        w.put_whole(var(vals.clone()));
        w.end_step().unwrap();
        w.close();
        assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
        assert_eq!(r.get_whole("x").unwrap().data.to_f64_vec(), vals);
        r.end_step();
        assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);

        // The reader asked for raw payloads: it must get them, not the
        // writer's LZ blocks.
        let m = plain.metrics("mix.fp").unwrap();
        assert!(m.wire_reader_bytes >= 4096 * 8);
        let timeline = broker.hub().tracer().drain();
        assert_eq!(timeline.of_kind(EventKind::RelayEncoded).count(), 1);
        assert_eq!(timeline.of_kind(EventKind::RelayPassThrough).count(), 0);
        drop(r);
        eventually("the relay cache to drain", || {
            broker.relay_cached_steps("mix.fp") == 0
        });
    }

    #[test]
    fn one_payload_under_two_variables_and_two_regions_relays_as_four_chunks() {
        // Regression: cached bytes were matched to a committed chunk by
        // codec and payload allocation alone, so the second chunk sharing a
        // `SharedBuffer` was answered with the first one's bytes.
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        let remote = StreamHub::connect(&broker.url()).unwrap();
        let mut r = remote.open_reader("alias.fp", 0, 1);
        let mut w = broker
            .hub()
            .open_writer("alias.fp", 0, 1, WriterOptions::default());
        let shape = Shape::of(&[("row", 4), ("col", 3)]);
        let payload = SharedBuffer::new(Buffer::F64((0..6).map(f64::from).collect()));
        w.begin_step().unwrap();
        for name in ["a", "b"] {
            let meta = sb_data::VariableMeta::new(name, shape.clone(), DType::F64);
            for base in [0, 2] {
                let region = Region::new(vec![base, 0], vec![2, 3]);
                w.put(Chunk::new(meta.clone(), region, payload.clone()).unwrap());
            }
        }
        w.end_step().unwrap();
        w.close();
        assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
        let twice: Vec<f64> = (0..6).chain(0..6).map(f64::from).collect();
        for name in ["a", "b"] {
            assert_eq!(r.get_whole(name).unwrap().data.to_f64_vec(), twice);
        }
        r.end_step();
    }

    #[test]
    fn a_reader_killed_mid_step_strands_no_cached_steps() {
        // The steps a dead reader never released stay in the hub, and so in
        // the cache, until the stream ends: the first end of stream a remote
        // reader is told empties the cache, whoever still holds a step.
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        let hub = StreamHub::connect(&broker.url()).unwrap();
        let options = WriterOptions::default().with_reader_groups(2);
        let mut doomed = hub.open_reader_grouped("dead.fp", "doomed", 0, 1);
        let mut steady = hub.open_reader_grouped("dead.fp", "steady", 0, 1);
        let mut w = hub.open_writer("dead.fp", 0, 1, options);
        for step in 0..3 {
            w.begin_step().unwrap();
            w.put_whole(var(vec![step as f64; 512]));
            w.end_step().unwrap();
        }
        w.close();
        // The steady reader consumes and releases everything while the
        // doomed one still holds step 0 open, so the hub keeps all three …
        assert_eq!(doomed.begin_step().unwrap(), StepStatus::Ready(0));
        for step in 0..3 {
            assert_eq!(steady.begin_step().unwrap(), StepStatus::Ready(step));
            steady.end_step();
            assert!(broker.relay_cached_steps("dead.fp") > 0);
        }
        // … until the steady reader is told the stream ended.
        assert_eq!(steady.begin_step().unwrap(), StepStatus::EndOfStream);
        assert_eq!(broker.relay_cached_steps("dead.fp"), 0);
        // The doomed reader then dies without releasing anything: no
        // release will ever arrive for the steps it pinned, and none is
        // waited for.
        drop(doomed);
        assert_eq!(broker.relay_cached_steps("dead.fp"), 0);
    }

    #[test]
    fn a_reader_that_reconnects_is_sent_the_writers_bytes() {
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        broker.hub().tracer().enable(&crate::TraceConfig::default());
        let hub = StreamHub::connect(&broker.url()).unwrap();
        let mut first = hub.open_reader("again.fp", 0, 1);
        let mut w = hub.open_writer("again.fp", 0, 1, WriterOptions::default());
        for step in 0..3 {
            w.begin_step().unwrap();
            w.put_whole(var(vec![step as f64; 512]));
            w.end_step().unwrap();
        }
        w.close();
        // The first reader crashes holding step 0: nothing is released, so
        // the hub still buffers every step and the cache keeps them all.
        assert_eq!(first.begin_step().unwrap(), StepStatus::Ready(0));
        drop(first);
        let mut second = hub.open_reader("again.fp", 0, 1);
        for step in 0..3 {
            assert_eq!(second.begin_step().unwrap(), StepStatus::Ready(step));
            assert_eq!(
                second.get_whole("x").unwrap().data.to_f64_vec(),
                [step as f64; 512]
            );
            second.end_step();
        }
        assert_eq!(second.begin_step().unwrap(), StepStatus::EndOfStream);
        let timeline = broker.hub().tracer().drain();
        assert_eq!(timeline.of_kind(EventKind::RelayEncoded).count(), 0);
        assert_eq!(broker.relay_cached_steps("again.fp"), 0);
    }

    #[test]
    fn streams_without_v2_readers_cache_nothing() {
        // Only in-proc and v1 readers: nobody can use relayed bytes, so the
        // writer session must not pin its frames for them.
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        let v2 = StreamHub::connect(&broker.url()).unwrap();
        let v1 = StreamHub::connect_with(
            &broker.url(),
            TcpOptions::default().with_protocol(WireProtocol::V1),
        )
        .unwrap();
        let options = WriterOptions::default().with_reader_groups(2);
        let mut local = broker.hub().open_reader_grouped("quiet.fp", "local", 0, 1);
        let mut old = v1.open_reader_grouped("quiet.fp", "old", 0, 1);
        let mut w = v2.open_writer("quiet.fp", 0, 1, options);
        for step in 0..3u64 {
            w.begin_step().unwrap();
            w.put_whole(var(vec![step as f64; 256]));
            w.end_step().unwrap();
            assert_eq!(broker.relay_cached_steps("quiet.fp"), 0);
            for r in [&mut local, &mut old] {
                assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(step));
                assert_eq!(
                    r.get_whole("x").unwrap().data.to_f64_vec(),
                    [step as f64; 256]
                );
                r.end_step();
            }
        }
        w.close();
        assert_eq!(broker.relay_cached_steps("quiet.fp"), 0);
    }

    #[test]
    fn relay_cache_never_spans_more_than_the_queue_plus_one() {
        let relay = Arc::new(StreamRelay::default());
        let cached = || lock(&relay.inner).steps.len();
        let v = var(vec![1.0; 8]);
        let chunk = Chunk::new(
            sb_data::VariableMeta::describing(&v),
            Region::whole(&v.shape),
            v.data,
        )
        .unwrap();
        let mut frame = Vec::new();
        encode_chunk_interned(&mut frame, &chunk, 7, Compression::None).unwrap();
        // Seeded the way a writer session seeds: first the steps the hub
        // has popped leave, here with the hub one step behind the writer
        // (a queue of 2, the writer blocked on the oldest step).
        let seed = |step: u64| {
            relay.retire(step.saturating_sub(1));
            let whole = 0..frame.len();
            relay.seed(
                step,
                Compression::None,
                frame.clone(),
                &[(chunk.clone(), whole)],
            );
        };
        for step in 0..8 {
            seed(step);
            assert!(cached() <= 2, "step {step}: {} steps cached", cached());
        }
        assert_eq!(cached(), 2);
        // Every step released: nothing is kept.
        relay.retire(8);
        assert_eq!(cached(), 0);
    }

    #[test]
    fn a_writer_one_step_ahead_does_not_turn_a_hit_into_a_re_encode() {
        // A variable whose meta changes every step (the Histogram's
        // counts), seeded for steps 0 and 1 before any reader asks for 0:
        // step 0 is still the writer's bytes under the id it was seeded
        // with, and no definition is interned or sent twice.
        let relay = Arc::new(StreamRelay::default());
        let chunks: Vec<Chunk> = (0..2)
            .map(|step| {
                let v = var(vec![step as f64; 8])
                    .with_attr("step", sb_data::AttrValue::Int(step as i64));
                let meta = sb_data::VariableMeta::describing(&v);
                Chunk::new(meta, Region::whole(&v.shape), v.data).unwrap()
            })
            .collect();
        for (step, chunk) in chunks.iter().enumerate() {
            let mut frame = Vec::new();
            encode_chunk_interned(&mut frame, chunk, 0, Compression::None).unwrap();
            let whole = 0..frame.len();
            relay.seed(
                step as u64,
                Compression::None,
                frame,
                &[(chunk.clone(), whole)],
            );
        }
        let slot = VarSlot {
            meta: chunks[0].meta.clone(),
            chunks: vec![chunks[0].clone()],
        };
        let contents: StepContents = Arc::new(BTreeMap::from([("x".to_string(), slot)]));
        let mut defs_seen = 0;
        let reply = relay
            .reply_step(0, Compression::None, &contents, &[], &mut defs_seen)
            .unwrap();
        assert_eq!(reply.encoded, (0, 0), "the seeded bytes must be relayed");
        assert_eq!(defs_seen, 2, "one definition per step, none re-interned");
        let seeded = &lock(&relay.inner).steps[&0][0].bytes;
        assert_eq!(reply.parts.len(), 1);
        assert!(Arc::ptr_eq(&reply.parts[0].buf, &seeded.buf));
    }

    #[test]
    fn a_row_slab_box_is_answered_with_a_slice_of_the_writers_frame() {
        let relay = Arc::new(StreamRelay::default());
        let shape = Shape::of(&[("row", 8), ("col", 3)]);
        let meta = sb_data::VariableMeta::new("grid", shape, DType::F64);
        // Two writer ranks, four rows each, in one received frame.
        let chunks: Vec<Chunk> = [0usize, 4]
            .iter()
            .map(|&base| {
                let data = (0..12).map(|i| (base * 3 + i) as f64).collect();
                let region = Region::new(vec![base, 0], vec![4, 3]);
                Chunk::new(meta.clone(), region, Buffer::F64(data)).unwrap()
            })
            .collect();
        let mut frame = vec![0xEE; 13];
        let seeded: Vec<(Chunk, Range<usize>)> = chunks
            .iter()
            .map(|chunk| {
                let at = frame.len();
                encode_chunk_interned(&mut frame, chunk, 9, Compression::None).unwrap();
                (chunk.clone(), at..frame.len())
            })
            .collect();
        relay.seed(0, Compression::None, frame, &seeded);
        let frame = Arc::clone(&lock(&relay.inner).steps[&0][0].bytes.buf);
        let slot = VarSlot {
            meta,
            chunks: chunks.clone(),
        };
        let contents: StepContents = Arc::new(BTreeMap::from([("grid".to_string(), slot)]));

        // What a client makes of a reply, with the decoder it always had.
        let answer = |boxes: &[(&str, Region)]| {
            let boxes: Vec<(String, Region)> = boxes
                .iter()
                .map(|(var, region)| (var.to_string(), region.clone()))
                .collect();
            let reply = relay
                .reply_step(0, Compression::None, &contents, &boxes, &mut 0)
                .unwrap();
            assert_eq!(reply.encoded, (0, 0), "a cut must not run a codec");
            let mut bytes = reply.prelude.clone();
            for part in &reply.parts {
                bytes.extend_from_slice(part.bytes());
            }
            let mut cur = &bytes[9..];
            let mut defs = MetaDefs::default();
            for _ in 0..get_u32(&mut cur, "def count").unwrap() {
                defs.decode_def(&mut cur).unwrap();
            }
            let got: Vec<Chunk> = (0..get_u32(&mut cur, "chunk count").unwrap())
                .map(|_| decode_chunk_interned(&mut cur, &defs).unwrap())
                .collect();
            assert!(cur.is_empty());
            (reply, got)
        };
        let shared = |part: &Segment| Arc::ptr_eq(&part.buf, &frame);

        // Rows 2..6 straddle both chunks: two slabs, each a fresh header in
        // front of a run of the writer's own frame.
        let (reply, got) = answer(&[("grid", Region::new(vec![2, 0], vec![4, 3]))]);
        assert_eq!(reply.parts.len(), 4);
        assert!(!shared(&reply.parts[0]) && shared(&reply.parts[1]));
        assert!(!shared(&reply.parts[2]) && shared(&reply.parts[3]));
        assert_eq!(got[0].region, Region::new(vec![2, 0], vec![2, 3]));
        assert_eq!(got[1].region, Region::new(vec![4, 0], vec![2, 3]));
        let rows: Vec<f64> = got.iter().flat_map(|c| c.data.to_f64_vec()).collect();
        assert_eq!(rows, (6..18).map(f64::from).collect::<Vec<_>>());

        // A box equal to one chunk: that chunk as cached, the other not at all.
        let (reply, got) = answer(&[("grid", chunks[1].region.clone())]);
        assert_eq!(reply.parts.len(), 1);
        assert!(shared(&reply.parts[0]));
        assert_eq!(got[0].region, chunks[1].region);
        assert_eq!(got[0].data.to_f64_vec(), chunks[1].data.to_f64_vec());

        // A column is no row slab, two boxes on one chunk have no single
        // slab, and a box that cannot lie in this shape cuts nothing: the
        // chunks they meet travel as cached.
        let column = Region::new(vec![0, 1], vec![8, 1]);
        let top = Region::new(vec![0, 0], vec![1, 3]);
        let next = Region::new(vec![2, 0], vec![1, 3]);
        let outside = Region::new(vec![0, 0], vec![9, 3]);
        let flat = Region::new(vec![0], vec![8]);
        for (boxes, sent) in [
            (vec![("grid", column)], 2),
            (vec![("grid", top.clone()), ("grid", next)], 1),
            (vec![("grid", top.clone()), ("grid", outside)], 2),
            (vec![("grid", flat)], 2),
            (vec![("other", top)], 2),
            (vec![], 2),
        ] {
            let (reply, got) = answer(&boxes);
            assert_eq!(reply.parts.len(), sent, "{boxes:?}");
            assert!(reply.parts.iter().all(shared), "{boxes:?}");
            assert_eq!(got.len(), sent);
        }
    }

    #[test]
    fn read_frame_reserves_one_stride_ahead_of_arrived_bytes() {
        /// Serves a fixed prefix of a stream, recording the largest buffer
        /// it was ever asked to fill: `read_frame` only ever offers spare
        /// capacity it has reserved.
        struct Scripted {
            data: io::Cursor<Vec<u8>>,
            largest_ask: usize,
        }
        impl Read for Scripted {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.largest_ask = self.largest_ask.max(buf.len());
                self.data.read(buf)
            }
        }
        let mut bytes = MAX_FRAME.to_le_bytes().to_vec();
        bytes.extend_from_slice(&[0xab; 1000]);
        let mut src = Scripted {
            data: io::Cursor::new(bytes),
            largest_ask: 0,
        };
        let err = read_frame(&mut src).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof, "{err}");
        assert!(
            src.largest_ask <= FRAME_STRIDE,
            "asked to fill {} bytes at once",
            src.largest_ask
        );

        // Over the cap: rejected before any body byte is awaited.
        let over = (MAX_FRAME + 1).to_le_bytes();
        let err = read_frame(&mut io::Cursor::new(over)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");

        // A frame spanning several strides still arrives whole.
        let body: Vec<u8> = (0..2 * FRAME_STRIDE + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        let mut bytes = (body.len() as u32).to_le_bytes().to_vec();
        bytes.extend_from_slice(&body);
        assert_eq!(read_frame(&mut io::Cursor::new(bytes)).unwrap(), body);
    }

    #[test]
    fn a_writer_session_that_cannot_reply_disconnects() {
        /// The broker's side of a client killed between request and reply:
        /// it hands the session `frames`, accepts `sends` replies, then
        /// fails every send after.
        struct Scripted {
            frames: std::collections::VecDeque<Vec<u8>>,
            sends: usize,
        }
        impl FrameIo for Scripted {
            fn send_frames(&mut self, frames: &[&[&[u8]]]) -> io::Result<usize> {
                if self.sends == 0 {
                    return Err(io::ErrorKind::BrokenPipe.into());
                }
                self.sends -= 1;
                Ok(frames.iter().flat_map(|f| f.iter()).map(|p| p.len()).sum())
            }
            fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
                self.frames
                    .pop_front()
                    .ok_or_else(|| io::ErrorKind::UnexpectedEof.into())
            }
            fn set_recv_deadline(&mut self, _: Option<Duration>) {}
        }

        let hub = StreamHub::with_timeout(Duration::from_secs(30));
        let mut reader = hub.open_reader("w.fp", 0, 1);
        let mut hello = vec![HELLO_WRITER];
        put_str(&mut hello, "w.fp").unwrap();
        for field in [0, 1, 4] {
            put_u32(&mut hello, field); // rank, nranks, queue capacity
        }
        put_u8(&mut hello, 0); // not rendezvous
        put_u32(&mut hello, 1); // reader groups
        put_u8(&mut hello, WireProtocol::V2.tag());
        put_u8(&mut hello, Compression::None.tag());
        let chunk = Chunk::whole(var(vec![1.0, 2.0]));
        let mut table = MetaInternTable::default();
        let id = table.intern(&chunk.meta).unwrap();
        let mut step = vec![W_STEP];
        put_u64(&mut step, 0);
        put_u32(&mut step, 1); // one definition
        table.append_defs_since(0, &mut step);
        put_u32(&mut step, 1); // one chunk
        encode_chunk_interned(&mut step, &chunk, id, Compression::None).unwrap();
        // REPLY_STARTED goes out; W_STEP's OK does not.
        let mut io = Scripted {
            frames: [hello, step].into(),
            sends: 1,
        };
        let relays = Arc::new(RelayTable::default());
        let err = serve_session(&hub, &relays, &mut io, false).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe, "{err}");

        let started = Instant::now();
        assert_eq!(reader.begin_step().unwrap(), StepStatus::Ready(0));
        assert_eq!(reader.get_whole("x").unwrap().data.to_f64_vec(), [1.0, 2.0]);
        reader.end_step();
        let err = reader.begin_step().unwrap_err();
        assert!(matches!(err, StreamError::PeerGone { .. }), "{err:?}");
        assert!(started.elapsed() < Duration::from_secs(10));
    }

    /// The broker's side of one connection as in-memory channels: request
    /// frames in, reply frames out.
    struct Piped {
        requests: std::sync::mpsc::Receiver<Vec<u8>>,
        replies: std::sync::mpsc::Sender<Vec<u8>>,
    }

    impl FrameIo for Piped {
        fn send_frames(&mut self, frames: &[&[&[u8]]]) -> io::Result<usize> {
            let mut sent = 0;
            for parts in frames {
                let frame = parts.concat();
                sent += 4 + frame.len();
                let _ = self.replies.send(frame);
            }
            Ok(sent)
        }
        fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
            self.requests
                .recv()
                .map_err(|_| io::ErrorKind::UnexpectedEof.into())
        }
        fn set_recv_deadline(&mut self, _: Option<Duration>) {}
    }

    /// A client's end of one broker session served on a thread of its own.
    struct Session {
        requests: std::sync::mpsc::Sender<Vec<u8>>,
        replies: std::sync::mpsc::Receiver<Vec<u8>>,
        served: JoinHandle<io::Result<()>>,
    }

    impl Session {
        fn open(hub: &Arc<StreamHub>, relays: &Arc<RelayTable>, hello: Vec<u8>) -> Session {
            let (requests, from_client) = std::sync::mpsc::channel();
            let (to_client, replies) = std::sync::mpsc::channel();
            let (hub, relays) = (Arc::clone(hub), Arc::clone(relays));
            let served = std::thread::spawn(move || {
                let mut io = Piped {
                    requests: from_client,
                    replies: to_client,
                };
                serve_session(&hub, &relays, &mut io, false)
            });
            let session = Session {
                requests,
                replies,
                served,
            };
            session.send(hello);
            session
        }

        fn send(&self, frame: Vec<u8>) {
            let _ = self.requests.send(frame);
        }

        fn reply(&self) -> Vec<u8> {
            let reply = self.replies.recv_timeout(Duration::from_secs(10));
            reply.expect("the session sent no reply")
        }

        /// Hangs up and returns how the session ended; a panic fails the test.
        fn end(self) -> io::Result<()> {
            drop(self.requests);
            self.served.join().expect("the session panicked")
        }
    }

    fn writer_hello(name: &str, rank: u32, nranks: u32, queue: u32) -> Vec<u8> {
        let mut hello = vec![HELLO_WRITER];
        put_str(&mut hello, name).unwrap();
        for field in [rank, nranks, queue] {
            put_u32(&mut hello, field);
        }
        put_u8(&mut hello, 0); // not rendezvous
        put_u32(&mut hello, 1); // reader groups
        put_u8(&mut hello, WireProtocol::V2.tag());
        put_u8(&mut hello, Compression::None.tag());
        hello
    }

    fn reader_hello(name: &str, group: &str, rank: u32, nranks: u32) -> Vec<u8> {
        let mut hello = vec![HELLO_READER];
        put_str(&mut hello, name).unwrap();
        put_str(&mut hello, group).unwrap();
        put_u32(&mut hello, rank);
        put_u32(&mut hello, nranks);
        put_u8(&mut hello, WireProtocol::V2.tag());
        put_u8(&mut hello, Compression::None.tag());
        hello
    }

    /// The v2 `W_STEP` a client sends for `chunks`: the definitions `table`
    /// has not framed yet, then the chunks.
    fn w_step(step: u64, chunks: &[Chunk], table: &mut MetaInternTable) -> Vec<u8> {
        let framed = table.len();
        let mut body = Vec::new();
        for chunk in chunks {
            let id = table.intern(&chunk.meta).unwrap();
            encode_chunk_interned(&mut body, chunk, id, Compression::None).unwrap();
        }
        let mut defs = Vec::new();
        let ndefs = table.append_defs_since(framed, &mut defs);
        let mut frame = vec![W_STEP];
        put_u64(&mut frame, step);
        put_u32(&mut frame, ndefs);
        frame.extend(defs);
        put_u32(&mut frame, chunks.len() as u32);
        frame.extend(body);
        frame
    }

    fn refusal(reply: &[u8]) -> String {
        match parse_reply(reply, REPLY_OK, "", |_| Ok(())) {
            Err(StreamError::PeerGone { reason, .. }) => reason,
            other => panic!("expected a PeerGone reply, got {other:?}"),
        }
    }

    #[test]
    fn a_remote_writer_step_is_one_request_and_one_reply_on_both_fabrics() {
        let (name, steps) = ("pin.fp", 4u64);
        let vals: Vec<f64> = (0..64).map(f64::from).collect();
        let chunks = [Chunk::whole(var(vals.clone()))];
        let mut table = MetaInternTable::default();
        let requests: usize = (0..steps)
            .map(|step| 4 + w_step(step, &chunks, &mut table).len())
            .sum();
        let ok = 4 + 1;
        let expected = 4 + writer_hello(name, 0, 1, 4).len() // hello
            + 4 + 1 + 8 + 2 // REPLY_STARTED
            + requests + steps as usize * ok // each W_STEP and its one reply
            + (4 + 1) + ok; // W_CLOSE and its reply
        let dir = std::env::temp_dir().join(format!("sb-pin-{}", std::process::id()));
        let tcp = TcpBroker::bind("127.0.0.1:0").unwrap();
        let shm = crate::ShmBroker::bind(dir.to_str().unwrap()).unwrap();
        for (url, on_shm) in [(tcp.url(), false), (shm.url(), true)] {
            let hub = StreamHub::connect(&url).unwrap();
            pump(&hub, name, steps, vals.clone());
            // The broker charges a reply after sending it.
            let writer_hop = || hub.metrics(name).unwrap().wire_writer_bytes;
            let what = format!("{url}: writer hop {} B, pinned at {expected}", writer_hop());
            eventually(&what, || writer_hop() == expected as u64);
            let m = hub.metrics(name).unwrap();
            let shm_bytes = if on_shm { m.bytes_on_wire } else { 0 };
            assert_eq!(m.wire_shm_bytes, shm_bytes, "{url}");
        }
    }

    #[test]
    fn a_w_step_out_of_sequence_costs_the_connection() {
        // A first step the registration did not start at, and a step sent
        // twice: either used to index the hub's queue unchecked.
        for (sent, served) in [(vec![5], 0), (vec![0, 0], 1)] {
            let hub = StreamHub::with_timeout(Duration::from_secs(30));
            let mut reader = hub.open_reader("seq.fp", 0, 1);
            let mut table = MetaInternTable::default();
            let chunks = [Chunk::whole(var(vec![1.0]))];
            let session = Session::open(&hub, &Arc::default(), writer_hello("seq.fp", 0, 1, 4));
            for &step in &sent {
                session.send(w_step(step, &chunks, &mut table));
            }
            let err = session.end().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{sent:?}: {err}");

            let started = Instant::now();
            for step in 0..served {
                assert_eq!(reader.begin_step().unwrap(), StepStatus::Ready(step));
                reader.end_step();
            }
            let err = reader.begin_step().unwrap_err();
            assert!(matches!(err, StreamError::PeerGone { .. }), "{err:?}");
            assert!(started.elapsed() < Duration::from_secs(10));
        }
    }

    #[test]
    fn a_full_queue_surfaces_from_end_step_as_the_brokers_timeout() {
        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        let hub = StreamHub::connect(&broker.url()).unwrap();
        hub.set_wait_timeout(Duration::from_secs(1));
        let mut reader = broker.hub().open_reader("full.fp", 0, 1);
        let mut w = hub.open_writer("full.fp", 0, 1, WriterOptions::buffered(1));
        w.begin_step().unwrap();
        w.put_whole(var(vec![0.0]));
        w.end_step().unwrap();
        // The reader holds step 0, so step 1 has no buffer space.
        assert_eq!(reader.begin_step().unwrap(), StepStatus::Ready(0));
        w.begin_step().unwrap();
        w.put_whole(var(vec![1.0]));
        match w.end_step() {
            Err(StreamError::Timeout { waiting_for, .. }) => {
                assert_eq!(waiting_for, "buffer space")
            }
            other => panic!("expected the broker's buffer-space timeout, got {other:?}"),
        }
        w.abandon();
        reader.end_step();
    }

    #[test]
    fn a_writer_hello_that_disagrees_with_its_group_is_refused() {
        let hub = StreamHub::new();
        let relays = Arc::default();
        let _rank0 = hub.open_writer("g.fp", 0, 2, WriterOptions::default());
        for (hello, why) in [
            (writer_hello("g.fp", 1, 3, 4), "disagree on group size"),
            (writer_hello("g.fp", 1, 2, 2), "disagree on options"),
        ] {
            let session = Session::open(&hub, &relays, hello);
            assert!(refusal(&session.reply()).contains(why));
            let err = session.end().unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
        }
    }

    #[test]
    fn a_reader_hello_that_disagrees_with_its_group_is_refused() {
        let hub = StreamHub::new();
        let _rank0 = hub.open_reader_grouped("g.fp", "g", 0, 2);
        let session = Session::open(&hub, &Arc::default(), reader_hello("g.fp", "g", 1, 3));
        assert!(refusal(&session.reply()).contains("disagree on group size"));
        let err = session.end().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{err}");
    }

    #[test]
    fn writer_ranks_that_disagree_on_metadata_are_refused() {
        let hub = StreamHub::new();
        // Two rows of a `grid` the ranks disagree on the length of.
        let rows = |len, base| {
            let meta = sb_data::VariableMeta::new("grid", Shape::linear("n", len), DType::F64);
            let region = Region::new(vec![base], vec![2]);
            Chunk::new(meta, region, Buffer::F64(vec![0.0; 2])).unwrap()
        };
        let mut rank0 = hub.open_writer("meta.fp", 0, 2, WriterOptions::default());
        rank0.begin_step().unwrap();
        rank0.put(rows(4, 0));
        let session = Session::open(&hub, &Arc::default(), writer_hello("meta.fp", 1, 2, 4));
        assert_eq!(session.reply()[0], REPLY_STARTED);
        session.send(w_step(0, &[rows(5, 2)], &mut MetaInternTable::default()));
        assert!(refusal(&session.reply()).contains("disagree on metadata"));
        session.end().unwrap();
        rank0.abandon();
    }

    #[test]
    fn two_connections_claiming_one_writer_rank_cannot_commit_a_step_twice() {
        let hub = StreamHub::with_timeout(Duration::from_secs(30));
        let mut reader = hub.open_reader("dup.fp", 0, 1);
        let mut w = hub.open_writer("dup.fp", 0, 1, WriterOptions::default());
        w.begin_step().unwrap();
        w.put_whole(var(vec![1.0]));
        w.end_step().unwrap();
        // A second rank 0 resumes where the registration started, at the
        // step the first one committed: neither its put nor, for a step
        // with no chunks, its commit may land.
        let session = Session::open(&hub, &Arc::default(), writer_hello("dup.fp", 0, 1, 4));
        assert_eq!(session.reply()[0], REPLY_STARTED);
        let mut table = MetaInternTable::default();
        let chunk = Chunk::whole(var(vec![2.0]));
        session.send(w_step(0, &[chunk], &mut table));
        assert!(refusal(&session.reply()).contains("put to step 0, which is not open"));
        session.send(w_step(0, &[], &mut table));
        assert!(refusal(&session.reply()).contains("end of step 0, which is not open"));
        session.end().unwrap();
        assert_eq!(reader.begin_step().unwrap(), StepStatus::Ready(0));
        assert_eq!(reader.get_whole("x").unwrap().data.to_f64_vec(), [1.0]);
        reader.end_step();
        w.close();
    }

    #[test]
    fn two_connections_claiming_one_reader_rank_cannot_release_a_step_twice() {
        let hub = StreamHub::with_timeout(Duration::from_secs(30));
        let relays = Arc::default();
        let mut w = hub.open_writer("twice.fp", 0, 1, WriterOptions::default());
        w.begin_step().unwrap();
        w.put_whole(var(vec![1.0]));
        w.end_step().unwrap();
        let mut begin = vec![R_BEGIN];
        put_u64(&mut begin, 0);
        let mut release = vec![R_RELEASE];
        put_u64(&mut release, 0);
        // Both connections hold step 0 before either releases it.
        let sessions: Vec<Session> = (0..2)
            .map(|_| {
                let session = Session::open(&hub, &relays, reader_hello("twice.fp", "g", 0, 1));
                session.send(begin.clone());
                assert_eq!(session.reply()[0], REPLY_STARTED);
                assert_eq!(session.reply()[0], REPLY_STEP);
                session
            })
            .collect();
        // The first release lands and that session ends on the hang-up; the
        // second is refused.
        let ended: Vec<io::ErrorKind> = sessions
            .into_iter()
            .map(|session| {
                session.send(release.clone());
                session.end().unwrap_err().kind()
            })
            .collect();
        let kinds = [io::ErrorKind::UnexpectedEof, io::ErrorKind::InvalidData];
        assert_eq!(ended, kinds);
        w.close();
    }

    fn tcp_pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        (client, server)
    }

    #[test]
    fn vectored_frames_equal_contiguous_frames_on_both_sockets() {
        fn check(mut client: impl FrameIo, mut server: impl FrameIo + 'static) {
            let big: Vec<u8> = (0..300_000).map(|i| (i % 253) as u8).collect();
            let parts: [&[u8]; 5] = [b"head", &[], &big, b"", b"tail"];
            let reader = std::thread::spawn(move || server.recv_frame().unwrap());
            let sent = client.send_frame_parts(&parts).unwrap();
            let whole: Vec<u8> = parts.concat();
            assert_eq!(sent, 4 + whole.len());
            assert_eq!(reader.join().unwrap(), whole);
        }
        let (client, server) = tcp_pair();
        check(client, server);
        let (client, server) = std::os::unix::net::UnixStream::pair().unwrap();
        check(client, server);
    }

    #[test]
    fn zero_timeout_and_zero_grace_is_a_timeout_not_a_hang() {
        // Regression: a zero socket timeout is `InvalidInput`, which the
        // deadline setter swallowed — leaving the previous deadline (here:
        // none at all) armed on a broker that never answers.
        let (mut client, _mute_server) = tcp_pair();
        client.set_recv_deadline(None);
        let mut conn = ClientConn {
            io: Box::new(client),
            stream_name: "z.fp".to_string(),
            peer: "mute".to_string(),
            wait_timeout_micros: Arc::new(AtomicU64::new(0)),
            read_grace: Duration::ZERO,
            broker_lost: Arc::default(),
        };
        let err = conn.recv("a reply that never comes").unwrap_err();
        assert!(matches!(err, StreamError::Timeout { .. }), "{err:?}");
    }

    #[test]
    fn a_failing_accept_backs_off_instead_of_spinning() {
        // A listener out of file descriptors fails every `accept` at once;
        // the loop must rest between attempts and still notice shutdown.
        let attempts = Arc::new(AtomicUsize::new(0));
        let counter = Arc::clone(&attempts);
        let mut core = BrokerCore::start(StreamHub::new(), false, move || {
            counter.fetch_add(1, Ordering::SeqCst);
            Err::<TcpStream, _>(io::Error::other("too many open files"))
        })
        .unwrap();
        let started = Instant::now();
        std::thread::sleep(ACCEPT_BACKOFF * 10);
        assert!(core.stop(|| Ok(())));
        let attempts = attempts.load(Ordering::SeqCst) as u128;
        let most = started.elapsed().as_millis() / ACCEPT_BACKOFF.as_millis() + 2;
        assert!((1..=most).contains(&attempts), "{attempts} accepts");
        assert_eq!(core.connections_seen(), 0);
    }
}
