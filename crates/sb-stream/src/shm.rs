//! The shared-memory transport backend: the broker protocol of
//! [`crate::tcp`] carried over per-connection ring files instead of
//! sockets, for same-host workflows.
//!
//! A `shm://DIR` URL names a rendezvous directory (put it on a tmpfs such
//! as `/dev/shm` for page-cache-only traffic). One process runs a
//! [`ShmBroker`] in front of an ordinary in-proc [`StreamHub`]; every
//! other process calls [`StreamHub::connect`] with the same URL and gets
//! the exact same endpoint API — the whole client and broker-session
//! protocol is the TCP one, reached through the [`crate::tcp::FrameIo`] /
//! [`crate::tcp::Dialer`] seams, so goldens are byte-identical across
//! backends by construction.
//!
//! ## Connection fabric
//!
//! Each connection is one directory, atomically published by the client:
//!
//! ```text
//! DIR/broker.meta                  broker pid (rendezvous + liveness)
//! DIR/conn-<pid>-<n>/c2s.ring      client → broker byte ring
//! DIR/conn-<pid>-<n>/s2c.ring      broker → client byte ring
//! ```
//!
//! A ring file is a 64-byte header plus a circular byte region, crossed by
//! `read_at`/`write_at` through the (process-coherent) page cache — no
//! `unsafe`, no mmap. Each ring is strictly SPSC: the producer owns the
//! `tail` cursor, the consumer owns `head`, and both cursors are stored as
//! *mirrored pairs* written in a fixed order so the other side can reject
//! a torn read by re-reading until the copies agree. The u32
//! length-prefixed frames of the TCP backend are layered on top of the
//! byte stream unchanged; frames larger than the ring stream through in
//! chunks.
//!
//! ## Doorbell
//!
//! There is deliberately no futex or eventfd: waiting sides poll with a
//! yield-then-sleep backoff (tens of microseconds), which keeps the hot
//! path free of syscall-heavy wakeups and works on a single-core host.
//! Every waiter also watches its peer's pid; a killed process surfaces as
//! an I/O error within a few dozen milliseconds, which the broker session
//! treats as a noisy disconnect — blocked readers fail promptly with
//! [`StreamError::PeerGone`] instead of waiting out the hub timeout.

use std::collections::HashSet;
use std::ffi::OsString;
use std::fs::{self, File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::error::StreamError;
use crate::hub::StreamHub;
use crate::tcp::{
    frame_header, read_frame, serve_session, Dialer, FrameIo, RelayTable, TcpOptions, TcpTransport,
};
use crate::trace::Tracer;

const MAGIC: &[u8; 8] = b"SBSHMRG1";
const OFF_CAPACITY: u64 = 8;
/// Consumer cursor, mirrored pair (a at 16, b at 24).
const OFF_HEAD: u64 = 16;
/// Producer cursor, mirrored pair (a at 32, b at 40).
const OFF_TAIL: u64 = 32;
/// Producer sets this to 1 on clean close; the consumer then drains what
/// is left and reports end-of-connection.
const OFF_CLOSED: u64 = 48;
const HEADER_LEN: u64 = 64;

/// Name of the broker's rendezvous file inside the `shm://` directory.
const BROKER_META: &str = "broker.meta";

/// Tuning of the shared-memory backend.
///
/// Marked `#[non_exhaustive]`; construct via [`ShmOptions::default`] and
/// refine with the `with_*` setters.
#[non_exhaustive]
#[derive(Debug, Clone, Copy)]
pub struct ShmOptions {
    /// Data bytes per ring direction. Frames larger than this stream
    /// through in chunks, so the capacity bounds pipelining depth, not
    /// frame size.
    pub ring_capacity: usize,
    /// The protocol/deadline knobs shared with the TCP client path
    /// (connect budget, read grace, wire protocol, compression).
    pub wire: TcpOptions,
}

impl Default for ShmOptions {
    fn default() -> ShmOptions {
        ShmOptions {
            ring_capacity: 4 << 20,
            wire: TcpOptions::default(),
        }
    }
}

impl ShmOptions {
    /// Sets the per-direction ring capacity (builder style).
    pub fn with_ring_capacity(mut self, bytes: usize) -> ShmOptions {
        self.ring_capacity = bytes.max(4096);
        self
    }

    /// Sets the shared wire options (builder style).
    pub fn with_wire(mut self, wire: TcpOptions) -> ShmOptions {
        self.wire = wire;
        self
    }
}

/// Parses a `shm://DIR` URL into the rendezvous directory path.
pub fn parse_shm_url(url: &str) -> io::Result<PathBuf> {
    let rest = url.strip_prefix("shm://").ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("transport URL {url:?} must start with shm://"),
        )
    })?;
    if rest.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("transport URL {url:?} names no directory"),
        ));
    }
    Ok(PathBuf::from(rest))
}

/// Assembles the client-side transport for `shm://DIR`: the full TCP
/// client protocol over a ring-file dialer.
pub(crate) fn connect(
    url: &str,
    options: ShmOptions,
    wait_timeout_micros: Arc<AtomicU64>,
    tracer: Arc<Tracer>,
) -> io::Result<TcpTransport> {
    let dir = parse_shm_url(url)?;
    Ok(TcpTransport::with_dialer(
        url.to_string(),
        Box::new(ShmDialer { dir, options }),
        options.wire,
        wait_timeout_micros,
        tracer,
    ))
}

/// Whether `pid` still names a live process. A zombie counts as dead: an
/// exited-but-unreaped peer keeps its `/proc` entry (its parent may not
/// `wait()` until much later) but will never touch the ring again — the
/// shm analogue of the kernel closing a dead process's sockets. On a
/// system without `/proc` this degrades to "alive", leaving deadlines as
/// the only failure signal.
fn pid_alive(pid: u32) -> bool {
    let proc_dir = Path::new("/proc");
    if !proc_dir.exists() {
        return true;
    }
    match fs::read_to_string(proc_dir.join(pid.to_string()).join("stat")) {
        // The state char follows the parenthesized comm field, which may
        // itself contain parentheses — parse from the last ')'.
        Ok(stat) => !matches!(
            stat.rfind(')')
                .and_then(|i| stat[i + 1..].split_whitespace().next()),
            Some("Z") | Some("X") | Some("x")
        ),
        Err(e) => e.kind() != io::ErrorKind::NotFound,
    }
}

// ---- ring file ------------------------------------------------------------

/// Reads one mirrored u64 cursor, retrying until both copies agree. The
/// writer stores copy `a` before copy `b`, so disagreement means an update
/// is in flight. A peer that dies mid-update leaves the pair torn forever;
/// the retry cap turns that into an error instead of a spin.
fn read_pair(file: &File, off: u64) -> io::Result<u64> {
    for _ in 0..65536 {
        let mut a = [0u8; 8];
        let mut b = [0u8; 8];
        file.read_exact_at(&mut a, off)?;
        file.read_exact_at(&mut b, off + 8)?;
        if a == b {
            return Ok(u64::from_le_bytes(a));
        }
        std::thread::yield_now();
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        "ring cursor stayed torn (peer died mid-update?)",
    ))
}

/// Publishes one mirrored u64 cursor: copy `a` first, then copy `b`.
fn write_pair(file: &File, off: u64, value: u64) -> io::Result<()> {
    let bytes = value.to_le_bytes();
    file.write_all_at(&bytes, off)?;
    file.write_all_at(&bytes, off + 8)
}

/// One direction's circular byte stream in a ring file.
struct Ring {
    file: File,
    capacity: u64,
}

impl Ring {
    fn create(path: &Path, capacity: u64) -> io::Result<Ring> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(path)?;
        // set_len zeroes the cursors and the closed flag. The data region
        // stays sparse on purpose: tmpfs faults pages in on first touch,
        // and eagerly zero-writing the whole region here was measured to
        // collapse under concurrent dials on a loaded single-core host
        // (bulk writes interleaved with pollers ran ~50x slower than the
        // same writes in isolation). Small rings keep the first-touch cost
        // proportional to what a connection actually uses.
        file.set_len(HEADER_LEN + capacity)?;
        file.write_all_at(MAGIC, 0)?;
        file.write_all_at(&capacity.to_le_bytes(), OFF_CAPACITY)?;
        Ok(Ring { file, capacity })
    }

    fn open(path: &Path) -> io::Result<Ring> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let mut magic = [0u8; 8];
        file.read_exact_at(&mut magic, 0)?;
        if &magic != MAGIC {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{} is not a smartblock ring file", path.display()),
            ));
        }
        let mut cap = [0u8; 8];
        file.read_exact_at(&mut cap, OFF_CAPACITY)?;
        let capacity = u64::from_le_bytes(cap);
        if capacity == 0 || capacity > (1 << 40) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("ring file {} has capacity {capacity}", path.display()),
            ));
        }
        Ok(Ring { file, capacity })
    }

    fn head(&self) -> io::Result<u64> {
        read_pair(&self.file, OFF_HEAD)
    }

    fn set_head(&self, v: u64) -> io::Result<()> {
        write_pair(&self.file, OFF_HEAD, v)
    }

    fn tail(&self) -> io::Result<u64> {
        read_pair(&self.file, OFF_TAIL)
    }

    fn set_tail(&self, v: u64) -> io::Result<()> {
        write_pair(&self.file, OFF_TAIL, v)
    }

    fn closed(&self) -> io::Result<bool> {
        let mut flag = [0u8; 1];
        self.file.read_exact_at(&mut flag, OFF_CLOSED)?;
        Ok(flag[0] != 0)
    }

    fn set_closed(&self) -> io::Result<()> {
        self.file.write_all_at(&[1], OFF_CLOSED)
    }

    /// Writes `buf` into the circular data region at absolute stream
    /// position `pos` (the caller guarantees it fits the free space).
    fn write_data(&self, pos: u64, buf: &[u8]) -> io::Result<()> {
        let at = pos % self.capacity;
        let first = (self.capacity - at).min(buf.len() as u64) as usize;
        self.file.write_all_at(&buf[..first], HEADER_LEN + at)?;
        if first < buf.len() {
            self.file.write_all_at(&buf[first..], HEADER_LEN)?;
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes from absolute stream position `pos` (the
    /// caller guarantees they are available).
    fn read_data(&self, pos: u64, buf: &mut [u8]) -> io::Result<()> {
        let at = pos % self.capacity;
        let first = (self.capacity - at).min(buf.len() as u64) as usize;
        self.file
            .read_exact_at(&mut buf[..first], HEADER_LEN + at)?;
        if buf.len() > first {
            self.file.read_exact_at(&mut buf[first..], HEADER_LEN)?;
        }
        Ok(())
    }
}

// ---- framed channel --------------------------------------------------------

/// One connection's pair of rings, viewed from one side. Implements the
/// same [`FrameIo`] contract as a TCP socket: blocking framed send/receive
/// with a receive deadline and prompt errors on peer death.
struct ShmChannel {
    /// Ring this side produces into.
    tx: Ring,
    /// Ring this side consumes from.
    rx: Ring,
    /// Our producer cursor: bytes written into the ring so far.
    tx_tail: u64,
    /// The value of `tx_tail` last stored in the ring header, i.e. what the
    /// consumer can see.
    tx_published: u64,
    /// Our consumer cursor (authoritative local copy of `rx.head`).
    rx_head: u64,
    /// Last `tx.head` observed; refreshed only when space runs out.
    tx_head_cache: u64,
    /// Last `rx.tail` observed; refreshed only when data runs out.
    rx_tail_cache: u64,
    /// The process on the other side, watched while waiting.
    peer_pid: u32,
    recv_deadline: Option<Duration>,
}

impl ShmChannel {
    fn assemble(tx: Ring, rx: Ring, peer_pid: u32) -> io::Result<ShmChannel> {
        let tx_tail = tx.tail()?;
        let rx_head = rx.head()?;
        let tx_head_cache = tx.head()?;
        let rx_tail_cache = rx.tail()?;
        Ok(ShmChannel {
            tx,
            rx,
            tx_tail,
            tx_published: tx_tail,
            rx_head,
            tx_head_cache,
            rx_tail_cache,
            peer_pid,
            recv_deadline: None,
        })
    }

    /// One wait iteration: yield first (cheap, and the right move on a
    /// single core), then settle into sleeps that escalate from 50 µs to
    /// an 800 µs cap; check the peer's pid periodically so a killed
    /// process fails the wait within ~25 ms.
    ///
    /// Both knees matter on a shared core. Yielding hands the core
    /// straight to a runnable peer, but a long yield phase across several
    /// pollers is a context-switch storm that starves the one thread doing
    /// real work. Constant 50 µs sleeps are as bad for bulk transfers: a
    /// multi-megabyte ring write gets preempted by every waiter's wakeup,
    /// measured as a >10x throughput collapse with three pollers on one
    /// core. Escalation keeps the hand-off latency of short sleeps while
    /// long waits decay into a once-a-millisecond heartbeat.
    fn pause(&self, iters: &mut u32) -> io::Result<()> {
        *iters = iters.wrapping_add(1);
        if *iters >= 64 && (*iters).is_multiple_of(32) && !pid_alive(self.peer_pid) {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionReset,
                format!("peer process {} is gone", self.peer_pid),
            ));
        }
        if *iters < 64 {
            std::thread::yield_now();
        } else {
            let exp = ((*iters - 64) / 8).min(4);
            std::thread::sleep(Duration::from_micros(50 << exp));
        }
        Ok(())
    }

    /// Blocking bounded-buffer write of the whole of `buf` into the ring, in
    /// chunks as space frees (ring backpressure). The bytes become visible
    /// to the consumer at the next [`publish`](Self::publish) — which this
    /// does itself only when the ring is full and the consumer must drain
    /// before the rest fits.
    fn send_bytes(&mut self, mut buf: &[u8]) -> io::Result<()> {
        let mut iters = 0u32;
        while !buf.is_empty() {
            let mut free = self.tx.capacity - (self.tx_tail - self.tx_head_cache);
            if free == 0 {
                self.publish()?;
                self.tx_head_cache = self.tx.head()?;
                free = self.tx.capacity - (self.tx_tail - self.tx_head_cache);
            }
            if free == 0 {
                self.pause(&mut iters)?;
                continue;
            }
            let n = free.min(buf.len() as u64) as usize;
            self.tx.write_data(self.tx_tail, &buf[..n])?;
            self.tx_tail += n as u64;
            buf = &buf[n..];
        }
        Ok(())
    }

    /// Publishes the producer cursor if bytes were written since the last
    /// publish.
    fn publish(&mut self) -> io::Result<()> {
        if self.tx_published != self.tx_tail {
            self.tx.set_tail(self.tx_tail)?;
            self.tx_published = self.tx_tail;
        }
        Ok(())
    }
}

/// The consuming side as a byte stream, so frames are read by the same
/// bounded [`read_frame`] as on a socket.
impl io::Read for ShmChannel {
    /// Blocks until at least one byte is available and reads what is,
    /// honoring the receive deadline (expiry surfaces as `WouldBlock`, like
    /// a socket timeout). `Ok(0)` is end-of-connection: the producer set
    /// its close flag and everything it published has been drained.
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let limit = self.recv_deadline.map(|d| Instant::now() + d);
        let mut iters = 0u32;
        loop {
            if self.rx_tail_cache == self.rx_head {
                self.rx_tail_cache = self.rx.tail()?;
            }
            // A producer cursor behind ours is a corrupt (or hostile) ring.
            let avail = self
                .rx_tail_cache
                .checked_sub(self.rx_head)
                .ok_or_else(|| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        "ring producer cursor moved backwards",
                    )
                })?;
            if avail == 0 {
                if self.rx.closed()? {
                    // Drain check once more: close happens after the final
                    // bytes are published.
                    self.rx_tail_cache = self.rx.tail()?;
                    if self.rx_tail_cache == self.rx_head {
                        return Ok(0);
                    }
                    continue;
                }
                if limit.is_some_and(|limit| Instant::now() >= limit) {
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        "ring read deadline expired",
                    ));
                }
                self.pause(&mut iters)?;
                continue;
            }
            let n = avail.min(buf.len() as u64) as usize;
            self.rx.read_data(self.rx_head, &mut buf[..n])?;
            self.rx_head += n as u64;
            self.rx.set_head(self.rx_head)?;
            return Ok(n);
        }
    }
}

impl FrameIo for ShmChannel {
    /// Header and parts go into the ring back to back and become visible
    /// with one cursor publish per frame (more only when the frame outgrows
    /// the ring's free space and has to stream through).
    fn send_frame_parts(&mut self, parts: &[&[u8]]) -> io::Result<usize> {
        let header = frame_header(parts)?;
        self.send_bytes(&header)?;
        for part in parts {
            self.send_bytes(part)?;
        }
        self.publish()?;
        Ok(header.len() + u32::from_le_bytes(header) as usize)
    }

    fn recv_frame(&mut self) -> io::Result<Vec<u8>> {
        read_frame(self)
    }

    fn set_recv_deadline(&mut self, deadline: Option<Duration>) {
        self.recv_deadline = deadline;
    }
}

impl Drop for ShmChannel {
    fn drop(&mut self) {
        // A clean hang-up: the consumer drains what is left, then sees
        // end-of-connection — exactly a socket FIN.
        let _ = self.tx.set_closed();
    }
}

// ---- client side -----------------------------------------------------------

/// Per-process counter making connection directory names unique.
static CONN_COUNTER: AtomicU64 = AtomicU64::new(0);

struct ShmDialer {
    dir: PathBuf,
    options: ShmOptions,
}

impl ShmDialer {
    /// Waits for a live `broker.meta` within the connect budget and returns
    /// the broker's pid — the same launch-order independence as the TCP
    /// dial retry loop.
    fn broker_pid(&self, stream_name: &str) -> Result<u32, StreamError> {
        let deadline = Instant::now() + self.options.wire.connect_timeout;
        loop {
            if let Ok(text) = fs::read_to_string(self.dir.join(BROKER_META)) {
                if let Ok(pid) = text.trim().parse::<u32>() {
                    if pid_alive(pid) {
                        return Ok(pid);
                    }
                }
            }
            if Instant::now() >= deadline {
                return Err(StreamError::Timeout {
                    stream: stream_name.to_string(),
                    waiting_for: "broker connection".to_string(),
                    timeout: self.options.wire.connect_timeout,
                    detail: format!("no live broker at shm://{}", self.dir.display()),
                });
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

impl Dialer for ShmDialer {
    fn backend(&self) -> &'static str {
        "shm"
    }

    fn dial(&self, stream_name: &str) -> Result<Box<dyn FrameIo>, StreamError> {
        let broker = self.broker_pid(stream_name)?;
        let setup = || -> io::Result<ShmChannel> {
            let name = format!(
                "conn-{}-{}",
                std::process::id(),
                CONN_COUNTER.fetch_add(1, Ordering::Relaxed)
            );
            // Create under a dot-name, then atomically rename: the broker's
            // accept scan only ever sees fully initialized connections.
            let tmp = self.dir.join(format!(".{name}"));
            let conn = self.dir.join(&name);
            fs::create_dir_all(&tmp)?;
            let capacity = self.options.ring_capacity as u64;
            let tx = Ring::create(&tmp.join("c2s.ring"), capacity)?;
            let rx = Ring::create(&tmp.join("s2c.ring"), capacity)?;
            fs::rename(&tmp, &conn)?;
            ShmChannel::assemble(tx, rx, broker)
        };
        match setup() {
            Ok(chan) => Ok(Box::new(chan)),
            Err(e) => Err(StreamError::PeerGone {
                stream: stream_name.to_string(),
                reason: format!("shm connection setup failed ({e})"),
            }),
        }
    }

    fn peer(&self) -> String {
        format!("shm://{}", self.dir.display())
    }
}

// ---- broker side -----------------------------------------------------------

/// Decrements the active-connection gauge even if the session panics.
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

/// The shared-memory broker: a directory-scan accept loop serving a local
/// in-proc [`StreamHub`] to same-host processes over ring files —
/// drop-in analogous to [`crate::tcp::TcpBroker`].
pub struct ShmBroker {
    hub: Arc<StreamHub>,
    dir: PathBuf,
    shutdown: Arc<AtomicBool>,
    active: Arc<AtomicUsize>,
    seen: Arc<AtomicUsize>,
    accept: Option<JoinHandle<()>>,
}

impl ShmBroker {
    /// Creates the rendezvous directory at `path` (an `shm://DIR` URL or a
    /// bare directory path) in front of a fresh in-proc hub.
    pub fn bind(path: &str) -> io::Result<ShmBroker> {
        Self::serve(StreamHub::new(), path)
    }

    /// Binds `path` in front of an existing in-proc hub — the broker
    /// process can then also run components of its own on `hub` directly.
    pub fn serve(hub: Arc<StreamHub>, path: &str) -> io::Result<ShmBroker> {
        if hub.backend() != "inproc" {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "an ShmBroker must front an in-proc hub, not another remote transport",
            ));
        }
        let dir = match path.strip_prefix("shm://") {
            Some(_) => parse_shm_url(path)?,
            None => PathBuf::from(path),
        };
        if dir.as_os_str().is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "shm broker path names no directory",
            ));
        }
        fs::create_dir_all(&dir)?;
        let meta = dir.join(BROKER_META);
        if let Ok(text) = fs::read_to_string(&meta) {
            if let Ok(pid) = text.trim().parse::<u32>() {
                // A stale meta (dead pid, e.g. a crashed broker) is
                // reclaimed; a live one — including this process's own —
                // is refused like a bound socket address.
                if pid_alive(pid) {
                    return Err(io::Error::new(
                        io::ErrorKind::AddrInUse,
                        format!("a live broker (pid {pid}) already serves {}", dir.display()),
                    ));
                }
            }
        }
        // Publish atomically so a dialing client never reads a partial pid.
        let tmp_meta = dir.join(".broker.meta.tmp");
        fs::write(&tmp_meta, format!("{}\n", std::process::id()))?;
        fs::rename(&tmp_meta, &meta)?;

        let shutdown = Arc::new(AtomicBool::new(false));
        let active = Arc::new(AtomicUsize::new(0));
        let seen = Arc::new(AtomicUsize::new(0));
        let relays = Arc::new(RelayTable::default());
        let accept = {
            let hub = Arc::clone(&hub);
            let dir = dir.clone();
            let shutdown = Arc::clone(&shutdown);
            let active = Arc::clone(&active);
            let seen = Arc::clone(&seen);
            std::thread::Builder::new()
                .name("sb-shm-broker".to_string())
                .spawn(move || {
                    let mut served: HashSet<OsString> = HashSet::new();
                    while !shutdown.load(Ordering::SeqCst) {
                        let mut current: HashSet<OsString> = HashSet::new();
                        if let Ok(entries) = fs::read_dir(&dir) {
                            for entry in entries.flatten() {
                                let name = entry.file_name();
                                if name.to_string_lossy().starts_with("conn-") {
                                    current.insert(name);
                                }
                            }
                        }
                        // Names of finished sessions leave the directory;
                        // forget them so the set stays bounded.
                        served.retain(|name| current.contains(name));
                        for name in current {
                            if !served.insert(name.clone()) {
                                continue;
                            }
                            let path = dir.join(&name);
                            let Ok(chan) = accept_conn(&path, &name) else {
                                // Unreadable or half-written: discard so it
                                // is not rescanned forever.
                                let _ = fs::remove_dir_all(&path);
                                continue;
                            };
                            active.fetch_add(1, Ordering::SeqCst);
                            seen.fetch_add(1, Ordering::SeqCst);
                            let guard = ConnGuard(Arc::clone(&active));
                            let hub = Arc::clone(&hub);
                            let relays = Arc::clone(&relays);
                            let _ = std::thread::Builder::new()
                                .name("sb-shm-session".to_string())
                                .spawn(move || {
                                    let _guard = guard;
                                    let mut chan = chan;
                                    let _ = serve_session(&hub, &relays, &mut chan, true);
                                    // Hang up (close flag) before removing
                                    // the directory; the client's open file
                                    // descriptors outlive the unlink.
                                    drop(chan);
                                    let _ = fs::remove_dir_all(&path);
                                });
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                })?
        };
        Ok(ShmBroker {
            hub,
            dir,
            shutdown,
            active,
            seen,
            accept: Some(accept),
        })
    }

    /// The rendezvous directory this broker scans.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The `shm://…` URL remote hubs connect to.
    pub fn url(&self) -> String {
        format!("shm://{}", self.dir.display())
    }

    /// The fronted in-proc hub.
    pub fn hub(&self) -> &Arc<StreamHub> {
        &self.hub
    }

    /// Currently open client connections (endpoints plus control channels).
    pub fn active_connections(&self) -> usize {
        self.active.load(Ordering::SeqCst)
    }

    /// Total connections ever accepted. Monotonic, so unlike
    /// [`active_connections`](Self::active_connections) a poll loop cannot
    /// miss a client that connected and left between two samples.
    pub fn connections_seen(&self) -> usize {
        self.seen.load(Ordering::SeqCst)
    }

    /// Stops accepting connections; existing sessions run until their
    /// clients hang up.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        let _ = fs::remove_file(self.dir.join(BROKER_META));
        // Gone only if no connection directories remain.
        let _ = fs::remove_dir(&self.dir);
    }
}

impl Drop for ShmBroker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Opens the broker-side view of a freshly published connection directory.
fn accept_conn(path: &Path, name: &OsString) -> io::Result<ShmChannel> {
    let pid = name
        .to_string_lossy()
        .strip_prefix("conn-")
        .and_then(|rest| rest.split('-').next().map(str::to_string))
        .and_then(|p| p.parse::<u32>().ok())
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("connection directory {} has no pid", path.display()),
            )
        })?;
    // Mirror of the client's view: our tx is the client's rx.
    let rx = Ring::open(&path.join("c2s.ring"))?;
    let tx = Ring::open(&path.join("s2c.ring"))?;
    ShmChannel::assemble(tx, rx, pid)
}

// Tests live in `tests/` alongside the TCP conformance suite and in the
// module below.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::StepStatus;
    use crate::stream::WriterOptions;
    use sb_data::{Buffer, Chunk, Region, Shape, Variable};

    /// A fresh rendezvous directory under the system temp dir (no tempfile
    /// crate in-tree); removed by the broker's shutdown when it empties.
    fn scratch_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sb-shm-{tag}-{}-{}",
            std::process::id(),
            CONN_COUNTER.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn var(vals: Vec<f64>) -> Variable {
        Variable::new("x", Shape::linear("n", vals.len()), Buffer::F64(vals)).unwrap()
    }

    #[test]
    fn shm_round_trip_single_stream() {
        let dir = scratch_dir("rt");
        let broker = ShmBroker::bind(dir.to_str().unwrap()).unwrap();
        let hub = StreamHub::connect(&broker.url()).unwrap();
        assert_eq!(hub.backend(), "shm");

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
        assert_eq!(
            metrics.wire_shm_bytes, metrics.bytes_on_wire,
            "every hop byte crossed the shm fabric"
        );
    }

    #[test]
    fn shm_mxn_redistribution_across_connections() {
        let dir = scratch_dir("mxn");
        let broker = ShmBroker::bind(dir.to_str().unwrap()).unwrap();
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
    fn shm_noisy_disconnect_surfaces_peer_gone_promptly() {
        let dir = scratch_dir("kill");
        let broker = ShmBroker::bind(dir.to_str().unwrap()).unwrap();
        let hub = StreamHub::connect(&broker.url()).unwrap();
        hub.set_wait_timeout(Duration::from_secs(30));

        let mut w = hub.open_writer("k.fp", 0, 1, WriterOptions::default());
        w.begin_step().unwrap();
        w.put_whole(var(vec![1.0]));
        w.end_step().unwrap();
        // Noisy terminator — the ring-channel analog of a SIGKILLed client
        // whose death the session notices. The reader must fail promptly,
        // not after the 30 s hub timeout.
        w.disconnect();

        let mut r = hub.open_reader("k.fp", 0, 1);
        assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
        r.end_step();
        let start = Instant::now();
        let err = r.begin_step().unwrap_err();
        assert!(
            matches!(err, StreamError::PeerGone { .. }),
            "expected PeerGone, got {err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_secs(10),
            "PeerGone took {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn shm_v1_and_compressed_v2_round_trip() {
        use crate::tcp::WireProtocol;
        use sb_data::wire::Compression;
        for (proto, comp) in [
            (WireProtocol::V1, Compression::None),
            (WireProtocol::V2, Compression::Lz),
        ] {
            let dir = scratch_dir("proto");
            let broker = ShmBroker::bind(dir.to_str().unwrap()).unwrap();
            let options = TcpOptions::default()
                .with_protocol(proto)
                .with_compression(comp);
            let hub = StreamHub::connect_with(&broker.url(), options).unwrap();

            let mut w = hub.open_writer("p.fp", 0, 1, WriterOptions::default());
            // Compressible payload: long runs.
            let vals: Vec<f64> = (0..512).map(|i| (i / 64) as f64).collect();
            w.begin_step().unwrap();
            w.put_whole(var(vals.clone()));
            w.end_step().unwrap();
            w.close();

            let mut r = hub.open_reader("p.fp", 0, 1);
            assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
            assert_eq!(r.get_whole("x").unwrap().data.to_f64_vec(), vals);
            r.end_step();
            assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);
        }
    }

    #[test]
    fn stale_broker_meta_is_replaced_and_double_bind_refused() {
        let dir = scratch_dir("meta");
        fs::create_dir_all(&dir).unwrap();
        // A stale meta from a crashed broker (dead pid) must not block.
        fs::write(dir.join(BROKER_META), "4294967294\n").unwrap();
        let broker = ShmBroker::bind(dir.to_str().unwrap()).unwrap();
        // A second live broker on the same directory must be refused.
        let err = match ShmBroker::bind(dir.to_str().unwrap()) {
            Err(e) => e,
            Ok(_) => panic!("double bind must be refused"),
        };
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        drop(broker);
    }

    /// Two channel ends over a fresh pair of ring files of `capacity` bytes.
    fn channel_pair(tag: &str, capacity: u64) -> (ShmChannel, ShmChannel, PathBuf) {
        let dir = scratch_dir(tag);
        fs::create_dir_all(&dir).unwrap();
        let a2b = Ring::create(&dir.join("a2b.ring"), capacity).unwrap();
        let b2a = Ring::create(&dir.join("b2a.ring"), capacity).unwrap();
        let a2b2 = Ring::open(&dir.join("a2b.ring")).unwrap();
        let b2a2 = Ring::open(&dir.join("b2a.ring")).unwrap();
        let me = std::process::id();
        let side_a = ShmChannel::assemble(a2b, b2a, me).unwrap();
        let side_b = ShmChannel::assemble(b2a2, a2b2, me).unwrap();
        (side_a, side_b, dir)
    }

    #[test]
    fn multi_part_frames_larger_than_the_ring_stream_through() {
        let (mut side_a, mut side_b, dir) = channel_pair("parts", 4096);
        let big: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
        let whole: Vec<u8> = [b"head".as_slice(), &big, b"tail"].concat();
        let rx = std::thread::spawn(move || {
            let first = side_b.recv_frame().unwrap();
            let second = side_b.recv_frame().unwrap();
            (first, second)
        });
        let sent = side_a
            .send_frame_parts(&[b"head", &[], &big, b"tail"])
            .unwrap();
        assert_eq!(sent, 4 + whole.len());
        // A frame that fits the free space is one publish: nothing of it is
        // visible to the peer until it is complete.
        side_a.send_bytes(&3u32.to_le_bytes()).unwrap();
        side_a.send_bytes(b"ack").unwrap();
        assert_ne!(side_a.tx_published, side_a.tx_tail);
        side_a.publish().unwrap();
        let (first, second) = rx.join().unwrap();
        assert_eq!(first, whole);
        assert_eq!(second, b"ack");
        let _ = fs::remove_dir_all(&dir);
    }

    /// Throughput probe (`--ignored`; prints, asserts only delivery): raw
    /// ring frame pump between two threads, no wire protocol, no hub.
    /// Useful for separating ring-fabric cost from codec cost when bench
    /// numbers move. The first pass runs on cold (unfaulted) ring pages,
    /// the second on warm ones — expect an order-of-magnitude gap.
    #[test]
    #[ignore]
    fn ring_throughput_probe() {
        let (mut side_a, mut side_b, dir) = channel_pair("tp", 32 << 20);

        const STEPS: usize = 12;
        const LEN: usize = 6 << 20;
        let payload = vec![7u8; LEN];

        // Sequential (same thread, no contention): pure syscall + copy cost.
        let t0 = Instant::now();
        for _ in 0..STEPS {
            side_a.send_frame(&payload).unwrap();
            let got = side_b.recv_frame().unwrap();
            assert_eq!(got.len(), LEN);
        }
        let dt = t0.elapsed();
        eprintln!(
            "sequential: {:.2} GB/s, {:.2} ms/step",
            (STEPS * LEN) as f64 / dt.as_secs_f64() / 1e9,
            dt.as_secs_f64() * 1e3 / STEPS as f64
        );

        let t0 = Instant::now();
        let rx = std::thread::spawn(move || {
            let mut total = 0usize;
            for _ in 0..STEPS {
                total += side_b.recv_frame().unwrap().len();
                side_b.send_frame(b"ack").unwrap();
            }
            total
        });
        for _ in 0..STEPS {
            side_a.send_frame(&payload).unwrap();
            assert_eq!(side_a.recv_frame().unwrap(), b"ack");
        }
        let total = rx.join().unwrap();
        let dt = t0.elapsed();
        eprintln!(
            "ring pump: {total} bytes in {dt:?} = {:.2} GB/s, {:.2} ms/step",
            total as f64 / dt.as_secs_f64() / 1e9,
            dt.as_secs_f64() * 1e3 / STEPS as f64
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_shm_url_is_rejected() {
        assert!(parse_shm_url("tcp://127.0.0.1:4000").is_err());
        assert!(parse_shm_url("shm://").is_err());
        assert!(StreamHub::connect("shm://").is_err());
    }
}
