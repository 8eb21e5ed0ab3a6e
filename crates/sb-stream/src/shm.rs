//! The same-host transport backend: the broker protocol of [`crate::tcp`]
//! carried over a Unix-domain stream socket instead of a TCP one.
//!
//! A `shm://DIR` URL names a rendezvous directory. One process runs a
//! [`ShmBroker`], which listens on `DIR/broker.sock` in front of an ordinary
//! in-proc [`StreamHub`]; every other process calls [`StreamHub::connect`]
//! with the same URL and gets the exact same endpoint API. Client protocol,
//! broker sessions, framing and accept loop are the TCP backend's, shared
//! through the `Socket` / `Dialer` / `BrokerCore` seams of [`crate::tcp`],
//! so the frames are byte-identical across fabrics and so are the goldens.
//!
//! The scheme is called `shm` for history's sake (the spec grammar, the
//! `wire_shm_bytes` ledger and the benchmark pin the name); read it as
//! "same host". The first implementation moved bytes through `pread`/`pwrite`
//! ring files — under `unsafe_code = "deny"` there is no `mmap`, so that was
//! a socket's two copies per byte plus a polled doorbell, hand-rolled. A
//! socket leaves waiting, backpressure and peer death to the kernel: a
//! blocked read wakes when bytes arrive, a full socket buffer blocks the
//! writer, and a closed or killed peer is an EOF — the noisy disconnect that
//! fails blocked readers with a prompt [`crate::StreamError::PeerGone`].
//!
//! ## Rendezvous rules
//!
//! * A `broker.sock` that refuses connections was left by a dead broker and
//!   is reclaimed; one that answers is a live broker and a second `bind` is
//!   refused with `AddrInUse`, like a bound TCP port.
//! * `sun_path` holds 108 bytes. A longer `DIR/broker.sock` is reached
//!   through the opened directory (`/proc/self/fd/<dirfd>/broker.sock`), so
//!   deep rendezvous directories need no option.
//! * [`ShmBroker::shutdown`] unlinks the socket and removes `DIR` (if nothing
//!   else was put there).

use std::fs::{self, File};
use std::io;
use std::os::fd::AsRawFd;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use crate::error::StreamError;
use crate::hub::StreamHub;
use crate::tcp::{
    dial_retry, BrokerCore, Dialer, FrameIo, Framed, Socket, TcpOptions, TcpTransport,
};
use crate::trace::Tracer;

/// Name of the broker's listening socket inside the `shm://` directory.
const SOCKET_NAME: &str = "broker.sock";

/// Size of `sockaddr_un.sun_path`, terminating NUL included.
const SUN_PATH_MAX: usize = 108;

impl Socket for UnixStream {
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        UnixStream::set_read_timeout(self, timeout)
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

/// Runs `f` on a path to `dir`'s socket that fits `sun_path`: the plain one
/// when it is short enough, else one through the opened directory.
fn with_socket_path<T>(dir: &Path, f: impl FnOnce(&Path) -> io::Result<T>) -> io::Result<T> {
    let plain = dir.join(SOCKET_NAME);
    if plain.as_os_str().len() < SUN_PATH_MAX {
        return f(&plain);
    }
    let dir = File::open(dir)?;
    let via_fd = format!("/proc/self/fd/{}/{SOCKET_NAME}", dir.as_raw_fd());
    f(Path::new(&via_fd))
}

/// Assembles the client-side transport for `shm://DIR`: the full TCP
/// client protocol over a Unix-socket dialer.
pub(crate) fn connect(
    url: &str,
    options: TcpOptions,
    wait_timeout_micros: Arc<AtomicU64>,
    tracer: Arc<Tracer>,
) -> io::Result<TcpTransport> {
    let dir = parse_shm_url(url)?;
    Ok(TcpTransport::with_dialer(
        Box::new(ShmDialer { dir, options }),
        options,
        wait_timeout_micros,
        tracer,
    ))
}

struct ShmDialer {
    dir: PathBuf,
    options: TcpOptions,
}

impl Dialer for ShmDialer {
    fn backend(&self) -> &'static str {
        "shm"
    }

    fn dial(&self, stream_name: &str) -> Result<Box<dyn FrameIo>, StreamError> {
        // A missing directory or socket is a broker still coming up.
        let sock = dial_retry(&self.peer(), &self.options, stream_name, |_budget| {
            with_socket_path(&self.dir, |path| UnixStream::connect(path))
        })?;
        Ok(Box::new(Framed::new(sock)))
    }

    fn peer(&self) -> String {
        format!("shm://{}", self.dir.display())
    }
}

/// Binds `dir`'s socket, reclaiming a stale one and refusing a live one.
fn bind_socket(dir: &Path) -> io::Result<UnixListener> {
    with_socket_path(dir, |path| match UnixListener::bind(path) {
        Err(e) if e.kind() == io::ErrorKind::AddrInUse => match UnixStream::connect(path) {
            Ok(_) => Err(io::Error::new(
                io::ErrorKind::AddrInUse,
                format!("a live broker already serves {}", dir.display()),
            )),
            Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {
                fs::remove_file(path)?;
                UnixListener::bind(path)
            }
            Err(e) => Err(e),
        },
        bound => bound,
    })
}

/// The same-host broker: [`crate::tcp::TcpBroker`]'s accept loop and
/// sessions behind a Unix-domain socket in a rendezvous directory.
pub struct ShmBroker {
    core: BrokerCore,
    dir: PathBuf,
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
        BrokerCore::require_inproc(&hub, "an ShmBroker")?;
        let dir = PathBuf::from(path.strip_prefix("shm://").unwrap_or(path));
        if dir.as_os_str().is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "shm broker path names no directory",
            ));
        }
        fs::create_dir_all(&dir)?;
        let listener = bind_socket(&dir)?;
        let core = BrokerCore::start(hub, true, move || listener.accept().map(|(sock, _)| sock))?;
        Ok(ShmBroker { core, dir })
    }

    /// The rendezvous directory holding this broker's socket.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The `shm://…` URL remote hubs connect to.
    pub fn url(&self) -> String {
        format!("shm://{}", self.dir.display())
    }

    /// The fronted in-proc hub.
    pub fn hub(&self) -> &Arc<StreamHub> {
        self.core.hub()
    }

    /// Currently open client connections (endpoints plus control channels).
    pub fn active_connections(&self) -> usize {
        self.core.active_connections()
    }

    /// Steps of `stream` the relay cache currently holds encoded bytes for
    /// (diagnostics, as [`crate::tcp::TcpBroker::relay_cached_steps`]).
    #[doc(hidden)]
    pub fn relay_cached_steps(&self, stream: &str) -> usize {
        self.core.relay_cached_steps(stream)
    }

    /// Total connections ever accepted. Monotonic, so unlike
    /// [`active_connections`](Self::active_connections) a poll loop cannot
    /// miss a client that connected and left between two samples.
    pub fn connections_seen(&self) -> usize {
        self.core.connections_seen()
    }

    /// Stops accepting connections and removes the socket and the
    /// rendezvous directory; existing sessions run until their clients hang
    /// up.
    pub fn shutdown(&mut self) {
        let dir = &self.dir;
        let wake = || with_socket_path(dir, |path| UnixStream::connect(path)).map(drop);
        if self.core.stop(wake) {
            let _ = fs::remove_file(dir.join(SOCKET_NAME));
            let _ = fs::remove_dir(dir);
        }
    }
}

impl Drop for ShmBroker {
    fn drop(&mut self) {
        self.shutdown();
    }
}

// Tests live in `tests/` alongside the TCP conformance suite and in the
// module below.
#[cfg(test)]
mod tests {
    use super::*;
    use crate::reader::StepStatus;
    use crate::stream::WriterOptions;
    use sb_data::{Buffer, Chunk, Region, Shape, Variable};
    use std::sync::atomic::Ordering;
    use std::time::Instant;

    /// A fresh rendezvous directory under the system temp dir (no tempfile
    /// crate in-tree); removed by the broker's shutdown.
    fn scratch_dir(tag: &str) -> PathBuf {
        static SERIAL: AtomicU64 = AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "sb-shm-{tag}-{}-{}",
            std::process::id(),
            SERIAL.fetch_add(1, Ordering::Relaxed)
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
        // Noisy terminator — what the session makes of a SIGKILLed client's
        // EOF. The reader must fail promptly, not after the 30 s hub
        // timeout.
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
    fn stale_socket_is_reclaimed_and_double_bind_refused() {
        let dir = scratch_dir("stale");
        fs::create_dir_all(&dir).unwrap();
        // What a crashed broker leaves: a bound socket file nobody listens
        // on. It must not block the next broker.
        drop(UnixListener::bind(dir.join(SOCKET_NAME)).unwrap());
        let mut broker = ShmBroker::bind(dir.to_str().unwrap()).unwrap();
        // A second live broker on the same directory must be refused, and
        // must leave the first one's socket serving.
        let err = match ShmBroker::bind(dir.to_str().unwrap()) {
            Err(e) => e,
            Ok(_) => panic!("double bind must be refused"),
        };
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        let hub = StreamHub::connect(&broker.url()).unwrap();
        let mut w = hub.open_writer("s.fp", 0, 1, WriterOptions::default());
        w.begin_step().unwrap();
        w.end_step().unwrap();
        w.close();
        drop(hub);
        // Shutdown leaves nothing behind, and a repeat is a no-op.
        broker.shutdown();
        assert!(!dir.exists(), "{} survived shutdown", dir.display());
        broker.shutdown();
    }

    /// `sun_path` holds 108 bytes; a rendezvous directory well past that
    /// must bind, connect, wake and unlink all the same.
    #[test]
    fn rendezvous_path_longer_than_sun_path_round_trips_a_step() {
        let root = scratch_dir("deep");
        let dir = root.join("d".repeat(100)).join("e".repeat(100));
        assert!(dir.as_os_str().len() >= 200);
        let mut broker = ShmBroker::bind(&format!("shm://{}", dir.display())).unwrap();
        let hub = StreamHub::connect(&broker.url()).unwrap();

        let mut w = hub.open_writer("deep.fp", 0, 1, WriterOptions::default());
        w.begin_step().unwrap();
        w.put_whole(var(vec![4.0, 2.0]));
        w.end_step().unwrap();
        w.close();
        let mut r = hub.open_reader("deep.fp", 0, 1);
        assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(0));
        assert_eq!(r.get_whole("x").unwrap().data.to_f64_vec(), vec![4.0, 2.0]);
        r.end_step();
        assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);

        drop((w, r, hub));
        broker.shutdown();
        assert!(!dir.exists(), "{} survived shutdown", dir.display());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn bad_shm_url_is_rejected() {
        assert!(parse_shm_url("tcp://127.0.0.1:4000").is_err());
        assert!(parse_shm_url("shm://").is_err());
        assert!(StreamHub::connect("shm://").is_err());
    }
}
