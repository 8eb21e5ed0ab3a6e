//! Frames a well-behaved client never sends, written to a broker from a raw
//! socket: the outcome is a typed hang-up or an honest reply, never a panic,
//! a freed step, or an allocation the frame merely names.
//!
//! Both brokers read frames through one bounded reader that reserves at
//! most 4 MiB ahead of the bytes that have actually arrived, and decode a
//! step while it arrives into payload buffers held to the same stride. The
//! first tests send each of them a 1 GiB length prefix, or a chunk header
//! claiming a 1 GiB payload, followed by a hang-up and watch the process's
//! live heap through a counting allocator — the only vantage point from
//! which "did not allocate a gigabyte" is observable.
//! The tests of this binary take turns ([`SERIAL`]) so that nothing else
//! moves the counters meanwhile.

#![allow(unsafe_code)] // the `GlobalAlloc` forwarding impl below, nothing else

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_data::compress::lz_decompress;
use sb_data::container::ContainerReader;
use sb_data::cursor::{put_str, put_u16, put_u32, put_u64};
use sb_data::wire::{
    decode_chunk_interned, encode_chunk_interned, encode_meta, encode_region, Compression,
    MetaDefs, MetaInternTable,
};
use sb_data::{Buffer, Chunk, DType, DataError, Region, Shape, VariableMeta};
use sb_integration_tests::wait_until;
use sb_stream::{ShmBroker, StepStatus, StreamHub, TcpBroker, WriterOptions};

/// One test at a time: the heap counters are process-wide.
static SERIAL: Mutex<()> = Mutex::new(());

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are side effects only and never
// allocate.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` obligations pass straight through.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    // Forwarded rather than defaulted: the default zeroes by hand, which
    // would touch every page of the very allocation this test must catch.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`; `new_size` is the caller's obligation.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
            grew(new_size);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The transports' frame cap: the largest prefix a receiver does not reject
/// outright, so the one that reaches the body reader.
const FORGED_LEN: u32 = 1 << 30;
/// The most a receiver reserves ahead of arrived bytes, for a frame and
/// again for a payload decoded out of it.
const STRIDE: usize = 4 << 20;
/// One receive stride, plus room for everything else a session allocates.
const BUDGET: usize = STRIDE + (1 << 20);

/// Runs `attack` and returns how far the live heap rose above where it
/// stood when the attack began.
fn heap_rise_during(attack: impl FnOnce()) -> usize {
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    attack();
    PEAK.load(Ordering::SeqCst).saturating_sub(before)
}

/// Sends the forged prefix plus a hang-up down `sock` and returns how far
/// the heap rose until the broker session serving it gave up.
fn forged_prefix_cost(mut sock: impl Write, session_over: impl Fn() -> bool) -> usize {
    let mut forged = FORGED_LEN.to_le_bytes().to_vec();
    forged.extend_from_slice(b"and then nothing");
    heap_rise_during(|| {
        sock.write_all(&forged).unwrap();
        drop(sock);
        wait_until("the session to give up", session_over);
    })
}

#[test]
fn a_forged_gigabyte_prefix_costs_one_stride_on_both_fabrics() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    let sock = TcpStream::connect(broker.local_addr()).unwrap();
    let rise = forged_prefix_cost(sock, || {
        broker.connections_seen() == 1 && broker.active_connections() == 0
    });
    assert!(rise <= BUDGET, "tcp session allocated {rise} bytes");

    let dir = shm_dir("prefix");
    let broker = ShmBroker::bind(&dir.to_string_lossy()).unwrap();
    let sock = UnixStream::connect(dir.join("broker.sock")).unwrap();
    let rise = forged_prefix_cost(sock, || {
        broker.connections_seen() == 1 && broker.active_connections() == 0
    });
    assert!(rise <= BUDGET, "shm session allocated {rise} bytes");
    drop(broker);
    assert!(
        !dir.exists(),
        "shutdown must remove the rendezvous directory"
    );
}

// ---- reader sessions driven from a raw socket ------------------------------

const HELLO_READER: u8 = 0x02;
const R_BEGIN: u8 = 0x20;
const R_RELEASE: u8 = 0x21;
const REPLY_STEP: u8 = 0x82;

/// How long a raw socket waits for the broker to answer or hang up.
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// A broker of either fabric, its in-proc hub, and a way to dial it raw.
struct Target {
    hub: Arc<StreamHub>,
    url: String,
    dial: Box<dyn Fn() -> Box<dyn RawSocket>>,
    broker: Box<dyn Broker>,
}

/// What a test watches of either broker.
trait Broker {
    fn active_connections(&self) -> usize;
}

impl Broker for TcpBroker {
    fn active_connections(&self) -> usize {
        TcpBroker::active_connections(self)
    }
}

impl Broker for ShmBroker {
    fn active_connections(&self) -> usize {
        ShmBroker::active_connections(self)
    }
}

trait RawSocket: Read + Write {}
impl<S: Read + Write> RawSocket for S {}

fn shm_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sb-hostile-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn targets(tag: &str) -> Vec<Target> {
    let tcp = TcpBroker::bind("127.0.0.1:0").unwrap();
    let addr = tcp.local_addr();
    let dir = shm_dir(tag);
    let shm = ShmBroker::bind(&dir.to_string_lossy()).unwrap();
    vec![
        Target {
            hub: Arc::clone(tcp.hub()),
            url: tcp.url(),
            dial: Box::new(move || {
                let sock = TcpStream::connect(addr).unwrap();
                sock.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
                Box::new(sock)
            }),
            broker: Box::new(tcp),
        },
        Target {
            hub: Arc::clone(shm.hub()),
            url: shm.url(),
            dial: Box::new(move || {
                let sock = UnixStream::connect(dir.join("broker.sock")).unwrap();
                sock.set_read_timeout(Some(READ_TIMEOUT)).unwrap();
                Box::new(sock)
            }),
            broker: Box::new(shm),
        },
    ]
}

fn send_frame(sock: &mut dyn RawSocket, payload: &[u8]) {
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(payload);
    sock.write_all(&frame).unwrap();
}

/// The next frame, or `None` once the broker has hung up. A broker that
/// neither answers nor hangs up fails the test at the read timeout.
fn recv_frame(sock: &mut dyn RawSocket) -> Option<Vec<u8>> {
    let mut len = [0u8; 4];
    match sock.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => panic!("the broker went silent"),
        Err(e) if e.kind() == std::io::ErrorKind::TimedOut => panic!("the broker went silent"),
        Err(_) => return None,
    }
    let mut body = vec![0u8; u32::from_le_bytes(len) as usize];
    sock.read_exact(&mut body).unwrap();
    Some(body)
}

/// Opens a v2, uncompressed reader session by hand and returns the socket
/// past its `REPLY_STARTED`.
fn raw_reader(
    target: &Target,
    stream: &str,
    group: &str,
    rank: u32,
    nranks: u32,
) -> Box<dyn RawSocket> {
    let mut sock = (target.dial)();
    let mut hello = vec![HELLO_READER];
    put_str(&mut hello, stream).unwrap();
    put_str(&mut hello, group).unwrap();
    hello.extend_from_slice(&rank.to_le_bytes());
    hello.extend_from_slice(&nranks.to_le_bytes());
    hello.extend_from_slice(&[2, 0]);
    send_frame(&mut *sock, &hello);
    recv_frame(&mut *sock).expect("a REPLY_STARTED");
    sock
}

/// Asserts that the broker answered `what` with a refusal that ends the
/// session, the one frame the client's next fetch reads, and then hung up.
fn assert_refused_then_closed(sock: &mut dyn RawSocket, what: &str) {
    let reply = recv_frame(sock).unwrap_or_else(|| panic!("{what}: hung up without a refusal"));
    assert_eq!(reply[0], REPLY_REFUSED, "{what} tolerated");
    assert!(
        recv_frame(sock).is_none(),
        "{what}: the connection outlived its refusal"
    );
}

fn step_verb(op: u8, step: u64, trailer: &[u8]) -> Vec<u8> {
    let mut frame = vec![op];
    frame.extend_from_slice(&step.to_le_bytes());
    frame.extend_from_slice(trailer);
    frame
}

/// Commits `steps` steps of an `8 x 3` grid, written by two in-proc ranks of
/// four rows each, to `stream` on the broker's hub; from `shrink_at` on the
/// grid has only four rows (two per rank).
fn write_grid(hub: &Arc<StreamHub>, stream: &str, steps: u64, shrink_at: u64) {
    let options = WriterOptions::buffered(steps as usize);
    let mut writers: Vec<_> = (0..2)
        .map(|rank| hub.open_writer(stream, rank, 2, options))
        .collect();
    for step in 0..steps {
        let per_rank = if step < shrink_at { 4 } else { 2 };
        let meta = VariableMeta::new(
            "grid",
            Shape::of(&[("row", 2 * per_rank), ("col", 3)]),
            DType::F64,
        );
        for (rank, w) in writers.iter_mut().enumerate() {
            let region = Region::new(vec![rank * per_rank, 0], vec![per_rank, 3]);
            let data = (0..region.len()).map(|i| (step * 100) as f64 + (rank * 12 + i) as f64);
            w.begin_step().unwrap();
            w.put(Chunk::new(meta.clone(), region, Buffer::F64(data.collect())).unwrap());
            w.end_step().unwrap();
        }
    }
    for w in &mut writers {
        w.close();
    }
}

#[test]
fn a_release_is_honoured_only_for_the_step_the_connection_holds() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for target in targets("release") {
        let steps = 3u64;
        write_grid(&target.hub, "pair.fp", steps, steps);
        let consumed = || target.hub.metrics("pair.fp").unwrap().steps_consumed;

        // Rank 1 of a two-rank group forges releases: of a step far past
        // the queue, then of a committed step it never fetched. Each is
        // refused, costing it the connection and nothing else.
        for forged in [999, 0] {
            let mut sock = raw_reader(&target, "pair.fp", "g", 1, 2);
            send_frame(&mut *sock, &step_verb(R_RELEASE, forged, &[]));
            assert_refused_then_closed(&mut *sock, &format!("release of {forged}"));
        }

        // The honest rank 0 reads everything; step 0 stays held for rank 1.
        let remote = StreamHub::connect(&target.url).unwrap();
        let read_all = |rank: usize| {
            let mut r = remote.open_reader_grouped("pair.fp", "g", rank, 2);
            for step in 0..steps {
                assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(step));
                let grid = r.get_whole("grid").unwrap().data.to_f64_vec();
                assert_eq!(grid[23], (step * 100 + 23) as f64);
                r.end_step();
            }
            assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);
        };
        read_all(0);
        assert_eq!(consumed(), 0, "a forged release freed a step");
        // Whoever takes rank 1's place finds every step still there.
        read_all(1);
        wait_until("the group's releases to land", || consumed() == steps);

        // A second release of a step that was fetched and released once.
        write_grid(&target.hub, "solo.fp", steps, steps);
        let mut sock = raw_reader(&target, "solo.fp", "g", 0, 1);
        send_frame(&mut *sock, &step_verb(R_BEGIN, 0, &[]));
        assert_eq!(recv_frame(&mut *sock).unwrap()[0], REPLY_STEP);
        send_frame(&mut *sock, &step_verb(R_RELEASE, 0, &[]));
        send_frame(&mut *sock, &step_verb(R_RELEASE, 0, &[]));
        assert_refused_then_closed(&mut *sock, "double release");
        assert_eq!(target.hub.metrics("solo.fp").unwrap().steps_consumed, 1);
    }
}

/// The chunks of one `REPLY_STEP`, decoded with the definitions this
/// connection has been sent so far.
fn decode_reply(reply: &[u8], defs: &mut MetaDefs) -> Vec<Chunk> {
    assert_eq!(
        reply[0],
        REPLY_STEP,
        "not a step: {:?}",
        String::from_utf8_lossy(reply)
    );
    let mut body = &reply[9..];
    let count = |body: &mut &[u8]| {
        let (head, rest) = body.split_at(4);
        *body = rest;
        u32::from_le_bytes(head.try_into().unwrap())
    };
    for _ in 0..count(&mut body) {
        defs.decode_def(&mut body).unwrap();
    }
    let chunks = (0..count(&mut body))
        .map(|_| decode_chunk_interned(&mut body, defs).unwrap())
        .collect();
    assert!(body.is_empty());
    chunks
}

fn box_trailer(boxes: &[(&str, Region)]) -> Vec<u8> {
    let mut trailer = (boxes.len() as u16).to_le_bytes().to_vec();
    for (var, region) in boxes {
        put_str(&mut trailer, var).unwrap();
        encode_region(&mut trailer, region).unwrap();
    }
    trailer
}

#[test]
fn hostile_boxes_get_the_whole_variable_or_a_hang_up() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    for target in targets("boxes") {
        write_grid(&target.hub, "grid.fp", 2, 1);
        let mut sock = raw_reader(&target, "grid.fp", "g", 0, 1);
        let mut defs = MetaDefs::default();
        let mut ask = |sock: &mut dyn RawSocket, step: u64, trailer: &[u8]| {
            send_frame(sock, &step_verb(R_BEGIN, step, trailer));
            decode_reply(&recv_frame(sock).expect("a reply"), &mut defs)
        };
        let rows = |chunks: &[Chunk]| -> Vec<(usize, usize)> {
            chunks
                .iter()
                .map(|c| (c.region.offset()[0], c.region.count()[0]))
                .collect()
        };

        // An honest box first: rows 2..6 come as the two slabs they span.
        let honest = box_trailer(&[("grid", Region::new(vec![2, 0], vec![4, 3]))]);
        let got = ask(&mut *sock, 0, &honest);
        assert_eq!(rows(&got), [(2, 2), (4, 2)]);
        assert_eq!(
            got[0].data.to_f64_vec(),
            (6..12).map(f64::from).collect::<Vec<_>>()
        );

        // Boxes that parse but cannot cut this variable: all of it.
        let whole = [(0, 4), (4, 4)];
        for (what, boxes) in [
            (
                "rank mismatch",
                vec![("grid", Region::new(vec![2], vec![4]))],
            ),
            (
                "end overflows",
                vec![("grid", Region::new(vec![usize::MAX, 0], vec![2, 3]))],
            ),
            (
                "past the shape",
                vec![("grid", Region::new(vec![6, 0], vec![4, 3]))],
            ),
            (
                "zero extent",
                vec![("grid", Region::new(vec![2, 0], vec![0, 3]))],
            ),
            (
                "unknown variable",
                vec![("girder", Region::new(vec![2, 0], vec![1, 3]))],
            ),
            (
                "one bad box among good",
                vec![
                    ("grid", Region::new(vec![2, 0], vec![1, 3])),
                    ("grid", Region::new(vec![0, 0], vec![1, 4])),
                ],
            ),
        ] {
            assert_eq!(
                rows(&ask(&mut *sock, 0, &box_trailer(&boxes))),
                whole,
                "{what}"
            );
        }
        // A count past the cap is not parsed at all — here there is nothing
        // behind it to parse.
        assert_eq!(rows(&ask(&mut *sock, 0, &65u16.to_le_bytes())), whole);
        assert_eq!(rows(&ask(&mut *sock, 0, &u16::MAX.to_le_bytes())), whole);

        // A box that fitted step 0 does not fit the smaller step 1.
        send_frame(&mut *sock, &step_verb(R_RELEASE, 0, &[]));
        let got = ask(
            &mut *sock,
            1,
            &box_trailer(&[("grid", Region::new(vec![4, 0], vec![4, 3]))]),
        );
        assert_eq!(rows(&got), [(0, 2), (2, 2)]);

        // Trailers that do not parse cost the connection, and no more heap
        // than the frame that carried them: a region claiming 65535
        // dimensions with no body, and a count with no boxes behind it.
        let mut forged_rank = 1u16.to_le_bytes().to_vec();
        put_str(&mut forged_rank, "grid").unwrap();
        forged_rank.extend_from_slice(&u16::MAX.to_le_bytes());
        for trailer in [forged_rank, 64u16.to_le_bytes().to_vec()] {
            let mut sock = raw_reader(&target, "grid.fp", "late", 0, 1);
            let rise = heap_rise_during(|| {
                send_frame(&mut *sock, &step_verb(R_BEGIN, 1, &trailer));
                assert!(
                    recv_frame(&mut *sock).is_none(),
                    "a torn trailer was answered"
                );
            });
            assert!(rise <= 1 << 20, "a torn trailer cost {rise} bytes");
        }
    }
}

// ---- writer sessions driven from a raw socket ------------------------------

const HELLO_WRITER: u8 = 0x01;
const W_STEP: u8 = 0x11;
const W_CLOSE: u8 = 0x12;
const REPLY_OK: u8 = 0x80;
const REPLY_ERR_PEER_GONE: u8 = 0x85;
/// A `PeerGone` that ended the session.
const REPLY_REFUSED: u8 = 0x87;

/// Opens a v2, uncompressed writer session (rank 0 of 1) by hand and
/// returns the socket past its `REPLY_STARTED`.
fn raw_writer(target: &Target, stream: &str) -> Box<dyn RawSocket> {
    let mut sock = (target.dial)();
    let mut hello = vec![HELLO_WRITER];
    put_str(&mut hello, stream).unwrap();
    for field in [0u32, 1, 4] {
        put_u32(&mut hello, field); // rank, nranks, queue capacity
    }
    hello.push(0); // not rendezvous
    put_u32(&mut hello, 1); // reader groups
    hello.extend_from_slice(&[2, 0]);
    send_frame(&mut *sock, &hello);
    recv_frame(&mut *sock).expect("a REPLY_STARTED");
    sock
}

/// The head of a `W_STEP` for `step` whose body starts with every
/// definition `table` holds.
fn w_step_head(step: u64, table: &MetaInternTable) -> Vec<u8> {
    let mut frame = vec![W_STEP];
    put_u64(&mut frame, step);
    let mut defs = Vec::new();
    put_u32(&mut frame, table.append_defs_since(0, &mut defs));
    frame.extend(defs);
    frame
}

#[test]
fn a_chunk_header_claiming_a_gigabyte_costs_two_strides_on_both_fabrics() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const ELEMS: usize = 1 << 27; // f64: a 1 GiB payload
    let meta = VariableMeta::new("x", Shape::linear("n", ELEMS), DType::F64);
    let mut table = MetaInternTable::new();
    let id = table.intern(&meta).unwrap();
    let mut frame = w_step_head(0, &table);
    put_u32(&mut frame, 1); // one chunk
    put_u32(&mut frame, id);
    encode_region(&mut frame, &Region::new(vec![0], vec![ELEMS])).unwrap();
    put_u64(&mut frame, ELEMS as u64);
    frame.push(Compression::None.tag());
    // More than one stream block of the payload arrives, so the session
    // starts filling the chunk's buffer before the hang-up.
    frame.extend(std::iter::repeat_n(0x3f, 600 << 10));
    let mut bytes = FORGED_LEN.to_le_bytes().to_vec();
    bytes.extend_from_slice(&frame);

    for target in targets("claim") {
        let mut sock = raw_writer(&target, "claim.fp");
        let rise = heap_rise_during(|| {
            sock.write_all(&bytes).unwrap();
            drop(sock);
            wait_until("the session to give up", || {
                target.broker.active_connections() == 0
            });
        });
        // A frame stride and a payload stride, plus a little bookkeeping:
        // less than a stream block, so a payload buffer reserved a block
        // past its stride does not fit.
        assert!(
            rise <= 2 * STRIDE + (64 << 10),
            "{}: {rise} bytes allocated",
            target.url
        );
    }
}

#[test]
fn a_chunk_naming_an_unknown_meta_id_is_refused_and_the_next_step_commits() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let chunk = Chunk::new(
        VariableMeta::new("x", Shape::linear("n", 3), DType::F64),
        Region::new(vec![0], vec![3]),
        Buffer::F64(vec![1.0, 2.0, 3.0]),
    )
    .unwrap();
    for target in targets("unknown") {
        let mut reader = target.hub.open_reader("id.fp", 0, 1);
        let mut sock = raw_writer(&target, "id.fp");
        let mut table = MetaInternTable::new();

        // No definitions, and a chunk naming id 7.
        let mut forged = w_step_head(0, &table);
        put_u32(&mut forged, 1);
        encode_chunk_interned(&mut forged, &chunk, 7, Compression::None).unwrap();
        send_frame(&mut *sock, &forged);
        let reply = recv_frame(&mut *sock).expect("a refusal");
        let mut want = vec![REPLY_ERR_PEER_GONE];
        put_str(&mut want, "id.fp").unwrap();
        put_str(
            &mut want,
            "transport protocol error: container format error: \
             chunk references unknown meta id 7",
        )
        .unwrap();
        assert_eq!(
            String::from_utf8_lossy(&reply),
            String::from_utf8_lossy(&want),
            "{}",
            target.url
        );

        // The connection is still in frame sync: the same step, well
        // formed, commits.
        let id = table.intern(&chunk.meta).unwrap();
        let mut step = w_step_head(0, &table);
        put_u32(&mut step, 1);
        encode_chunk_interned(&mut step, &chunk, id, Compression::None).unwrap();
        send_frame(&mut *sock, &step);
        assert_eq!(
            recv_frame(&mut *sock).unwrap(),
            [REPLY_OK],
            "{}",
            target.url
        );
        assert_eq!(reader.begin_step().unwrap(), StepStatus::Ready(0));
        let got = reader.get_whole("x").unwrap().data.to_f64_vec();
        assert_eq!(got, [1.0, 2.0, 3.0]);
        reader.end_step();
        send_frame(&mut *sock, &[W_CLOSE]);
        assert_eq!(recv_frame(&mut *sock).unwrap(), [REPLY_OK]);
        assert_eq!(reader.begin_step().unwrap(), StepStatus::EndOfStream);
    }
}

// ---- compressed blocks -----------------------------------------------------

/// A value in `0..n`.
fn below(rng: &mut StdRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

fn pick(rng: &mut StdRng, of: &[usize]) -> usize {
    of[below(rng, of.len())]
}

/// Appends what is left of a length once its nibble holds `nibble_max`.
fn put_len_ext(block: &mut Vec<u8>, len: usize, nibble_max: usize) {
    if len >= nibble_max {
        let mut rest = len - nibble_max;
        while rest >= 255 {
            block.push(0xff);
            rest -= 255;
        }
        block.push(rest as u8);
    }
}

/// One LZ block assembled sequence by sequence from the format's grammar,
/// with lengths at the nibble and extension-byte edges and offsets that may
/// be zero, one before the start of the output, or far outside the window.
/// Returns the block, the length it claims to decode to, and whether every
/// part of it is in fact well-formed.
fn hostile_lz_block(rng: &mut StdRng) -> (Vec<u8>, usize, bool) {
    // 15 fills a nibble; 15 + 255 and 19 + 255 need a `0xff` extension byte.
    const LITERALS: [usize; 7] = [0, 1, 14, 15, 16, 270, 300];
    const MATCHES: [usize; 7] = [4, 5, 18, 19, 20, 274, 600];
    let mut block = Vec::new();
    let mut produced = 0usize;
    let mut valid = true;
    for _ in 0..below(rng, 6) {
        let lit = pick(rng, &LITERALS);
        let mlen = pick(rng, &MATCHES);
        let behind = produced + lit;
        let offset = match below(rng, 8) {
            0 => 0,
            1 => behind + 1,
            2 => u16::MAX as usize,
            _ if behind > 0 => 1 + below(rng, behind.min(u16::MAX as usize)),
            _ => 0,
        };
        valid &= (1..=behind).contains(&offset);
        block.push(((lit.min(15) << 4) | (mlen - 4).min(15)) as u8);
        put_len_ext(&mut block, lit, 15);
        block.extend((0..lit).map(|_| rng.next_u64() as u8));
        block.extend_from_slice(&(offset.min(u16::MAX as usize) as u16).to_le_bytes());
        put_len_ext(&mut block, mlen - 4, 15);
        produced += lit + mlen;
    }
    let lit = pick(rng, &LITERALS);
    block.push((lit.min(15) << 4) as u8);
    put_len_ext(&mut block, lit, 15);
    block.extend((0..lit).map(|_| rng.next_u64() as u8));
    produced += lit;

    let expected_len = match below(rng, 4) {
        // A literal or match run ends past the expected length...
        0 if produced > 0 => below(rng, produced),
        // ...or the block ends short of it.
        1 => produced + 1 + below(rng, 64),
        _ => produced,
    };
    valid &= expected_len == produced;
    match below(rng, 8) {
        0 => {
            // A dangling extension chain.
            block.push(0xf0);
            block.extend(std::iter::repeat_n(0xff, 1 + below(rng, 4)));
            valid = false;
        }
        1 => {
            block.truncate(below(rng, block.len()));
            valid = false;
        }
        _ => {}
    }
    (block, expected_len, valid)
}

/// `lz_decompress` on adversarial — not merely truncated — blocks: a typed
/// error or a result of exactly the expected length, never a panic, and
/// never more heap than the expected length (plus an error message).
#[test]
fn hostile_lz_blocks_fail_typed_within_their_expected_length() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let mut rng = StdRng::seed_from_u64(0x1277_ADE5);
    let mut decoded = 0;
    for case in 0..2000 {
        let (block, expected_len, valid) = hostile_lz_block(&mut rng);
        let mut outcome = None;
        let rise = heap_rise_during(|| outcome = Some(lz_decompress(&block, expected_len)));
        assert!(
            rise <= expected_len + 256,
            "case {case}: {rise} bytes allocated for an expected length of {expected_len}"
        );
        match outcome.expect("the attack ran") {
            Ok(out) => {
                assert_eq!(out.len(), expected_len, "case {case}");
                decoded += 1;
            }
            Err(e) => {
                assert!(!valid, "case {case}: a well-formed block failed: {e}");
                assert!(matches!(e, DataError::Container { .. }), "case {case}: {e}");
            }
        }
    }
    assert!(
        decoded > 100,
        "only {decoded} blocks decoded: the sweep is all noise"
    );
}

/// Regression: the expected length reaches `lz_decompress` from the chunk
/// header, which the sender of the block also writes. A one-byte block
/// under a header naming a terabyte used to reserve the terabyte (and abort
/// in the allocator); it is now refused before anything is reserved.
#[test]
fn a_short_lz_block_under_a_terabyte_header_is_refused_unallocated() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    const ELEMS: usize = 1 << 37;
    let meta = VariableMeta::new("x", Shape::linear("n", ELEMS), DType::F64);
    let mut table = MetaInternTable::new();
    let id = table.intern(&meta).unwrap();
    let mut def_bytes = Vec::new();
    table.append_defs_since(0, &mut def_bytes);
    let mut defs = MetaDefs::new();
    defs.decode_def(&mut &def_bytes[..]).unwrap();

    let mut frame = id.to_le_bytes().to_vec();
    encode_region(&mut frame, &Region::new(vec![0], vec![ELEMS])).unwrap();
    frame.extend_from_slice(&(ELEMS as u64).to_le_bytes());
    frame.push(Compression::Lz.tag());
    frame.extend_from_slice(&1u64.to_le_bytes());
    frame.push(0x00); // one token: no literals, end of block

    let mut outcome = None;
    let rise = heap_rise_during(|| outcome = Some(decode_chunk_interned(&mut &frame[..], &defs)));
    assert!(matches!(outcome, Some(Err(DataError::Container { .. }))));
    assert!(rise <= 4096, "{rise} bytes allocated for a 1-byte block");
}

/// A container file holding one step whose payload is `payload`.
fn container_with_step(payload: &[u8]) -> Vec<u8> {
    let mut file = b"SBC1".to_vec();
    put_u32(&mut file, 1);
    file.extend_from_slice(b"STEP");
    put_u64(&mut file, payload.len() as u64);
    file.extend_from_slice(payload);
    file
}

/// Reads the one step of `file`, returning the outcome and the heap it cost.
fn read_container_step(file: &[u8]) -> (sb_data::DataResult<usize>, usize) {
    let mut outcome = None;
    let rise = heap_rise_during(|| {
        outcome = Some(
            ContainerReader::new(file)
                .and_then(|mut r| r.next_step())
                .map(|step| step.map_or(0, |(_, vars)| vars.len())),
        )
    });
    (outcome.expect("the read ran"), rise)
}

/// Regression: a container step's counts are as hostile as a frame's. A
/// step claiming `u32::MAX` variables, or a variable whose label header
/// claims `u32::MAX` names, used to reserve that many entries up front and
/// abort in the allocator; both are now clamped by the bytes present and
/// end in a typed error.
#[test]
fn container_counts_cannot_reserve_what_the_file_merely_names() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());

    let mut many_vars = Vec::new();
    put_u64(&mut many_vars, 0); // step id
    put_u32(&mut many_vars, u32::MAX);
    many_vars.extend_from_slice(&[0u8; 64]);

    let mut many_labels = Vec::new();
    put_u64(&mut many_labels, 0); // step id
    put_u32(&mut many_labels, 1);
    let bare = VariableMeta::new("x", Shape::linear("n", 1), DType::F64);
    encode_meta(&mut many_labels, &bare).unwrap();
    many_labels.truncate(many_labels.len() - 8); // its empty header and attr counts
    put_u32(&mut many_labels, 1); // one label header...
    put_u16(&mut many_labels, 0);
    put_u32(&mut many_labels, u32::MAX); // ...naming four billion rows
    many_labels.extend_from_slice(&[0u8; 64]);

    for (what, payload) in [("variables", many_vars), ("labels", many_labels)] {
        let (outcome, rise) = read_container_step(&container_with_step(&payload));
        assert!(
            matches!(outcome, Err(DataError::Container { .. })),
            "{what}: {outcome:?}"
        );
        assert!(rise <= 64 << 10, "{what}: {rise} bytes allocated");
    }
}

/// Regression: a container variable whose dimensions multiply past `usize`
/// used to panic computing its element count; its volume is now checked
/// like a frame's region volume and the step is a typed error.
#[test]
fn container_shape_whose_volume_overflows_is_a_typed_error() {
    let _turn = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let meta = VariableMeta::new(
        "x",
        Shape::of(&[("a", 1 << 40), ("b", 1 << 40)]),
        DType::F64,
    );
    let mut payload = Vec::new();
    put_u64(&mut payload, 0); // step id
    put_u32(&mut payload, 1);
    encode_meta(&mut payload, &meta).unwrap();
    put_u64(&mut payload, 0); // element count
    let (outcome, _) = read_container_step(&container_with_step(&payload));
    let err = outcome.unwrap_err();
    assert!(
        matches!(&err, DataError::Container { detail } if detail.contains("overflows")),
        "{err:?}"
    );
}
