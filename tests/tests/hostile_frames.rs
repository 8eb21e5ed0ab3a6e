//! A forged frame length must cost a broker one receive stride, not the
//! allocation it names.
//!
//! Both brokers read frames through one bounded reader that reserves at
//! most 4 MiB ahead of the bytes that have actually arrived. This test
//! sends each of them a 1 GiB length prefix followed by a hang-up and
//! watches the process's live heap through a counting allocator — the only
//! vantage point from which "did not allocate a gigabyte" is observable. It
//! is the only test in this binary so that nothing else moves the counters.

#![allow(unsafe_code)] // the `GlobalAlloc` forwarding impl below, nothing else

use std::alloc::{GlobalAlloc, Layout, System};
use std::io::Write;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicUsize, Ordering};

use sb_integration_tests::wait_until;
use sb_stream::{ShmBroker, TcpBroker};

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
/// One receive stride, plus room for everything else a session allocates.
const BUDGET: usize = (4 << 20) + (1 << 20);

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
    let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
    let sock = TcpStream::connect(broker.local_addr()).unwrap();
    let rise = forged_prefix_cost(sock, || {
        broker.connections_seen() == 1 && broker.active_connections() == 0
    });
    assert!(rise <= BUDGET, "tcp session allocated {rise} bytes");

    let dir = std::env::temp_dir().join(format!("sb-hostile-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
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
