//! # sb-data — a self-describing multi-dimensional data model
//!
//! The SmartBlock paper builds on ADIOS: simulation output is packed into
//! linear buffers, described by named dimensions, annotated with
//! per-dimension *quantity labels* ("headers"), and read back through
//! bounding-box selections. Downstream components use
//! this self-description to discover, at run time, the number of dimensions,
//! their sizes and names, and the labelled quantities inside them.
//!
//! This crate provides that data model from scratch:
//!
//! * [`DType`]/[`Buffer`] — typed linear storage with safe element access
//!   and lossless round-trips through `f64` compute kernels;
//! * [`Shape`]/[`Dim`] — named dimensions with row-major stride arithmetic;
//! * [`Region`] — bounding boxes with intersection/containment algebra and
//!   block copies between differently-shaped buffers (the MxN primitive);
//! * [`Variable`]/[`Chunk`] — a global self-describing array and a writer's
//!   local portion of one;
//! * [`decompose`] — the even block decompositions components use to split
//!   incoming data among their ranks;
//! * [`cursor`] — the one bounds-checked little-endian byte cursor every
//!   frame and file parser reads through, with its putters;
//! * [`container`] — a versioned binary container for steps written to disk
//!   by the file components, whose variables are framed by the wire `meta`
//!   codec;
//! * [`wire`] — the chunk frame codec shared by streaming transports (the
//!   TCP backend frames steps with it), including the protocol-v2 meta
//!   interning tables;
//! * [`compress`] — the dependency-free LZ77 block codec v2 frames can
//!   apply per chunk payload;
//! * [`signal`] — the scalar signal board reactive workflow triggers
//!   observe (latest `(component, signal)` values plus a synchronous hook);
//! * [`lock`] — the workspace's one mutex poison policy.

use std::sync::{Mutex, MutexGuard, PoisonError};

pub mod buffer;
pub mod chunk;
pub mod compress;
pub mod container;
pub mod cursor;
pub mod decompose;
pub mod dims;
pub mod error;
pub mod region;
pub mod signal;
pub mod variable;
pub mod wire;

pub use buffer::{AllocationId, Buffer, DType, SharedBuffer};
pub use chunk::{Chunk, VariableMeta};
pub use dims::{Dim, Shape};
pub use error::{DataError, DataResult};
pub use region::Region;
pub use variable::{AttrValue, Variable};

/// Locks `mutex`, recovering the guard if a previous holder panicked.
///
/// This is the one poison policy of the crates built on this one. A panic
/// is already reported where it happens — a component's failure, a broker
/// session's end — so the threads that remain keep working instead of
/// failing again on the lock: a supervisor reporting a failed component, or
/// a reader draining a stream, must not be wedged by the panic it handles.
/// The condition that makes this sound: a holder leaves the guarded state
/// valid after every update, never only at the end of its critical section.
pub fn lock<T: ?Sized>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_returns_guard_directly() {
        let m = Mutex::new(41);
        *lock(&m) += 1;
        assert_eq!(*lock(&m), 42);
    }

    #[test]
    fn poisoned_lock_recovers() {
        let m = Arc::new(Mutex::new(7));
        let other = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = lock(&other);
            panic!("poison the mutex");
        })
        .join();
        assert!(m.is_poisoned());
        assert_eq!(*lock(&m), 7, "lock still usable after a holder panicked");
    }

    #[test]
    fn roundtrip_all_widths() {
        let mut buf = Vec::new();
        cursor::put_u8(&mut buf, 0xAB);
        cursor::put_u16(&mut buf, 0x1234);
        cursor::put_u32(&mut buf, 0xDEAD_BEEF);
        cursor::put_u64(&mut buf, 0x0123_4567_89AB_CDEF);
        buf.extend_from_slice(b"tail");

        let mut cur: &[u8] = &buf;
        assert_eq!(cur.len(), 1 + 2 + 4 + 8 + 4);
        assert_eq!(cursor::get_u8(&mut cur, "u8").unwrap(), 0xAB);
        assert_eq!(cursor::get_u16(&mut cur, "u16").unwrap(), 0x1234);
        assert_eq!(cursor::get_u32(&mut cur, "u32").unwrap(), 0xDEAD_BEEF);
        assert_eq!(
            cursor::get_u64(&mut cur, "u64").unwrap(),
            0x0123_4567_89AB_CDEF
        );
        assert_eq!(cursor::take(&mut cur, 4, "tail").unwrap(), b"tail");
        assert!(cur.is_empty());
    }

    #[test]
    fn advance_skips() {
        let data = [1u8, 2, 3, 4];
        let mut cur: &[u8] = &data;
        assert_eq!(cursor::take(&mut cur, 2, "skip").unwrap(), [1, 2]);
        assert_eq!(cursor::get_u8(&mut cur, "u8").unwrap(), 3);
        assert_eq!(cur.len(), 1);
        assert_eq!(
            cursor::take(&mut cur, 2, "skip").unwrap_err(),
            cursor::truncated("skip")
        );
        assert_eq!(cur.len(), 1, "a failed skip consumes nothing");
    }

    #[test]
    fn f64_roundtrip() {
        // An f64 payload goes on the wire as its little-endian bytes and is
        // read back through the cursor.
        let values = vec![std::f64::consts::PI, -0.0, f64::MIN_POSITIVE];
        let mut buf = Vec::new();
        cursor::put_u32(&mut buf, 7);
        Buffer::F64(values.clone()).append_le_bytes(&mut buf);

        let mut cur: &[u8] = &buf;
        assert_eq!(cursor::get_u32(&mut cur, "tag").unwrap(), 7);
        let payload = cursor::take(&mut cur, values.len() * 8, "payload").unwrap();
        let back = Buffer::from_le_bytes(DType::F64, values.len(), payload).unwrap();
        let Buffer::F64(back) = back else {
            panic!("dtype changed in the round trip")
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&values));
        assert!(cur.is_empty());
    }
}
