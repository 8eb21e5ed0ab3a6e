//! # sb-comm — a thread-based rank runtime
//!
//! SmartBlock components are, in the paper, MPI executables: every component
//! is launched with some number of processes that share a communicator, use
//! collectives to agree on data decomposition and global reductions, and use
//! point-to-point messages where needed.
//!
//! This crate provides the same programming model on a single machine: each
//! *rank* is an OS thread, and a [`Communicator`] handle gives that thread
//! its rank id, the communicator size, the blocking collectives the
//! components use (reduce, allreduce, allgather, exscan) and tagged
//! point-to-point `send`/`recv`.
//!
//! Collectives are *deterministic*: reductions fold contributions in rank
//! order, so results are reproducible regardless of thread scheduling — a
//! property the test suite relies on heavily.
//!
//! ```
//! use sb_comm::launch;
//!
//! let sums = launch(4, |comm| {
//!     let local = (comm.rank() + 1) as u64;
//!     comm.allreduce(local, |a, b| a + b)
//! })
//! .unwrap();
//! assert_eq!(sums, vec![10, 10, 10, 10]);
//! ```

mod collective;
mod error;
mod launch;
mod p2p;

pub use collective::Communicator;
pub use error::{CommError, CommResult};
pub use launch::{launch, launch_named, LaunchHandle};

/// Reduction helpers usable with [`Communicator::allreduce`] and friends.
pub mod ops {
    /// Sum of two values.
    pub fn sum<T: std::ops::Add<Output = T>>(a: T, b: T) -> T {
        a + b
    }

    /// Minimum of two totally ordered values.
    pub fn min<T: PartialOrd>(a: T, b: T) -> T {
        if b < a {
            b
        } else {
            a
        }
    }

    /// Maximum of two totally ordered values.
    pub fn max<T: PartialOrd>(a: T, b: T) -> T {
        if b > a {
            b
        } else {
            a
        }
    }
}
