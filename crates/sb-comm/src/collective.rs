//! The [`Communicator`] handle and its blocking collective operations.
//!
//! All ranks of a communicator must call the same sequence of collectives
//! with compatible arguments, exactly as in MPI. Reductions fold inputs in
//! rank order so results are deterministic across runs.

use std::any::Any;
use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use crate::p2p::{Endpoint, Packet};

/// One collective "slot" shared by all ranks of a communicator.
///
/// The protocol is a two-phase rendezvous: every rank deposits its
/// contribution, the last depositor computes the combined result, then every
/// rank picks the result up; the last pickup resets the slot for the next
/// collective. Ranks arriving for collective *k+1* while *k* is still being
/// picked up block until the reset.
struct CollSlot {
    phase: Phase,
    inputs: Vec<Option<Box<dyn Any + Send>>>,
    deposited: usize,
    output: Option<Arc<dyn Any + Send + Sync>>,
    picked: usize,
    epoch: u64,
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Phase {
    Deposit,
    Pickup,
}

pub(crate) struct Shared {
    slot: Mutex<CollSlot>,
    cond: Condvar,
}

impl Shared {
    pub(crate) fn new(size: usize) -> Self {
        Shared {
            slot: Mutex::new(CollSlot {
                phase: Phase::Deposit,
                inputs: (0..size).map(|_| None).collect(),
                deposited: 0,
                output: None,
                picked: 0,
                epoch: 0,
            }),
            cond: Condvar::new(),
        }
    }
}

/// A per-rank handle onto a communicator of `size` thread-ranks.
///
/// The handle is moved into its rank's thread; it is `Send` but deliberately
/// not `Sync` (each rank owns private receive-side state). Collectives block
/// until every rank of the communicator has made the matching call.
pub struct Communicator {
    rank: usize,
    size: usize,
    shared: Arc<Shared>,
    endpoint: Endpoint,
}

impl std::fmt::Debug for Communicator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Communicator")
            .field("rank", &self.rank)
            .field("size", &self.size)
            .finish()
    }
}

impl Communicator {
    /// Builds the `size` per-rank handles of a fresh communicator.
    pub(crate) fn create(size: usize) -> Vec<Communicator> {
        assert!(size > 0, "communicator must have at least one rank");
        let shared = Arc::new(Shared::new(size));
        let endpoints = Endpoint::create(size);
        endpoints
            .into_iter()
            .enumerate()
            .map(|(rank, endpoint)| Communicator {
                rank,
                size,
                shared: Arc::clone(&shared),
                endpoint,
            })
            .collect()
    }

    /// This rank's id in `0..size`.
    #[inline]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Number of ranks in the communicator.
    #[inline]
    pub fn size(&self) -> usize {
        self.size
    }

    /// Core rendezvous: deposit `input`, let the final depositor run
    /// `combine` over all inputs (in rank order), and hand every rank an
    /// `Arc` of the result.
    ///
    /// Every rank must pass a semantically identical `combine`; only the last
    /// arriver's closure runs, exactly like an MPI reduction op.
    fn collective<R, F>(&self, input: Box<dyn Any + Send>, combine: F) -> Arc<R>
    where
        R: Send + Sync + 'static,
        F: FnOnce(Vec<Box<dyn Any + Send>>) -> R,
    {
        // Poisoning is recovered, the policy of `sb_data::lock`: a rank's
        // panic surfaces at its thread's join, not in its peers.
        let cond = &self.shared.cond;
        let slot = self
            .shared
            .slot
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        // Gate entry: the previous collective must be fully picked up.
        let mut slot = cond
            .wait_while(slot, |s| s.phase != Phase::Deposit)
            .unwrap_or_else(PoisonError::into_inner);
        debug_assert!(
            slot.inputs[self.rank].is_none(),
            "rank {} double-deposited in a collective",
            self.rank
        );
        slot.inputs[self.rank] = Some(input);
        slot.deposited += 1;
        if slot.deposited == self.size {
            let inputs: Vec<Box<dyn Any + Send>> = slot
                .inputs
                .iter_mut()
                .map(|i| i.take().expect("all ranks deposited"))
                .collect();
            let result: Arc<R> = Arc::new(combine(inputs));
            slot.output = Some(result);
            slot.phase = Phase::Pickup;
            cond.notify_all();
        } else {
            let my_epoch = slot.epoch;
            slot = cond
                .wait_while(slot, |s| s.phase != Phase::Pickup || s.epoch != my_epoch)
                .unwrap_or_else(PoisonError::into_inner);
        }
        let out = slot
            .output
            .as_ref()
            .expect("output present in pickup phase")
            .clone();
        slot.picked += 1;
        if slot.picked == self.size {
            slot.phase = Phase::Deposit;
            slot.deposited = 0;
            slot.picked = 0;
            slot.output = None;
            slot.epoch += 1;
            cond.notify_all();
        }
        drop(slot);
        out.downcast::<R>()
            .expect("collective result type mismatch across ranks")
    }

    /// Blocks until every rank of the communicator reaches the barrier.
    pub fn barrier(&self) {
        let _ = self.collective::<(), _>(Box::new(()), |_| ());
    }

    /// Broadcasts `value` from `root` to all ranks. Non-root ranks pass
    /// `None`; the root must pass `Some`.
    pub fn broadcast<T>(&self, root: usize, value: Option<T>) -> T
    where
        T: Clone + Send + Sync + 'static,
    {
        assert!(root < self.size, "broadcast root {root} out of range");
        assert_eq!(
            self.rank == root,
            value.is_some(),
            "broadcast: exactly the root rank must supply Some(value)"
        );
        let out = self.collective::<T, _>(Box::new(value), move |mut inputs| {
            let boxed = inputs.swap_remove(root);
            boxed
                .downcast::<Option<T>>()
                .expect("broadcast payload type mismatch")
                .expect("root deposited Some")
        });
        (*out).clone()
    }

    /// Gathers one value from every rank to `root`, in rank order.
    pub fn gather<T>(&self, root: usize, value: T) -> Option<Vec<T>>
    where
        T: Clone + Send + Sync + 'static,
    {
        assert!(root < self.size, "gather root {root} out of range");
        let out = self.all_inputs::<T>(value);
        (self.rank == root).then(|| (*out).clone())
    }

    /// Gathers one value from every rank to every rank, in rank order.
    pub fn allgather<T>(&self, value: T) -> Vec<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        (*self.all_inputs::<T>(value)).clone()
    }

    /// Like [`Communicator::allgather`], but hands every rank a shared,
    /// non-cloned view of the gathered vector. Preferred for large payloads
    /// (`Vec<f64>` chunks and the like) where per-rank clones would double
    /// memory traffic.
    pub fn allgather_shared<T>(&self, value: T) -> Arc<Vec<T>>
    where
        T: Send + Sync + 'static,
    {
        self.all_inputs::<T>(value)
    }

    fn all_inputs<T>(&self, value: T) -> Arc<Vec<T>>
    where
        T: Send + Sync + 'static,
    {
        self.collective::<Vec<T>, _>(Box::new(value), |inputs| {
            inputs
                .into_iter()
                .map(|b| *b.downcast::<T>().expect("gather payload type mismatch"))
                .collect()
        })
    }

    /// Reduces one value per rank down to `root` with `op`, folding in rank
    /// order (deterministic). Returns `Some` on the root only.
    pub fn reduce<T, F>(&self, root: usize, value: T, op: F) -> Option<T>
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(T, T) -> T,
    {
        assert!(root < self.size, "reduce root {root} out of range");
        let out = self.fold_inputs(value, op);
        (self.rank == root).then(|| (*out).clone())
    }

    /// Reduces one value per rank with `op` and returns the result on every
    /// rank. Folds in rank order (deterministic).
    pub fn allreduce<T, F>(&self, value: T, op: F) -> T
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(T, T) -> T,
    {
        (*self.fold_inputs(value, op)).clone()
    }

    fn fold_inputs<T, F>(&self, value: T, op: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: Fn(T, T) -> T,
    {
        self.collective::<T, _>(Box::new(value), move |inputs| {
            inputs
                .into_iter()
                .map(|b| *b.downcast::<T>().expect("reduce payload type mismatch"))
                .reduce(&op)
                .expect("communicator is non-empty")
        })
    }

    /// Inclusive prefix reduction: rank *r* receives
    /// `op(v_0, op(v_1, ... v_r))` folded in rank order.
    pub fn scan<T, F>(&self, value: T, op: F) -> T
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(T, T) -> T,
    {
        let rank = self.rank;
        let out = self.collective::<Vec<T>, _>(Box::new(value), move |inputs| {
            let values: Vec<T> = inputs
                .into_iter()
                .map(|b| *b.downcast::<T>().expect("scan payload type mismatch"))
                .collect();
            let mut prefixes = Vec::with_capacity(values.len());
            let mut iter = values.into_iter();
            let mut acc = iter.next().expect("communicator is non-empty");
            prefixes.push(acc.clone());
            for v in iter {
                acc = op(acc, v);
                prefixes.push(acc.clone());
            }
            prefixes
        });
        out[rank].clone()
    }

    /// Exclusive prefix reduction: rank 0 receives `None`, rank *r > 0*
    /// receives the fold of ranks `0..r`.
    pub fn exscan<T, F>(&self, value: T, op: F) -> Option<T>
    where
        T: Clone + Send + Sync + 'static,
        F: Fn(T, T) -> T,
    {
        let rank = self.rank;
        let out = self.collective::<Vec<T>, _>(Box::new(value), move |inputs| {
            let values: Vec<T> = inputs
                .into_iter()
                .map(|b| *b.downcast::<T>().expect("exscan payload type mismatch"))
                .collect();
            let mut prefixes = Vec::with_capacity(values.len());
            let mut acc: Option<T> = None;
            for v in values {
                if let Some(a) = acc.clone() {
                    prefixes.push(a.clone());
                    acc = Some(op(a, v));
                } else {
                    acc = Some(v);
                }
            }
            prefixes
        });
        (rank > 0).then(|| out[rank - 1].clone())
    }

    /// Scatters one element of `values` (root-only, length == `size`) to
    /// each rank in rank order.
    pub fn scatter<T>(&self, root: usize, values: Option<Vec<T>>) -> T
    where
        T: Clone + Send + Sync + 'static,
    {
        assert!(root < self.size, "scatter root {root} out of range");
        assert_eq!(
            self.rank == root,
            values.is_some(),
            "scatter: exactly the root rank must supply Some(values)"
        );
        if let Some(v) = &values {
            assert_eq!(
                v.len(),
                self.size,
                "scatter: root must supply exactly one value per rank"
            );
        }
        let rank = self.rank;
        let out = self.collective::<Vec<T>, _>(Box::new(values), move |mut inputs| {
            let boxed = inputs.swap_remove(root);
            boxed
                .downcast::<Option<Vec<T>>>()
                .expect("scatter payload type mismatch")
                .expect("root deposited Some")
        });
        out[rank].clone()
    }

    /// All-to-all personalized exchange: rank *r* supplies one value per
    /// destination and receives one value per source (`out[s]` came from
    /// rank *s*'s `values[r]`).
    pub fn alltoall<T>(&self, values: Vec<T>) -> Vec<T>
    where
        T: Clone + Send + Sync + 'static,
    {
        assert_eq!(
            values.len(),
            self.size,
            "alltoall: supply exactly one value per rank"
        );
        let rank = self.rank;
        let out = self.collective::<Vec<Vec<T>>, _>(Box::new(values), |inputs| {
            inputs
                .into_iter()
                .map(|b| {
                    *b.downcast::<Vec<T>>()
                        .expect("alltoall payload type mismatch")
                })
                .collect()
        });
        out.iter().map(|row| row[rank].clone()).collect()
    }

    /// Splits the communicator MPI-style: ranks passing the same `color`
    /// land in a fresh sub-communicator together; ranks within a color are
    /// ordered by `key` (ties broken by parent rank). Ranks passing
    /// `color = None` receive `None` (the `MPI_UNDEFINED` case).
    ///
    /// Collective: every rank of the parent must call it.
    ///
    /// ```
    /// use sb_comm::launch;
    /// let sums = launch(4, |comm| {
    ///     let sub = comm.split(Some((comm.rank() % 2) as u64), 0).unwrap();
    ///     sub.allreduce(comm.rank(), |a, b| a + b)
    /// })
    /// .unwrap();
    /// assert_eq!(sums, vec![0 + 2, 1 + 3, 0 + 2, 1 + 3]);
    /// ```
    pub fn split(&self, color: Option<u64>, key: i64) -> Option<Communicator> {
        let rank = self.rank;
        let all = self.allgather((color, key, rank));
        let my_color = color?;
        // Members of my color, ordered by (key, parent rank).
        let mut members: Vec<(i64, usize)> = all
            .iter()
            .filter_map(|&(c, k, r)| (c == Some(my_color)).then_some((k, r)))
            .collect();
        members.sort_unstable();
        let my_new_rank = members
            .iter()
            .position(|&(_, r)| r == rank)
            .expect("caller is a member of its own color");

        // The lowest parent rank of each color creates that color's handles
        // and distributes them to the members via point-to-point messages.
        let leader = members[0].1;
        const SPLIT_TAG: u64 = u64::MAX - 51;
        if rank == leader {
            let comms = Communicator::create(members.len());
            let mut mine = None;
            for ((_, dest), comm) in members.iter().zip(comms) {
                if *dest == rank {
                    debug_assert_eq!(comm.rank(), my_new_rank);
                    mine = Some(comm);
                } else {
                    self.send(*dest, SPLIT_TAG, comm);
                }
            }
            Some(mine.expect("leader is one of its members"))
        } else {
            let comm: Communicator = self.recv(leader, SPLIT_TAG);
            debug_assert_eq!(comm.rank(), my_new_rank);
            Some(comm)
        }
    }

    /// Sends `value` to `dst` under `tag`. Never blocks (the underlying
    /// queues are unbounded, like MPI eager sends at these payload sizes).
    ///
    /// Tags at and above `u64::MAX - 127` are reserved for internal
    /// protocols ([`Communicator::split`], [`crate::tree`]); user tags must
    /// stay below that range.
    pub fn send<T: Send + 'static>(&self, dst: usize, tag: u64, value: T) {
        assert!(dst < self.size, "send destination {dst} out of range");
        self.endpoint.send(self.rank, dst, tag, Box::new(value));
    }

    /// Blocks until a message with `tag` from `src` arrives, and returns it.
    ///
    /// Panics if the payload type does not match `T`. Like `MPI_Recv`, a
    /// receive posted against a rank that already exited without sending
    /// blocks indefinitely — the workflow layer's stream timeouts are the
    /// intended safety net for mis-wired programs.
    pub fn recv<T: Send + 'static>(&self, src: usize, tag: u64) -> T {
        assert!(src < self.size, "recv source {src} out of range");
        let packet = self.endpoint.recv(src, tag);
        *packet
            .payload
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("recv: payload type mismatch from rank {src} tag {tag}"))
    }

    /// Non-blocking receive: returns a matching queued message if one has
    /// already arrived.
    pub fn try_recv<T: Send + 'static>(&self, src: usize, tag: u64) -> Option<T> {
        assert!(src < self.size, "recv source {src} out of range");
        let packet = self.endpoint.try_recv(src, tag)?;
        Some(*packet.payload.downcast::<T>().unwrap_or_else(|_| {
            panic!("try_recv: payload type mismatch from rank {src} tag {tag}")
        }))
    }

    /// Blocks for the next message carrying `tag` from *any* rank; returns
    /// `(source_rank, value)`.
    pub fn recv_any<T: Send + 'static>(&self, tag: u64) -> (usize, T) {
        let packet = self.endpoint.recv_any(tag);
        let src = packet.src;
        (
            src,
            *packet.payload.downcast::<T>().unwrap_or_else(|_| {
                panic!("recv_any: payload type mismatch from rank {src} tag {tag}")
            }),
        )
    }
}

/// A small FIFO of out-of-order packets, used by the endpoint to implement
/// (src, tag) matching over a single per-rank queue.
pub(crate) type Stash = VecDeque<Packet>;

#[cfg(test)]
mod tests {
    use crate::launch;

    #[test]
    fn barrier_synchronizes_all_ranks() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let before = AtomicUsize::new(0);
        let fail = AtomicUsize::new(0);
        launch(8, |comm| {
            before.fetch_add(1, Ordering::SeqCst);
            comm.barrier();
            if before.load(Ordering::SeqCst) != 8 {
                fail.fetch_add(1, Ordering::SeqCst);
            }
        })
        .unwrap();
        assert_eq!(fail.load(std::sync::atomic::Ordering::SeqCst), 0);
    }

    #[test]
    fn broadcast_reaches_every_rank() {
        let got = launch(5, |comm| {
            if comm.rank() == 2 {
                comm.broadcast(2, Some(vec![9u32, 8, 7]))
            } else {
                comm.broadcast(2, None::<Vec<u32>>)
            }
        })
        .unwrap();
        for v in got {
            assert_eq!(v, vec![9, 8, 7]);
        }
    }

    #[test]
    fn allreduce_sum_matches_serial_fold() {
        for n in [1usize, 2, 3, 7, 16] {
            let out = launch(n, |comm| {
                comm.allreduce((comm.rank() + 1) as u64, |a, b| a + b)
            })
            .unwrap();
            let expect: u64 = (1..=n as u64).sum();
            assert!(out.iter().all(|&v| v == expect), "n={n}");
        }
    }

    #[test]
    fn allreduce_min_max() {
        let out = launch(6, |comm| {
            let v = [5.0f64, -3.0, 8.5, 0.0, 2.5, -3.5][comm.rank()];
            (
                comm.allreduce(v, crate::ops::min),
                comm.allreduce(v, crate::ops::max),
            )
        })
        .unwrap();
        for (mn, mx) in out {
            assert_eq!(mn, -3.5);
            assert_eq!(mx, 8.5);
        }
    }

    #[test]
    fn reduce_delivers_only_to_root() {
        let out = launch(4, |comm| comm.reduce(1, comm.rank() as i64, |a, b| a + b)).unwrap();
        assert_eq!(out[0], None);
        assert_eq!(out[1], Some(1 + 2 + 3));
        assert_eq!(out[2], None);
        assert_eq!(out[3], None);
    }

    #[test]
    fn gather_and_allgather_preserve_rank_order() {
        let out = launch(5, |comm| {
            let g = comm.gather(0, comm.rank() * 10);
            let ag = comm.allgather(comm.rank() * 10);
            (g, ag)
        })
        .unwrap();
        let expect: Vec<usize> = vec![0, 10, 20, 30, 40];
        assert_eq!(out[0].0.as_ref(), Some(&expect));
        for (g, ag) in &out[1..] {
            assert!(g.is_none());
            assert_eq!(ag, &expect);
        }
        assert_eq!(out[0].1, expect);
    }

    #[test]
    fn allgather_shared_is_one_copy() {
        let out = launch(3, |comm| comm.allgather_shared(vec![comm.rank(); 2])).unwrap();
        // All ranks see the same Arc contents.
        for arc in &out {
            assert_eq!(**arc, vec![vec![0, 0], vec![1, 1], vec![2, 2]]);
        }
    }

    #[test]
    fn scan_and_exscan_prefixes() {
        let out = launch(5, |comm| {
            let v = (comm.rank() + 1) as u64;
            (comm.scan(v, |a, b| a + b), comm.exscan(v, |a, b| a + b))
        })
        .unwrap();
        let scans: Vec<u64> = out.iter().map(|(s, _)| *s).collect();
        let exscans: Vec<Option<u64>> = out.iter().map(|(_, e)| *e).collect();
        assert_eq!(scans, vec![1, 3, 6, 10, 15]);
        assert_eq!(exscans, vec![None, Some(1), Some(3), Some(6), Some(10)]);
    }

    #[test]
    fn scatter_hands_each_rank_its_slot() {
        let out = launch(4, |comm| {
            let values = (comm.rank() == 0).then(|| vec!["a", "b", "c", "d"]);
            comm.scatter(0, values)
        })
        .unwrap();
        assert_eq!(out, vec!["a", "b", "c", "d"]);
    }

    #[test]
    fn alltoall_transposes() {
        let out = launch(3, |comm| {
            let values: Vec<(usize, usize)> = (0..3).map(|dst| (comm.rank(), dst)).collect();
            comm.alltoall(values)
        })
        .unwrap();
        for (rank, row) in out.iter().enumerate() {
            for (src, &(from, to)) in row.iter().enumerate() {
                assert_eq!(from, src);
                assert_eq!(to, rank);
            }
        }
    }

    #[test]
    fn repeated_collectives_do_not_cross_talk() {
        let out = launch(4, |comm| {
            let mut acc = 0u64;
            for round in 0..100u64 {
                acc += comm.allreduce(round + comm.rank() as u64, |a, b| a + b);
            }
            acc
        })
        .unwrap();
        // Every round: sum of (round + r) over r in 0..4 = 4*round + 6.
        let expect: u64 = (0..100u64).map(|r| 4 * r + 6).sum();
        assert!(out.iter().all(|&v| v == expect));
    }

    #[test]
    fn send_recv_basic_and_tag_matching() {
        let out = launch(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, 123u32);
                comm.send(1, 9, 456u32);
                0
            } else {
                // Receive in reverse tag order to exercise the stash.
                let b: u32 = comm.recv(0, 9);
                let a: u32 = comm.recv(0, 7);
                assert_eq!((a, b), (123, 456));
                1
            }
        })
        .unwrap();
        assert_eq!(out, vec![0, 1]);
    }

    #[test]
    fn recv_any_reports_source() {
        let out = launch(4, |comm| {
            if comm.rank() == 0 {
                let mut seen = vec![];
                for _ in 0..3 {
                    let (src, v): (usize, usize) = comm.recv_any(1);
                    assert_eq!(v, src * 2);
                    seen.push(src);
                }
                seen.sort_unstable();
                assert_eq!(seen, vec![1, 2, 3]);
            } else {
                comm.send(0, 1, comm.rank() * 2);
            }
        })
        .unwrap();
        assert_eq!(out.len(), 4);
    }

    #[test]
    fn try_recv_returns_none_when_empty() {
        launch(2, |comm| {
            if comm.rank() == 0 {
                assert!(comm.try_recv::<u32>(1, 5).is_none());
                comm.barrier(); // let rank 1 send
                comm.barrier(); // ensure delivery ordering via rendezvous
                                // After both barriers the message is in flight or arrived;
                                // recv (blocking) must find it.
                let v: u32 = comm.recv(1, 5);
                assert_eq!(v, 77);
            } else {
                comm.barrier();
                comm.send(0, 5, 77u32);
                comm.barrier();
            }
        })
        .unwrap();
    }

    #[test]
    fn split_partitions_by_color_with_key_order() {
        let out = launch(6, |comm| {
            // Colors: even/odd parent rank; key reverses the parent order.
            let color = Some((comm.rank() % 2) as u64);
            let key = -(comm.rank() as i64);
            let sub = comm.split(color, key).expect("everyone has a color");
            // Each sub-communicator has 3 ranks and works.
            let members = sub.allgather(comm.rank());
            let sum = sub.allreduce(1u32, |a, b| a + b);
            (sub.rank(), sub.size(), members, sum)
        })
        .unwrap();
        for (parent_rank, (sub_rank, sub_size, members, sum)) in out.iter().enumerate() {
            assert_eq!(*sub_size, 3);
            assert_eq!(*sum, 3);
            // Reversed key ordering: highest parent rank becomes rank 0.
            let mut expect: Vec<usize> = (0..6).filter(|r| r % 2 == parent_rank % 2).collect();
            expect.reverse();
            assert_eq!(members, &expect);
            assert_eq!(expect[*sub_rank], parent_rank);
        }
    }

    #[test]
    fn split_with_undefined_color_returns_none() {
        let out = launch(4, |comm| {
            let color = (comm.rank() != 0).then_some(7u64);
            match comm.split(color, 0) {
                None => {
                    assert_eq!(comm.rank(), 0);
                    0
                }
                Some(sub) => {
                    assert_eq!(sub.size(), 3);
                    sub.allreduce(1usize, |a, b| a + b)
                }
            }
        })
        .unwrap();
        assert_eq!(out, vec![0, 3, 3, 3]);
    }

    #[test]
    fn split_subcommunicators_are_independent() {
        launch(4, |comm| {
            let sub = comm.split(Some((comm.rank() / 2) as u64), 0).unwrap();
            // Interleave parent and sub collectives; no cross-talk.
            for round in 0..10u64 {
                let parent_sum = comm.allreduce(round, |a, b| a + b);
                assert_eq!(parent_sum, 4 * round);
                let sub_sum = sub.allreduce(round, |a, b| a + b);
                assert_eq!(sub_sum, 2 * round);
            }
        })
        .unwrap();
    }

    #[test]
    fn single_rank_communicator_works() {
        let out = launch(1, |comm| {
            comm.barrier();
            let s = comm.allreduce(41, |a, b| a + b);
            let g = comm.allgather(s);

            comm.broadcast(0, Some(g[0] + 1))
        })
        .unwrap();
        assert_eq!(out, vec![42]);
    }
}
