//! Tagged point-to-point messaging between the ranks of a communicator.
//!
//! Each rank owns one unbounded MPSC queue; every peer holds a sender clone.
//! `(source, tag)` matching is implemented with a small per-rank stash of
//! packets that arrived out of order — the same structure as an MPI
//! unexpected-message queue.

use std::any::Any;
use std::cell::RefCell;
use std::sync::mpsc::{channel, Receiver, Sender};

use crate::collective::Stash;

/// One in-flight message.
pub(crate) struct Packet {
    pub(crate) src: usize,
    pub(crate) tag: u64,
    pub(crate) payload: Box<dyn Any + Send>,
}

/// The per-rank message endpoint: senders to every peer plus this rank's
/// receive queue and unexpected-message stash.
pub(crate) struct Endpoint {
    senders: Vec<Sender<Packet>>,
    receiver: Receiver<Packet>,
    stash: RefCell<Stash>,
}

impl Endpoint {
    /// Builds the fully connected mesh of endpoints for `size` ranks.
    pub(crate) fn create(size: usize) -> Vec<Endpoint> {
        let mut senders = Vec::with_capacity(size);
        let mut receivers = Vec::with_capacity(size);
        for _ in 0..size {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        receivers
            .into_iter()
            .map(|receiver| Endpoint {
                senders: senders.clone(),
                receiver,
                stash: RefCell::new(Stash::new()),
            })
            .collect()
    }

    pub(crate) fn send(&self, src: usize, dst: usize, tag: u64, payload: Box<dyn Any + Send>) {
        // The send only fails if the destination endpoint was dropped, i.e.
        // the peer rank already exited; mirroring MPI, that is a usage error
        // in the component, not a recoverable condition.
        self.senders[dst]
            .send(Packet { src, tag, payload })
            .unwrap_or_else(|_| panic!("send: rank {dst} exited before receiving tag {tag}"));
    }

    pub(crate) fn recv(&self, src: usize, tag: u64) -> Packet {
        if let Some(p) = self.take_stashed(|p| p.src == src && p.tag == tag) {
            return p;
        }
        loop {
            let packet = self.receiver.recv().unwrap_or_else(|_| {
                panic!("recv: all peers exited while awaiting rank {src} tag {tag}")
            });
            if packet.src == src && packet.tag == tag {
                return packet;
            }
            self.stash.borrow_mut().push_back(packet);
        }
    }

    fn take_stashed(&self, matches: impl Fn(&Packet) -> bool) -> Option<Packet> {
        let mut stash = self.stash.borrow_mut();
        let idx = stash.iter().position(matches)?;
        stash.remove(idx)
    }
}
