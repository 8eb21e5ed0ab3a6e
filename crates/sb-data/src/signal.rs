//! Scalar signal plumbing for reactive workflow triggers.
//!
//! Components publish small named scalars ("signals") as they step — a
//! histogram's per-step max, a run loop's wait/compute ratio — and the
//! workflow runtime can arm a synchronous hook that observes every
//! publication. The [`SignalBoard`] is deliberately tiny: when nothing is
//! armed, a publication costs one relaxed atomic load and returns.
//!
//! Signals are keyed `(component, signal)` and the board keeps only the
//! latest `(step, value)` per key: triggers react to fresh observations,
//! they do not replay history.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};

use crate::lock;

/// The synchronous observer a runtime arms on the board:
/// `(component, signal, step, value)`.
pub type SignalHook = Box<dyn Fn(&str, &str, u64, f64) + Send + Sync>;

/// A per-workflow board of the latest scalar signal values, with an
/// optional synchronous hook for reactive evaluation.
///
/// Publications while the board is disarmed are dropped (not recorded):
/// the board exists for trigger evaluation, not metrics — the metrics
/// layer has its own counters.
#[derive(Default)]
pub struct SignalBoard {
    /// One relaxed load per publication while disarmed.
    armed: AtomicBool,
    /// Latest `(step, value)` per `(component, signal)`.
    latest: Mutex<BTreeMap<(String, String), (u64, f64)>>,
    /// The armed observer, called synchronously from the publishing thread.
    /// Kept behind an `Arc` so [`SignalBoard::publish`] can clone it out and
    /// release the lock before calling: a hook is then free to publish
    /// signals itself (a trigger action reporting progress) without
    /// deadlocking on its own lock.
    hook: Mutex<Option<Arc<SignalHook>>>,
}

impl SignalBoard {
    /// An empty, disarmed board.
    pub fn new() -> SignalBoard {
        SignalBoard::default()
    }

    /// Whether a hook is armed (publications are live).
    #[inline]
    pub fn armed(&self) -> bool {
        self.armed.load(Ordering::Relaxed)
    }

    /// Arms `hook`: every subsequent [`SignalBoard::publish`] records the
    /// value and calls the hook synchronously on the publishing thread.
    /// Replaces any previously armed hook.
    pub fn arm(&self, hook: SignalHook) {
        *lock(&self.hook) = Some(Arc::new(hook));
        self.armed.store(true, Ordering::SeqCst);
    }

    /// Disarms the board; subsequent publications are dropped again. The
    /// recorded latest values stay readable.
    pub fn disarm(&self) {
        self.armed.store(false, Ordering::SeqCst);
        *lock(&self.hook) = None;
    }

    /// Publishes `component.signal = value` at `step`. A no-op (one relaxed
    /// atomic load) while the board is disarmed.
    ///
    /// The armed hook runs synchronously *on the publishing thread*, so a
    /// trigger firing at step `k` takes effect before the publisher commits
    /// anything after the publication point — the determinism reactive
    /// triggers rely on.
    pub fn publish(&self, component: &str, signal: &str, step: u64, value: f64) {
        if !self.armed() {
            return;
        }
        {
            let mut latest = lock(&self.latest);
            latest.insert((component.to_string(), signal.to_string()), (step, value));
        }
        // Both locks are released before the hook runs: the latest-value
        // lock so the hook may read the board, and the hook lock so an
        // action performed by the hook may itself publish a signal (a
        // reentrant publication sees the same hook and recurses safely
        // instead of deadlocking on the hook mutex).
        let hook = lock(&self.hook).as_ref().map(Arc::clone);
        if let Some(hook) = hook {
            hook(component, signal, step, value);
        }
    }

    /// The latest `(step, value)` published for `component.signal`, if any.
    pub fn latest(&self, component: &str, signal: &str) -> Option<(u64, f64)> {
        lock(&self.latest)
            .get(&(component.to_string(), signal.to_string()))
            .copied()
    }

    /// Every recorded signal as `(component, signal, step, value)`, sorted
    /// by key.
    pub fn snapshot(&self) -> Vec<(String, String, u64, f64)> {
        lock(&self.latest)
            .iter()
            .map(|((c, s), (step, v))| (c.clone(), s.clone(), *step, *v))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::Arc;

    #[test]
    fn disarmed_publish_is_dropped() {
        let board = SignalBoard::new();
        board.publish("histogram", "max", 3, 9.5);
        assert_eq!(board.latest("histogram", "max"), None);
        assert!(board.snapshot().is_empty());
    }

    #[test]
    fn armed_publish_records_and_hooks() {
        let board = Arc::new(SignalBoard::new());
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        board.arm(Box::new(move |c, s, step, v| {
            assert_eq!((c, s, step, v), ("histogram", "max", 7, 42.0));
            seen2.fetch_add(1, Ordering::SeqCst);
        }));
        board.publish("histogram", "max", 7, 42.0);
        assert_eq!(seen.load(Ordering::SeqCst), 1);
        assert_eq!(board.latest("histogram", "max"), Some((7, 42.0)));

        board.disarm();
        board.publish("histogram", "max", 8, 50.0);
        assert_eq!(seen.load(Ordering::SeqCst), 1, "disarmed hook must not run");
        // Latest values recorded while armed stay readable.
        assert_eq!(board.latest("histogram", "max"), Some((7, 42.0)));
    }

    #[test]
    fn latest_wins_and_snapshot_sorts() {
        let board = SignalBoard::new();
        board.arm(Box::new(|_, _, _, _| {}));
        board.publish("b", "x", 0, 1.0);
        board.publish("a", "y", 1, 2.0);
        board.publish("b", "x", 2, 3.0);
        assert_eq!(board.latest("b", "x"), Some((2, 3.0)));
        let snap = board.snapshot();
        assert_eq!(
            snap,
            vec![
                ("a".to_string(), "y".to_string(), 1, 2.0),
                ("b".to_string(), "x".to_string(), 2, 3.0),
            ]
        );
    }

    #[test]
    fn hook_may_publish_reentrantly() {
        // Regression: publish used to hold the hook mutex while calling the
        // hook, so a hook that published a follow-up signal deadlocked.
        let board = Arc::new(SignalBoard::new());
        let b2 = Arc::clone(&board);
        let depth = Arc::new(AtomicUsize::new(0));
        let d2 = Arc::clone(&depth);
        board.arm(Box::new(move |c, _, step, v| {
            d2.fetch_add(1, Ordering::SeqCst);
            if c != "trigger" {
                // The action reports its own progress signal from inside
                // the hook — the publication that used to deadlock.
                b2.publish("trigger", "fired", step, v + 1.0);
            }
        }));
        board.publish("sim", "rate", 4, 1.0);
        assert_eq!(depth.load(Ordering::SeqCst), 2, "reentrant publish ran");
        assert_eq!(board.latest("trigger", "fired"), Some((4, 2.0)));
    }

    #[test]
    fn hook_may_read_the_board() {
        let board = Arc::new(SignalBoard::new());
        let b2 = Arc::clone(&board);
        board.arm(Box::new(move |c, s, _, _| {
            // Reading latest from inside the hook must not deadlock.
            assert!(b2.latest(c, s).is_some());
        }));
        board.publish("sim", "rate", 1, 0.5);
    }
}
