//! Deterministic fault injection for chaos testing.
//!
//! A [`FaultPlan`] is a list of directives — kill, stall, drop-chunk, or
//! delay-jitter — each targeting one component label. Installing a plan on a
//! [`crate::StreamHub`] makes the component run loops consult it at the top
//! of every step via [`crate::StreamHub::fault_for`]; with a fixed seed and
//! fixed directives the whole run is reproducible, which is what lets the
//! chaos tests assert golden outputs *under* injected failures.
//!
//! Plans are stateful (discrete directives fire a bounded number of times
//! per rank, so a restarted component is not re-killed forever); install a
//! freshly built plan for every run you want to compare.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

use sb_data::lock;

/// What kind of fault a directive injects, and when.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultKind {
    /// The component errors out (as if it crashed) when it reaches `step`.
    /// Fires once per rank, so a restarted component survives the retry.
    KillAt {
        /// Transport step at which the component dies.
        step: u64,
    },
    /// The component silently stops making progress at `step`: it abandons
    /// its outputs without closing them, so peers see neither data nor EOS —
    /// the "peer disappeared without a goodbye" scenario. Fires once per
    /// rank.
    StallAt {
        /// Transport step at which the component goes quiet.
        step: u64,
    },
    /// The component suppresses its output chunk at `step` (metadata-only
    /// step), modelling a lossy link. Fires once per rank.
    DropChunkAt {
        /// Transport step whose payload is dropped.
        step: u64,
    },
    /// Every step sleeps a deterministic pseudo-random duration in
    /// `[0, max]`, derived from the plan seed, the component label, the
    /// rank, and the step — schedule perturbation without nondeterminism.
    DelayJitter {
        /// Upper bound on the injected per-step delay.
        max: Duration,
    },
}

#[derive(Debug, Clone)]
struct Directive {
    component: String,
    kind: FaultKind,
}

/// A discrete fault operation a run loop must apply this step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Return an injected-fault error from the component.
    Kill,
    /// Abandon outputs and go quiet without closing them.
    Stall,
    /// Suppress this step's output payload.
    DropChunk,
}

/// The fault(s) to apply at one (component, rank, step) site.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InjectedFault {
    /// Sleep this long before doing anything else (zero when no jitter
    /// directive matches).
    pub delay: Duration,
    /// At most one discrete operation per site; `None` for a clean step.
    pub op: Option<FaultOp>,
}

impl InjectedFault {
    /// A site with no injected fault.
    pub fn none() -> InjectedFault {
        InjectedFault {
            delay: Duration::ZERO,
            op: None,
        }
    }
}

/// A seeded, deterministic schedule of injected faults.
///
/// ```
/// use sb_stream::faults::FaultPlan;
/// use std::time::Duration;
///
/// let plan = FaultPlan::seeded(7)
///     .kill_at("magnitude", 2)
///     .delay_jitter("lammps", Duration::from_millis(2));
/// let first = plan.consult("magnitude", 0, 2).op;
/// let again = plan.consult("magnitude", 0, 2).op;
/// assert!(first.is_some() && again.is_none()); // kill fires once per rank
/// ```
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    directives: Vec<Directive>,
    /// (directive index, rank) -> times fired. Discrete directives fire
    /// once per rank so supervision retries can succeed.
    fired: Mutex<HashMap<(usize, usize), u32>>,
}

impl FaultPlan {
    /// An empty plan whose delay jitter derives from `seed`.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            directives: Vec::new(),
            fired: Mutex::new(HashMap::new()),
        }
    }

    /// The seed the plan was built with.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Adds an arbitrary directive (builder style).
    pub fn with_fault(mut self, component: &str, kind: FaultKind) -> FaultPlan {
        self.directives.push(Directive {
            component: component.to_string(),
            kind,
        });
        self
    }

    /// Kill `component` when it reaches transport step `step`.
    pub fn kill_at(self, component: &str, step: u64) -> FaultPlan {
        self.with_fault(component, FaultKind::KillAt { step })
    }

    /// Stall `component` (quiet abandon, no EOS) at transport step `step`.
    pub fn stall_at(self, component: &str, step: u64) -> FaultPlan {
        self.with_fault(component, FaultKind::StallAt { step })
    }

    /// Drop `component`'s output payload at transport step `step`.
    pub fn drop_chunk_at(self, component: &str, step: u64) -> FaultPlan {
        self.with_fault(component, FaultKind::DropChunkAt { step })
    }

    /// Add seeded per-step delay jitter up to `max` to `component`.
    pub fn delay_jitter(self, component: &str, max: Duration) -> FaultPlan {
        self.with_fault(component, FaultKind::DelayJitter { max })
    }

    /// The fault(s) to apply at `(component, rank, step)`. Discrete
    /// directives (kill/stall/drop) fire once per rank; jitter applies to
    /// every step. At most one discrete op is returned (first match wins).
    pub fn consult(&self, component: &str, rank: usize, step: u64) -> InjectedFault {
        let mut out = InjectedFault::none();
        let mut fired = lock(&self.fired);
        for (idx, d) in self.directives.iter().enumerate() {
            if d.component != component {
                continue;
            }
            match &d.kind {
                FaultKind::DelayJitter { max } => {
                    let nanos = max.as_nanos() as u64;
                    if nanos > 0 {
                        let h = splitmix(
                            self.seed
                                ^ str_hash(component)
                                ^ (rank as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                                ^ step.wrapping_mul(0xbf58_476d_1ce4_e5b9),
                        );
                        out.delay += Duration::from_nanos(h % nanos);
                    }
                }
                discrete => {
                    let at = match discrete {
                        FaultKind::KillAt { step } => *step,
                        FaultKind::StallAt { step } => *step,
                        FaultKind::DropChunkAt { step } => *step,
                        FaultKind::DelayJitter { .. } => unreachable!(),
                    };
                    if step != at || out.op.is_some() {
                        continue;
                    }
                    let count = fired.entry((idx, rank)).or_insert(0);
                    if *count >= 1 {
                        continue;
                    }
                    *count += 1;
                    out.op = Some(match discrete {
                        FaultKind::KillAt { .. } => FaultOp::Kill,
                        FaultKind::StallAt { .. } => FaultOp::Stall,
                        FaultKind::DropChunkAt { .. } => FaultOp::DropChunk,
                        FaultKind::DelayJitter { .. } => unreachable!(),
                    });
                }
            }
        }
        out
    }
}

/// splitmix64 finalizer — a tiny, dependency-free bit mixer whose output is
/// fully determined by its input.
fn splitmix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// FNV-1a over the label bytes; stable across runs and platforms (unlike
/// `DefaultHasher`, which is documented to be allowed to change).
fn str_hash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn discrete_faults_fire_once_per_rank() {
        let plan = FaultPlan::seeded(1).kill_at("t", 3);
        assert_eq!(plan.consult("t", 0, 2).op, None);
        assert_eq!(plan.consult("t", 0, 3).op, Some(FaultOp::Kill));
        assert_eq!(plan.consult("t", 0, 3).op, None, "second pass survives");
        assert_eq!(plan.consult("t", 1, 3).op, Some(FaultOp::Kill));
        assert_eq!(plan.consult("other", 0, 3).op, None);
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let max = Duration::from_millis(5);
        let a = FaultPlan::seeded(42).delay_jitter("sim", max);
        let b = FaultPlan::seeded(42).delay_jitter("sim", max);
        for step in 0..32 {
            let da = a.consult("sim", 1, step).delay;
            let db = b.consult("sim", 1, step).delay;
            assert_eq!(da, db, "same seed, same delay");
            assert!(da < max);
        }
        let c = FaultPlan::seeded(43).delay_jitter("sim", max);
        let differs = (0..32).any(|s| c.consult("sim", 1, s).delay != a.consult("sim", 1, s).delay);
        assert!(differs, "different seeds should perturb differently");
    }

    #[test]
    fn stall_and_drop_map_to_their_ops() {
        let plan = FaultPlan::seeded(0).stall_at("a", 1).drop_chunk_at("b", 0);
        assert_eq!(plan.consult("a", 0, 1).op, Some(FaultOp::Stall));
        assert_eq!(plan.consult("b", 0, 0).op, Some(FaultOp::DropChunk));
    }
}
