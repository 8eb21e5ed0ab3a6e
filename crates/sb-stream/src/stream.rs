//! The per-stream state machine: writer registration, step slots, bounded
//! buffering, and the completion/consumption protocol.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use sb_data::{lock, Chunk, VariableMeta};

use crate::error::{StreamError, StreamResult};
use crate::metrics::Counters;
use crate::trace::{EventKind, TraceSite, Tracer};

/// Writer-side buffering policy, fixed by the first writer rank to open the
/// stream.
///
/// Marked `#[non_exhaustive]` so future knobs are not breaking changes:
/// construct via [`WriterOptions::default`], [`WriterOptions::buffered`], or
/// [`WriterOptions::rendezvous`] and refine with the `with_*` setters.
#[non_exhaustive]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WriterOptions {
    /// Maximum steps buffered (committed or in progress) before
    /// `begin_step` blocks — FlexPath's "buffer data up to a certain size".
    pub queue_capacity: usize,
    /// When true, `end_step` blocks until the reader group has fully
    /// consumed the step — the no-overlap mode used by the overlap ablation.
    pub rendezvous: bool,
    /// Number of reader groups the writer expects (ADIOS declares its
    /// "write groups" up front). Steps are retained until at least this
    /// many groups have subscribed *and* consumed them, so no declared
    /// subscriber can miss data by attaching late.
    pub expected_reader_groups: usize,
}

impl Default for WriterOptions {
    fn default() -> Self {
        WriterOptions {
            queue_capacity: 4,
            rendezvous: false,
            expected_reader_groups: 1,
        }
    }
}

impl WriterOptions {
    /// Buffered (overlapping) mode with the given queue depth.
    pub fn buffered(queue_capacity: usize) -> WriterOptions {
        WriterOptions::default().with_queue_capacity(queue_capacity)
    }

    /// Synchronous hand-off: every step is exchanged before the writer may
    /// proceed. Used to measure what FlexPath's asynchrony buys.
    pub fn rendezvous() -> WriterOptions {
        WriterOptions {
            queue_capacity: 1,
            rendezvous: true,
            ..WriterOptions::default()
        }
    }

    /// Sets the buffered queue depth (builder style).
    pub fn with_queue_capacity(mut self, queue_capacity: usize) -> WriterOptions {
        assert!(queue_capacity >= 1, "queue capacity must be at least 1");
        self.queue_capacity = queue_capacity;
        self
    }

    /// Enables or disables rendezvous (synchronous hand-off) mode.
    pub fn with_rendezvous(mut self, rendezvous: bool) -> WriterOptions {
        self.rendezvous = rendezvous;
        self
    }

    /// Declares how many reader groups will subscribe (builder style).
    pub fn with_reader_groups(mut self, groups: usize) -> WriterOptions {
        assert!(groups >= 1, "a stream needs at least one reader group");
        self.expected_reader_groups = groups;
        self
    }
}

/// One variable inside one step: global metadata plus the writer chunks
/// received so far.
///
/// Public because transport backends move frozen steps around: the in-proc
/// backend shares them by `Arc`, the TCP backend rebuilds them from decoded
/// frames on the client side.
#[derive(Debug)]
pub struct VarSlot {
    /// Global metadata all contributing chunks agree on.
    pub meta: VariableMeta,
    /// The writer chunks received for this variable.
    pub chunks: Vec<Chunk>,
}

/// The frozen contents of a fully committed step.
pub type StepContents = Arc<BTreeMap<String, VarSlot>>;

#[derive(Debug, Default)]
struct Slot {
    committed: usize,
    /// Per reader group: ranks that have released this step.
    done_by: HashMap<String, usize>,
    staging: BTreeMap<String, VarSlot>,
    ready: Option<StepContents>,
}

/// One subscribed reader group: its size, the first step it observed, how
/// many steps it has fully released (all ranks ended them), and whether the
/// supervisor detached it after a downstream degradation.
struct ReaderGroup {
    nranks: usize,
    first_step: u64,
    /// Steps released by every rank of the group since `first_step`.
    /// Releases complete in step order (each rank steps sequentially), so
    /// `first_step + full_releases` is where a restarted group resumes.
    full_releases: u64,
    /// A detached group no longer holds steps back; its component was
    /// degraded or torn down and will not consume anything further.
    detached: bool,
}

struct State {
    writer_nranks: Option<usize>,
    reader_groups: HashMap<String, ReaderGroup>,
    options: WriterOptions,
    closed_writers: usize,
    /// Writer ranks that went away *without* closing — a dropped TCP
    /// connection or an explicit disconnect. Once every registered rank is
    /// closed-or-gone with at least one gone, blocked readers fail with
    /// `PeerGone` promptly instead of waiting out the hub timeout.
    gone_writers: usize,
    closed: bool,
    /// Step the current writer registration starts at (`base_step +
    /// queue.len()` at registration time); a restarted writer group resumes
    /// producing exactly where the failed incarnation's last *complete*
    /// step left off.
    writer_start: u64,
    /// Set when the workflow supervisor tears the stream down; blocked
    /// waiters return [`StreamError::PeerGone`] instead of hanging.
    poisoned: Option<String>,
    /// Step id of `queue[0]`.
    base_step: u64,
    queue: VecDeque<Slot>,
}

impl State {
    /// True when the front slot has been released by every group that can
    /// see it. Streams with no subscribers retain their steps (they will be
    /// delivered to whichever group attaches first). Detached groups no
    /// longer count.
    fn front_fully_consumed(&self) -> bool {
        if self.reader_groups.len() < self.options.expected_reader_groups.max(1) {
            return false;
        }
        let Some(front) = self.queue.front() else {
            return false;
        };
        if front.ready.is_none() {
            return false;
        }
        self.reader_groups.iter().all(|(name, g)| {
            g.detached
                || g.first_step > self.base_step
                || front.done_by.get(name).copied().unwrap_or(0) == g.nranks
        })
    }

    /// The slot of `step`, unless no writer has begun it yet or it has
    /// already left the queue.
    fn slot_mut(&mut self, step: u64) -> Option<&mut Slot> {
        let idx = usize::try_from(step.checked_sub(self.base_step)?).ok()?;
        self.queue.get_mut(idx)
    }
}

/// A named stream connecting one writer group to one reader group.
pub(crate) struct Stream {
    pub(crate) name: String,
    state: Mutex<State>,
    cond: Condvar,
    pub(crate) counters: Arc<Counters>,
    /// Micros; shared with the owning hub so a `RunOptions` timeout
    /// override reaches streams that already exist.
    wait_timeout_micros: Arc<AtomicU64>,
    /// The owning hub's tracer plus this stream's interned name; stream
    /// lifecycle instants (commit, EOS, poison) are recorded here, while
    /// per-endpoint blocking spans live in the writer/reader handles.
    pub(crate) tracer: Arc<Tracer>,
    pub(crate) trace_id: u32,
}

impl Stream {
    pub(crate) fn new(
        name: String,
        wait_timeout_micros: Arc<AtomicU64>,
        tracer: Arc<Tracer>,
    ) -> Stream {
        let trace_id = tracer.intern(&name);
        Stream {
            name,
            state: Mutex::new(State {
                writer_nranks: None,
                reader_groups: HashMap::new(),
                options: WriterOptions::default(),
                closed_writers: 0,
                gone_writers: 0,
                closed: false,
                writer_start: 0,
                poisoned: None,
                base_step: 0,
                queue: VecDeque::new(),
            }),
            cond: Condvar::new(),
            counters: Arc::new(Counters::default()),
            wait_timeout_micros,
            tracer,
            trace_id,
        }
    }

    fn wait_timeout(&self) -> Duration {
        Duration::from_micros(self.wait_timeout_micros.load(Ordering::Relaxed))
    }

    /// The typed refusal of a call that breaks the group protocol. In
    /// process that is the caller's bug and the handles panic on it; a
    /// broker session answers it, so no socket can reach a panic.
    fn refuse(&self, reason: String) -> StreamError {
        StreamError::PeerGone {
            stream: self.name.clone(),
            reason,
        }
    }

    /// Blocks on `cond` until `pred` holds, handing the guard back with
    /// `pred`'s value. Returns [`StreamError::PeerGone`] as soon as the
    /// stream is poisoned and [`StreamError::Timeout`] (with a state
    /// snapshot) after the hub timeout — a hung workflow surfaces as a typed,
    /// diagnosable error instead of a panic or a silent deadlock.
    fn wait_until<'a, T>(
        &self,
        state: MutexGuard<'a, State>,
        what: &str,
        pred: impl FnMut(&mut State) -> Option<T>,
    ) -> StreamResult<(MutexGuard<'a, State>, T)> {
        self.wait_until_or(state, what, pred, |_| None)
    }

    /// [`Stream::wait_until`] with an extra early-failure predicate: when
    /// `fail` yields an error the wait aborts immediately instead of running
    /// out the deadline. Checked *after* `pred`, so anything already
    /// satisfiable is still served.
    fn wait_until_or<'a, T>(
        &self,
        mut state: MutexGuard<'a, State>,
        what: &str,
        mut pred: impl FnMut(&mut State) -> Option<T>,
        mut fail: impl FnMut(&State) -> Option<StreamError>,
    ) -> StreamResult<(MutexGuard<'a, State>, T)> {
        let timeout = self.wait_timeout();
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(reason) = &state.poisoned {
                return Err(StreamError::PeerGone {
                    stream: self.name.clone(),
                    reason: reason.clone(),
                });
            }
            if let Some(v) = pred(&mut state) {
                return Ok((state, v));
            }
            if let Some(err) = fail(&state) {
                return Err(err);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            let waited;
            (state, waited) = self
                .cond
                .wait_timeout(state, left)
                .unwrap_or_else(PoisonError::into_inner);
            if waited.timed_out() {
                return Err(StreamError::Timeout {
                    stream: self.name.clone(),
                    waiting_for: what.to_string(),
                    timeout,
                    detail: format!(
                        "writers={:?} readers={:?} closed={} base_step={} queued={}",
                        state.writer_nranks,
                        state
                            .reader_groups
                            .iter()
                            .map(|(n, g)| (n.clone(), g.nranks))
                            .collect::<Vec<_>>(),
                        state.closed,
                        state.base_step,
                        state.queue.len(),
                    ),
                });
            }
        }
    }

    // ---- writer-group protocol -------------------------------------------------

    /// Registers a writer rank; returns the step the writer group starts at
    /// (nonzero when a restarted group reattaches to a stream that already
    /// holds committed steps). A rank that disagrees with the group's size
    /// or options is refused.
    pub(crate) fn register_writer(
        &self,
        nranks: usize,
        options: WriterOptions,
    ) -> StreamResult<u64> {
        assert!(nranks > 0, "writer group must have at least one rank");
        let mut state = lock(&self.state);
        match state.writer_nranks {
            None => {
                state.writer_nranks = Some(nranks);
                state.options = options;
                state.writer_start = state.base_step + state.queue.len() as u64;
                self.cond.notify_all();
            }
            Some(existing) if existing != nranks => {
                return Err(self.refuse(format!(
                    "writer ranks disagree on group size ({existing}, then {nranks})"
                )));
            }
            Some(_) if state.options != options => {
                return Err(self.refuse(format!(
                    "writer ranks disagree on options ({:?}, then {options:?})",
                    state.options
                )));
            }
            Some(_) => {}
        }
        Ok(state.writer_start)
    }

    /// A writer rank starts `step`; blocks while the buffer is full.
    pub(crate) fn writer_begin_step(&self, step: u64) -> StreamResult<()> {
        let state = lock(&self.state);
        let capacity = state.options.queue_capacity as u64;
        let start = Instant::now();
        let (mut state, ()) = self.wait_until(state, "buffer space", |s| {
            (step < s.base_step + capacity).then_some(())
        })?;
        self.counters.add_writer_wait(start.elapsed());
        // Create slots up through `step` (ranks run in lockstep, so this
        // extends by at most one in practice).
        while state.base_step + state.queue.len() as u64 <= step {
            state.queue.push_back(Slot::default());
        }
        Ok(())
    }

    /// A writer rank contributes a chunk to `step`. Refused unless the step
    /// is open, and when the chunk's metadata disagrees with what another
    /// rank put for the same variable.
    pub(crate) fn writer_put(&self, step: u64, chunk: Chunk) -> StreamResult<()> {
        let mut state = lock(&self.state);
        let Some(slot) = state.slot_mut(step).filter(|s| s.ready.is_none()) else {
            return Err(self.refuse(format!("put to step {step}, which is not open")));
        };
        let bytes = chunk.byte_len();
        let entry = slot
            .staging
            .entry(chunk.meta.name.clone())
            .or_insert_with(|| VarSlot {
                meta: chunk.meta.clone(),
                chunks: Vec::new(),
            });
        if entry.meta != chunk.meta {
            return Err(self.refuse(format!(
                "writer ranks disagree on metadata of {:?}",
                chunk.meta.name
            )));
        }
        entry.chunks.push(chunk);
        drop(state);
        self.counters.add_written(bytes);
        Ok(())
    }

    /// A writer rank finishes `step`; the last rank freezes the slot. In
    /// rendezvous mode, blocks until the reader group releases the step.
    /// Refused unless the step is open: a step is committed once.
    pub(crate) fn writer_end_step(
        &self,
        step: u64,
        rank: usize,
        nranks: usize,
    ) -> StreamResult<()> {
        let mut state = lock(&self.state);
        let Some(slot) = state.slot_mut(step).filter(|s| s.ready.is_none()) else {
            return Err(self.refuse(format!("end of step {step}, which is not open")));
        };
        slot.committed += 1;
        if slot.committed == nranks {
            let staged = std::mem::take(&mut slot.staging);
            slot.ready = Some(Arc::new(staged));
            self.counters
                .steps_committed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.tracer.instant(
                EventKind::StepCommitted,
                TraceSite::stream(self.trace_id, rank, step),
                0,
            );
            self.cond.notify_all();
        }
        if state.options.rendezvous {
            let start = Instant::now();
            let (_state, ()) = self.wait_until(state, "rendezvous consumption", |s| {
                (s.base_step > step).then_some(())
            })?;
            self.counters.add_writer_wait(start.elapsed());
        }
        Ok(())
    }

    /// A writer rank is *gone* without closing: its process died, its
    /// connection dropped, or it declared it will never produce again.
    ///
    /// Unlike [`StreamWriter::abandon`](crate::StreamWriter::abandon) — which
    /// leaves the stream untouched so the supervisor can decide — this marks
    /// the loss on the stream itself. Once every registered rank is
    /// closed-or-gone with at least one gone, readers blocked on an
    /// uncommitted step fail with `PeerGone` promptly instead of running out
    /// the hub timeout (the EOS race: a writer aborting between `end_step`
    /// and close used to leave readers hanging). A subsequent
    /// [`Stream::reattach_writer`] (component restart) clears the marks.
    pub(crate) fn writer_disconnect(&self) {
        let mut state = lock(&self.state);
        state.gone_writers += 1;
        self.cond.notify_all();
    }

    /// A writer rank closes; the last one marks the stream ended.
    pub(crate) fn writer_close(&self, rank: usize, nranks: usize) {
        let mut state = lock(&self.state);
        state.closed_writers += 1;
        if state.closed_writers == nranks {
            state.closed = true;
            let produced = state.base_step + state.queue.len() as u64;
            self.tracer.instant(
                EventKind::EndOfStream,
                TraceSite::stream(self.trace_id, rank, produced),
                0,
            );
            self.cond.notify_all();
        }
    }

    // ---- reader-group protocol -------------------------------------------------

    /// Registers rank membership of reader group `group`; returns the step
    /// this rank resumes at — `base_step` for a brand-new group, or the
    /// first not-yet-fully-released step for a group reattaching after a
    /// restart. A rank that disagrees with the group's size is refused.
    pub(crate) fn register_reader(&self, group: &str, nranks: usize) -> StreamResult<u64> {
        assert!(nranks > 0, "reader group must have at least one rank");
        let mut state = lock(&self.state);
        let base = state.base_step;
        match state.reader_groups.get(group) {
            None => {
                state.reader_groups.insert(
                    group.to_string(),
                    ReaderGroup {
                        nranks,
                        first_step: base,
                        full_releases: 0,
                        detached: false,
                    },
                );
                self.cond.notify_all();
                Ok(base)
            }
            Some(existing) if existing.nranks != nranks => Err(self.refuse(format!(
                "ranks of reader group {group:?} disagree on group size ({}, then {nranks})",
                existing.nranks
            ))),
            Some(existing) => Ok(existing.first_step + existing.full_releases),
        }
    }

    /// A reader rank asks for `step`; returns its frozen contents, or `None`
    /// at end of stream.
    pub(crate) fn reader_begin_step(&self, step: u64) -> StreamResult<Option<StepContents>> {
        let state = lock(&self.state);
        let start = Instant::now();
        let name = self.name.clone();
        let fail = move |s: &State| {
            let nranks = s.writer_nranks?;
            if s.gone_writers == 0 || s.closed {
                return None;
            }
            if s.closed_writers + s.gone_writers < nranks {
                return None;
            }
            // Every writer rank is closed or gone and at least one is gone:
            // the step being waited on can never be committed. (Committed
            // steps are still served — the success predicate runs first.)
            Some(StreamError::PeerGone {
                stream: name.clone(),
                reason: format!(
                    "writer group abandoned the stream ({} of {nranks} ranks \
                     gone before end of stream)",
                    s.gone_writers
                ),
            })
        };
        let (_state, got) = self.wait_until_or(
            state,
            "a committed step",
            |s| {
                let idx = step.checked_sub(s.base_step).map(|d| d as usize);
                if let Some(idx) = idx {
                    if idx < s.queue.len() {
                        if let Some(ready) = &s.queue[idx].ready {
                            return Some(Some(Arc::clone(ready)));
                        }
                    }
                }
                // No such committed step; if the writer group is done and will
                // never produce it, report end of stream.
                if s.closed {
                    let produced = s.base_step + s.queue.len() as u64;
                    let last_is_ready = s
                        .queue
                        .back()
                        .map(|slot| slot.ready.is_some())
                        .unwrap_or(true);
                    if step >= produced || (step + 1 == produced && !last_is_ready) {
                        return Some(None);
                    }
                }
                None
            },
            fail,
        )?;
        self.counters.add_reader_wait(start.elapsed());
        Ok(got)
    }

    /// A rank of reader group `group` releases `step`; slots are popped off
    /// the front once *every* subscribed group has released them, which
    /// unblocks writers waiting on buffer capacity. Refused when the step is
    /// not buffered or the group has already released it `nranks` times.
    pub(crate) fn reader_end_step(
        &self,
        group: &str,
        step: u64,
        nranks: usize,
    ) -> StreamResult<()> {
        let mut state = lock(&self.state);
        let fully_released = {
            let done = state
                .slot_mut(step)
                .map(|slot| slot.done_by.entry(group.to_string()).or_insert(0))
                .filter(|done| **done < nranks);
            let Some(done) = done else {
                return Err(self.refuse(format!(
                    "more releases of step {step} than ranks in reader group {group:?}"
                )));
            };
            *done += 1;
            *done == nranks
        };
        if fully_released {
            if let Some(g) = state.reader_groups.get_mut(group) {
                // Ranks step sequentially, so full releases complete in
                // step order; this counter is the group's resume point.
                g.full_releases += 1;
            }
        }
        if self.pop_consumed(&mut state) {
            self.cond.notify_all();
        }
        Ok(())
    }

    /// Pops every fully consumed front slot; returns whether any were.
    fn pop_consumed(&self, state: &mut State) -> bool {
        let mut popped = false;
        while state.front_fully_consumed() {
            state.queue.pop_front();
            state.base_step += 1;
            popped = true;
            self.counters
                .steps_consumed
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
        popped
    }

    /// A point-in-time copy of every *committed* step currently buffered,
    /// as `(step, contents)` pairs in step order. Steps are shared by `Arc`
    /// clone (no payload copies) and the stream's protocol state is
    /// untouched — readers and writers proceed as if nothing happened.
    /// Used by the reactive-trigger `snapshot_stream` action.
    pub(crate) fn snapshot(&self) -> Vec<(u64, StepContents)> {
        let state = lock(&self.state);
        state
            .queue
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| {
                slot.ready
                    .as_ref()
                    .map(|ready| (state.base_step + i as u64, Arc::clone(ready)))
            })
            .collect()
    }

    // ---- supervision hooks -----------------------------------------------------

    /// Marks the stream dead: every blocked (and future blocking) call
    /// returns [`StreamError::PeerGone`] with `reason`. Used by the
    /// workflow supervisor when aborting, so no component hangs waiting on
    /// a peer that will never come back.
    pub(crate) fn poison(&self, reason: &str) {
        let mut state = lock(&self.state);
        if state.poisoned.is_none() {
            state.poisoned = Some(reason.to_string());
            self.tracer.instant(
                EventKind::Poisoned,
                TraceSite::stream(self.trace_id, 0, state.base_step),
                0,
            );
        }
        self.cond.notify_all();
    }

    /// Forces a clean end-of-stream: any partially committed trailing steps
    /// are discarded and readers observe EOS once the remaining complete
    /// steps drain. This is the degradation contract — downstream sees a
    /// short stream, never a hang.
    pub(crate) fn force_end_of_stream(&self) {
        let mut state = lock(&self.state);
        while state.queue.back().is_some_and(|s| s.ready.is_none()) {
            state.queue.pop_back();
        }
        state.closed = true;
        let produced = state.base_step + state.queue.len() as u64;
        self.tracer.instant(
            EventKind::EndOfStream,
            TraceSite::stream(self.trace_id, 0, produced),
            1, // forced by the supervisor, not a natural close
        );
        self.cond.notify_all();
    }

    /// Detaches reader group `group`: it stops holding steps back (its
    /// component was degraded or the workflow is winding down). Registers a
    /// zero-rank placeholder if the group never attached, so writers whose
    /// `expected_reader_groups` counts it are not stuck waiting forever.
    pub(crate) fn detach_reader_group(&self, group: &str) {
        let mut state = lock(&self.state);
        let base = state.base_step;
        match state.reader_groups.get_mut(group) {
            Some(g) => g.detached = true,
            None => {
                state.reader_groups.insert(
                    group.to_string(),
                    ReaderGroup {
                        nranks: 0,
                        first_step: base,
                        full_releases: 0,
                        detached: true,
                    },
                );
            }
        }
        self.pop_consumed(&mut state);
        self.cond.notify_all();
    }

    /// Prepares reader group `group` for a restarted component: partial
    /// release counts at steps the group has not fully released are
    /// discarded (the restarted ranks will re-read and re-release them).
    pub(crate) fn reset_reader_group(&self, group: &str) {
        let mut state = lock(&self.state);
        let Some(g) = state.reader_groups.get_mut(group) else {
            return;
        };
        g.detached = false;
        let resume = g.first_step + g.full_releases;
        let base = state.base_step;
        for (i, slot) in state.queue.iter_mut().enumerate() {
            if base + i as u64 >= resume {
                if let Some(done) = slot.done_by.get_mut(group) {
                    *done = 0;
                }
            }
        }
        self.cond.notify_all();
    }

    /// Prepares the writer side for a restarted component: partially
    /// committed trailing steps are discarded (the restarted group
    /// re-produces them) and the registration is reopened so the new
    /// incarnation can attach.
    pub(crate) fn reattach_writer(&self) {
        let mut state = lock(&self.state);
        while state.queue.back().is_some_and(|s| s.ready.is_none()) {
            state.queue.pop_back();
        }
        state.writer_nranks = None;
        state.closed_writers = 0;
        state.gone_writers = 0;
        state.closed = false;
        self.cond.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steps_consumed_is_the_oldest_buffered_step() {
        // The broker's relay cache keeps a step only while this holds: it
        // reads `steps_consumed` as the hub's oldest buffered step.
        let stream = Stream::new(
            "s.fp".to_string(),
            Arc::new(AtomicU64::new(10_000_000)),
            Arc::new(Tracer::new()),
        );
        let agree = |stream: &Stream, base: u64| {
            assert_eq!(lock(&stream.state).base_step, base);
            assert_eq!(stream.counters.steps_consumed.load(Ordering::Relaxed), base);
        };
        let options = WriterOptions::default().with_reader_groups(2);
        stream.register_writer(1, options).unwrap();
        for group in ["a", "b"] {
            stream.register_reader(group, 1).unwrap();
        }
        for step in 0..3 {
            stream.writer_begin_step(step).unwrap();
            stream.writer_end_step(step, 0, 1).unwrap();
        }
        // A release that completes the step pops it.
        stream.reader_end_step("a", 0, 1).unwrap();
        agree(&stream, 0);
        stream.reader_end_step("b", 0, 1).unwrap();
        agree(&stream, 1);
        // Detaching the one group still holding step 1 pops it.
        stream.reader_end_step("a", 1, 1).unwrap();
        stream.detach_reader_group("b");
        agree(&stream, 2);
        // Discarding a half-written trailing step pops nothing, nor does
        // reopening the writer registration.
        stream.writer_begin_step(3).unwrap();
        stream.force_end_of_stream();
        agree(&stream, 2);
        stream.reattach_writer();
        agree(&stream, 2);
    }
}
