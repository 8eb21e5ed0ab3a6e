//! The component abstraction and the one step loop.
//!
//! A SmartBlock component is launched with a process count and run-time
//! arguments only; it learns everything else (shapes, labels, types) from
//! the stream. The [`Component`] trait captures that contract;
//! [`run_steps`] is the step loop every built-in component — source,
//! transform, sink, join, fan-out — runs on.

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sb_comm::Communicator;
use sb_data::{Buffer, Chunk, DataError, DataResult, Region, SharedBuffer, VariableMeta};
use sb_stream::{
    EventKind, FaultOp, StepStatus, StreamError, StreamHub, StreamReader, StreamWriter, TraceSite,
    WriterOptions,
};

use crate::analysis::{ArraySpec, Signature, StreamSpec};
use crate::error::{ComponentError, ComponentResult, StepResult};
use crate::metrics::ComponentStats;

thread_local! {
    /// Stats a failing [`run_steps`] accumulated before its error. A rank
    /// that dies mid-run returns `Err` — which carries no
    /// [`ComponentStats`] — so the loop stashes its partials here and the
    /// supervisor harvests them on the same thread, letting a restarted
    /// component report the union of all its attempts instead of only the
    /// final one.
    static PARTIAL_STATS: RefCell<Option<ComponentStats>> = const { RefCell::new(None) };
}

/// Takes the stats the failing run loop stashed on this thread, if any.
/// Called by the supervisor's rank closure right after `Component::run`
/// returns, on the same thread the loop ran on.
pub(crate) fn take_partial_stats() -> Option<ComponentStats> {
    PARTIAL_STATS.with(|cell| cell.borrow_mut().take())
}

/// The per-step trace instrumentation of one run loop: the hub tracer plus
/// this component's interned workflow label. Everything is a no-op (one
/// relaxed atomic load) while tracing is disabled.
struct LoopTrace {
    tracer: Arc<sb_stream::Tracer>,
    label: u32,
    rank: usize,
}

impl LoopTrace {
    fn new(hub: &StreamHub, label: &str, rank: usize) -> LoopTrace {
        let tracer = Arc::clone(hub.tracer());
        let label = if tracer.enabled() {
            tracer.intern(label)
        } else {
            0
        };
        LoopTrace {
            tracer,
            label,
            rank,
        }
    }

    #[inline]
    fn now(&self) -> u64 {
        if self.tracer.enabled() {
            self.tracer.now_ns()
        } else {
            0
        }
    }

    #[inline]
    fn span(&self, kind: EventKind, step: u64, start_ns: u64) {
        self.tracer.span(
            kind,
            TraceSite::component(self.label, self.rank, step),
            start_ns,
        );
    }
}

/// A `(stream, array)` name pair — the unit of workflow wiring.
///
/// Launch scripts connect components by using one component's output pair
/// as another's input pair.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StreamArray {
    /// Stream name (e.g. `"lmpselect.fp"`).
    pub stream: String,
    /// Array name within the stream (e.g. `"lmpsel"`).
    pub array: String,
}

impl StreamArray {
    /// Builds a pair from anything string-like.
    pub fn new(stream: impl Into<String>, array: impl Into<String>) -> StreamArray {
        StreamArray {
            stream: stream.into(),
            array: array.into(),
        }
    }
}

impl<S: Into<String>, A: Into<String>> From<(S, A)> for StreamArray {
    fn from((stream, array): (S, A)) -> StreamArray {
        StreamArray::new(stream, array)
    }
}

impl std::fmt::Display for StreamArray {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}:{}", self.stream, self.array)
    }
}

/// A runnable workflow component.
///
/// `run` is called once per rank, on that rank's thread, with the
/// component's communicator and the workflow's stream hub. Implementations
/// must be pure configuration (shared immutably across ranks).
///
/// A component declares its wiring once, here: [`run_steps`] opens exactly
/// the streams its [`signature`](Component::signature) reads (else its
/// [`input_streams`](Component::input_streams)) and its
/// [`output_streams`](Component::output_streams) — what
/// [`crate::Workflow::validate`] checks and the supervisor detaches or
/// resets. The base [`label`](Component::label) only names the component;
/// reader groups, writer policy, fault policies and plans, signals, trace
/// spans and errors are keyed by its workflow label — the label the
/// workflow launched its ranks under, unique when one type runs twice
/// (`histogram`, `histogram-2`). A component names no reader group: each
/// read subscribes under the workflow label, a later read of a stream it
/// already reads under `label#i`, `i` the read's index. Nor does it say
/// how its writers buffer: [`run_steps`] opens every output under the
/// queue depth and rendezvous mode its workflow entry declares
/// ([`crate::Workflow::set_writer_options`], a `.sb` line's `queue=` and
/// `rendezvous=`).
pub trait Component: Send + Sync + 'static {
    /// Base label: the component type's name, from which the workflow
    /// derives its unique label.
    fn label(&self) -> String;

    /// Executes one rank of the component until its input ends.
    ///
    /// Failure is a first-class outcome: a stalled peer, malformed input,
    /// or injected chaos fault returns a typed [`ComponentError`] instead
    /// of panicking, and the workflow supervisor applies the component's
    /// [`crate::FaultPolicy`] to it.
    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult;

    /// The streams this component reads, in [`StepIo::inputs`] order, when
    /// its [`signature`](Component::signature) declares no reads; a
    /// component that declares reads reads exactly their streams.
    fn input_streams(&self) -> Vec<String> {
        Vec::new()
    }

    /// Streams this component writes, in [`StepIo::put`] order.
    fn output_streams(&self) -> Vec<String> {
        Vec::new()
    }

    /// The component's static contract — declared reads plus a transfer
    /// function from input to output array specs — consumed by
    /// [`crate::Workflow::validate`] and, step by step, by [`run_steps`].
    /// The default is fully opaque: the component's reads are unchecked and
    /// its outputs propagate as [`crate::analysis::StreamSpec::Opaque`],
    /// silencing (never falsifying) downstream checks.
    fn signature(&self) -> crate::analysis::Signature {
        crate::analysis::Signature::opaque()
    }

    /// Applies a runtime control request from a reactive trigger (e.g.
    /// [`crate::triggers::ControlAction::SetOutputStride`]). Returns whether
    /// the component honoured it; the default ignores every action, so
    /// components opt in per action. Called from the triggering thread
    /// while the component is running — implementations must route the
    /// request through interior atomics/locks, not `&mut self`.
    fn apply_control(&self, action: &crate::triggers::ControlAction) -> bool {
        let _ = action;
        false
    }
}

/// The label `component` answers to in its workflow — the key of its fault
/// plan, signals, trace spans and errors: the name its ranks were launched
/// under ([`sb_stream::thread_label`]), else its base [`Component::label`].
pub(crate) fn workflow_label<C: Component + ?Sized>(component: &C) -> String {
    sb_stream::thread_label().unwrap_or_else(|| component.label())
}

/// The streams `component` reads, in [`StepIo::inputs`] order: its
/// signature's reads, else its [`Component::input_streams`].
pub(crate) fn read_streams<C: Component + ?Sized>(component: &C) -> Vec<String> {
    let reads = component.signature().reads;
    if reads.is_empty() {
        return component.input_streams();
    }
    reads.into_iter().map(|r| r.stream).collect()
}

/// The `(stream, reader group)` pairs the component labelled `label`
/// subscribes, in [`StepIo::inputs`] order — the one group rule, which
/// [`run_steps`], the supervisor and the analyser all call. A read's group
/// is the component's workflow label; a read of a stream the component
/// already reads gets `label#i`, `i` the read's index. Workflow labels are
/// unique, so no two reads anywhere share a group.
pub(crate) fn subscriptions<C: Component + ?Sized>(
    label: &str,
    component: &C,
) -> Vec<(String, String)> {
    let streams = read_streams(component);
    streams
        .iter()
        .enumerate()
        .map(|(i, stream)| {
            let group = if streams[..i].contains(stream) {
                format!("{label}#{i}")
            } else {
                label.to_string()
            };
            (stream.clone(), group)
        })
        .collect()
}

/// How many reader groups subscribe to each stream read by the
/// `(label, component)` entries: one per subscription, since each is a
/// group of its own. A writer keeps a step until that many groups have it.
pub(crate) fn reader_group_counts<'a>(
    entries: impl IntoIterator<Item = (&'a str, &'a dyn Component)>,
) -> BTreeMap<String, usize> {
    let mut counts = BTreeMap::new();
    for (label, component) in entries {
        for (stream, _) in subscriptions(label, component) {
            *counts.entry(stream).or_default() += 1;
        }
    }
    counts
}

/// One open step, as [`run_steps`] hands it to the per-step closure: every
/// input is inside `begin_step`, no output is yet.
pub struct StepIo<'a> {
    /// The *stream* step, not a per-incarnation count: a component
    /// restarted by the supervisor resumes mid-stream and must label (or
    /// produce) the step being replayed.
    pub step: u64,
    /// The component's workflow label: the key its signals publish under.
    pub label: &'a str,
    /// The open readers, in the order of the component's reads.
    pub inputs: &'a [StreamReader],
    /// This component's communicator.
    pub comm: &'a Communicator,
    contract: &'a Contract,
    outputs: &'a mut [Output],
}

impl<'a> StepIo<'a> {
    /// Self-describing metadata of `array` on input `input`; a stream that
    /// does not carry it is a typed error naming the array.
    pub fn meta(&self, input: usize, array: &str) -> DataResult<&'a VariableMeta> {
        meta_of(&self.inputs[input], array)
    }

    /// This rank's box of read `read` (in the signature's reads order), from
    /// its [`PartitionRule`](crate::analysis::PartitionRule); `None` when
    /// this rank reads nothing of it.
    pub fn region(&self, read: usize) -> Option<&'a Region> {
        self.contract.regions[read].as_ref()
    }

    /// The meta of `array` on output `output` that the signature's transfer
    /// derives from this step's input metas. It carries no attrs; an array
    /// the transfer gives no fully fixed spec has none.
    pub fn out_meta(&self, output: usize, array: &str) -> DataResult<&'a VariableMeta> {
        self.contract
            .outputs
            .get(output)
            .and_then(|metas| metas.iter().find(|m| m.name == array))
            .ok_or_else(|| DataError::Contract {
                detail: format!("the signature derives no meta for output array {array:?}"),
            })
    }

    /// Stages `chunk` for output `output` (in [`Component::output_streams`]
    /// order). Nothing reaches a stream until the closure returns
    /// [`StepEnd::Publish`]; a rank that stages nothing still paces the
    /// output's step.
    pub fn put(&mut self, output: usize, chunk: Chunk) {
        self.outputs[output].staged.push(chunk);
    }

    /// Storage of a payload this rank committed on output `output` in one
    /// of its last `queue + 1` steps, once nothing else holds it: no reader
    /// view, hub slot or relay entry can see it again, so a kernel may
    /// overwrite it with this step's output instead of faulting in fresh
    /// pages. `None` while every kept payload is still held, and on the
    /// first call: the loop keeps an output's payloads only once its
    /// component has asked for one, so others free theirs as before.
    pub fn reclaim(&mut self, output: usize) -> Option<Buffer> {
        self.outputs[output].reclaim()
    }
}

/// One output of the step loop: the chunks the open step staged, and the
/// payloads of the steps it committed last.
struct Output {
    staged: Vec<Chunk>,
    /// Payload handles of the last `window` committed steps, each with its
    /// step, once `reclaiming`. The hub buffers at most `queue` of a
    /// writer's steps, so a window of `queue + 1` always spans one the hub
    /// has retired.
    kept: VecDeque<(u64, SharedBuffer)>,
    window: u64,
    reclaiming: bool,
}

impl Output {
    fn new(policy: WriterOptions) -> Output {
        Output {
            staged: Vec::new(),
            kept: VecDeque::new(),
            window: u64::from(policy.queue_capacity().get()) + 1,
            reclaiming: false,
        }
    }

    /// Drops the handles of steps that fell out of the window ending at
    /// `step`.
    fn forget_before(&mut self, step: u64) {
        let window = self.window;
        self.kept.retain(|&(at, _)| at + window > step);
    }

    /// Keeps `payload`, committed at `step`, if the component reclaims.
    fn keep(&mut self, step: u64, payload: &SharedBuffer) {
        if self.reclaiming {
            self.kept.push_back((step, payload.clone()));
        }
    }

    /// A kept payload whose handle is the only one left, as storage.
    fn reclaim(&mut self) -> Option<Buffer> {
        self.reclaiming = true;
        for _ in 0..self.kept.len() {
            let (step, payload) = self.kept.pop_front()?;
            match SharedBuffer::try_unwrap(payload) {
                Ok(storage) => return Some(storage),
                Err(held) => self.kept.push_back((step, held)),
            }
        }
        None
    }
}

fn meta_of<'r>(reader: &'r StreamReader, array: &str) -> DataResult<&'r VariableMeta> {
    reader.meta(array).ok_or_else(|| DataError::Container {
        detail: format!("no array {array:?} in stream"),
    })
}

/// What a component's [`Signature`] says about one step, for one set of
/// input metas: each read's region on this rank and each output's metas.
#[derive(Default)]
struct Contract {
    /// The meta of each read this was derived from.
    inputs: Vec<VariableMeta>,
    /// This rank's box of each read; `None` where it reads nothing.
    regions: Vec<Option<Region>>,
    /// Per output stream, the metas of the arrays the transfer gives a
    /// fully fixed spec.
    outputs: Vec<Vec<VariableMeta>>,
}

impl Contract {
    /// Re-derives the contract unless every read's meta still has the
    /// shape, dtype and labels it was derived from. A read the stream does
    /// not carry, or a transfer error (SB006), fails the step; the
    /// signature's advisory check is the analyser's alone.
    fn refresh(
        &mut self,
        signature: &Signature,
        readers: &[StreamReader],
        comm: &Communicator,
    ) -> DataResult<()> {
        let reads = &signature.reads;
        let metas = || {
            reads
                .iter()
                .zip(readers)
                .map(|(read, reader)| meta_of(reader, &read.array))
        };
        let mut same = self.inputs.len() == reads.len();
        for (meta, old) in metas().zip(&self.inputs) {
            let meta = meta?;
            same &= meta.shape == old.shape && meta.dtype == old.dtype && meta.labels == old.labels;
        }
        if same {
            return Ok(());
        }
        let inputs: Vec<VariableMeta> = metas().map(|m| m.cloned()).collect::<DataResult<_>>()?;
        let specs: Vec<StreamSpec> = reads
            .iter()
            .zip(&inputs)
            .map(|(read, meta)| StreamSpec::known_one(read.array.clone(), ArraySpec::of(meta)))
            .collect();
        let out_specs = match signature.transfer.as_ref().map(|transfer| transfer(&specs)) {
            None => Vec::new(),
            Some(Ok(out_specs)) => out_specs,
            Some(Err(error)) => {
                let stream = reads
                    .iter()
                    .map(|r| format!("{}:{}", r.stream, r.array))
                    .collect::<Vec<_>>()
                    .join(", ");
                return Err(DataError::Contract {
                    detail: format!("input {stream:?}: {error}"),
                });
            }
        };
        self.outputs = out_specs
            .iter()
            .map(|spec| match spec {
                StreamSpec::Known(arrays) => arrays
                    .iter()
                    .filter_map(|(name, spec)| spec.to_meta(name))
                    .collect(),
                StreamSpec::Opaque => Vec::new(),
            })
            .collect();
        self.regions = reads
            .iter()
            .zip(&inputs)
            .map(|(read, meta)| read.partition.region(&meta.shape, comm.size(), comm.rank()))
            .collect();
        self.inputs = inputs;
        Ok(())
    }
}

/// How the per-step closure of [`run_steps`] ended its step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepEnd {
    /// Commit one step, holding whatever was staged, on every output.
    Publish {
        /// Bytes this rank read from its inputs this step.
        bytes_in: u64,
        /// Time spent in the compute kernel this step.
        compute: Duration,
    },
    /// Consume the inputs but leave every output where it is: what was
    /// staged is discarded and no output step is paced (a decimating
    /// component between two of its publishes). The step number of a
    /// component without inputs is its output's, so it does not advance.
    Skip {
        /// Bytes this rank read from its inputs this step.
        bytes_in: u64,
        /// Time spent in the compute kernel this step.
        compute: Duration,
    },
    /// Nothing left to produce (an exhausted source): close the outputs.
    Done,
}

/// What a fault-injection directive asks the current step to do (beyond
/// killing the component, which [`fault_gate`] reports as an error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum StepFault {
    /// No directive fired; run the step normally.
    Clean,
    /// Suppress this step's output payload (the step is still paced, so
    /// downstream sees a metadata-only step, not a hang).
    DropChunk,
    /// Go quiet: leave the run without closing the outputs — the
    /// disappeared-peer scenario.
    Stall,
}

/// Consults the hub's installed [`sb_stream::FaultPlan`] for
/// `(label, rank, step)`, sleeping any injected delay jitter in place.
fn fault_gate(
    hub: &StreamHub,
    label: &str,
    rank: usize,
    step: u64,
) -> Result<StepFault, ComponentError> {
    let fault = hub.fault_for(label, rank, step);
    if !fault.delay.is_zero() {
        std::thread::sleep(fault.delay);
    }
    if let Some(op) = fault.op {
        let tracer = hub.tracer();
        if tracer.enabled() {
            let code = match op {
                FaultOp::Kill => 1,
                FaultOp::Stall => 2,
                FaultOp::DropChunk => 3,
            };
            tracer.instant(
                EventKind::FaultInjected,
                TraceSite::component(tracer.intern(label), rank, step),
                code,
            );
        }
    }
    match fault.op {
        Some(FaultOp::Kill) => Err(ComponentError::Injected {
            label: label.to_string(),
            rank,
            step,
        }),
        Some(FaultOp::Stall) => Ok(StepFault::Stall),
        Some(FaultOp::DropChunk) => Ok(StepFault::DropChunk),
        None => Ok(StepFault::Clean),
    }
}

/// Publishes a step's wait/compute ratio on the hub's signal board
/// (`<label>.wait_ratio`, in `[0, 1]`) for reactive triggers to observe.
/// Free (one relaxed atomic load) while no trigger engine is armed.
fn publish_wait_ratio(hub: &StreamHub, label: &str, step: u64, wait: Duration, compute: Duration) {
    let signals = hub.signals();
    if !signals.armed() {
        return;
    }
    let total = wait.as_secs_f64() + compute.as_secs_f64();
    let ratio = if total > 0.0 {
        wait.as_secs_f64() / total
    } else {
        0.0
    };
    signals.publish(label, "wait_ratio", step, ratio);
}

/// How a run that did not fail left its loop.
enum Exit {
    /// The inputs ended (or the closure was [`StepEnd::Done`]).
    Ended,
    /// An injected `Stall` fired.
    Stalled,
}

/// The step loop every component runs on — the paper's skeleton, once:
/// open the streams `component` declares (each output with the writer
/// policy its workflow declared on the hub), then per I/O timestep discover the inputs' step, let `per_step` read its
/// partition, apply its kernel and stage its chunks, and publish them,
/// until an input ends.
///
/// The closure holds the kernel and the metadata only. The loop owns the
/// rest: the fault gate (keyed on the stream step of the first input, or of
/// the first output for a source); `begin_step` on every input, where the
/// first end-of-stream ends the run and the other inputs are drained so
/// their producers can finish; releasing the inputs *before* publishing;
/// begin-all → put → end-all on the outputs, so a join downstream of a
/// fan-out sees every branch of a step once the last `end_step` lands; the
/// `step` ⊇ `wait` / `compute` / `publish` trace spans and the
/// `<label>.wait_ratio` signal, keyed like the fault gate by the workflow
/// label; and the [`ComponentStats`] attribution
/// (`wait_time` = blocking on inputs + blocking in the outputs'
/// `begin_step` / `end_step`).
///
/// A run leaves its outputs in one of three ways. *Close*: the inputs
/// ended, downstream sees a clean end of stream. *Abandon*, silently, on
/// any error — a `per_step` error, a stream timeout, a poisoned hub, an
/// injected `Kill`: downstream must never mistake a crash for a clean end,
/// and the supervisor stays free to restart the component, for which the
/// partial stats are stashed. *Disconnect*, noisily, on an injected
/// `Stall`: a stalled rank never comes back, so the readers it starves get
/// a prompt [`StreamError::PeerGone`] instead of waiting out the hub
/// timeout.
///
/// A run whose outputs resume at different steps does not start: it fails
/// with [`ComponentError::OutputsOutOfStep`] and abandons them. That is a
/// restart after a step committed on some outputs and failed on others — a
/// remote commit that timed out waiting for buffer space, say — and running
/// would write input step s + 1 as step s on the lagging output, so a join
/// downstream would pair the wrong data.
pub fn run_steps<C, F>(
    component: &C,
    comm: &Communicator,
    hub: &Arc<StreamHub>,
    mut per_step: F,
) -> ComponentResult
where
    C: Component + ?Sized,
    F: FnMut(&mut StepIo<'_>) -> StepResult<StepEnd>,
{
    let (rank, size) = (comm.rank(), comm.size());
    let label = workflow_label(component);
    let signature = component.signature();
    let outputs = component.output_streams();
    let mut readers: Vec<StreamReader> = subscriptions(&label, component)
        .iter()
        .map(|(stream, group)| hub.open_reader_grouped(stream, group, rank, size))
        .collect();
    let policies: Vec<WriterOptions> = outputs.iter().map(|s| hub.writer_options(s)).collect();
    let mut writers: Vec<StreamWriter> = outputs
        .iter()
        .zip(&policies)
        .map(|(stream, &policy)| hub.open_writer(stream, rank, size, policy))
        .collect();
    let mut stats = ComponentStats::default();
    let exit = outputs_in_step(&label, &outputs, &writers).and_then(|()| {
        step_loop(
            &label,
            &signature,
            comm,
            hub,
            &mut readers,
            &mut writers,
            &mut policies.into_iter().map(Output::new).collect::<Vec<_>>(),
            &mut stats,
            &mut per_step,
        )
    });
    match exit {
        Ok(Exit::Ended) => writers.iter_mut().for_each(StreamWriter::close),
        Ok(Exit::Stalled) => writers.iter_mut().for_each(StreamWriter::disconnect),
        Err(e) => {
            writers.iter_mut().for_each(StreamWriter::abandon);
            PARTIAL_STATS.with(|cell| *cell.borrow_mut() = Some(stats));
            return Err(e);
        }
    }
    Ok(stats)
}

/// [`ComponentError::OutputsOutOfStep`] unless every output resumes at the
/// same step.
fn outputs_in_step(
    label: &str,
    outputs: &[String],
    writers: &[StreamWriter],
) -> Result<(), ComponentError> {
    let steps: Vec<u64> = writers.iter().map(StreamWriter::current_step).collect();
    if steps.windows(2).all(|pair| pair[0] == pair[1]) {
        return Ok(());
    }
    Err(ComponentError::OutputsOutOfStep {
        label: label.to_string(),
        outputs: outputs.iter().cloned().zip(steps).collect(),
    })
}

#[allow(clippy::too_many_arguments)] // the loop's state, borrowed from run_steps
fn step_loop<F>(
    label: &str,
    signature: &Signature,
    comm: &Communicator,
    hub: &Arc<StreamHub>,
    readers: &mut [StreamReader],
    writers: &mut [StreamWriter],
    outputs: &mut [Output],
    stats: &mut ComponentStats,
    per_step: &mut F,
) -> Result<Exit, ComponentError>
where
    F: FnMut(&mut StepIo<'_>) -> StepResult<StepEnd>,
{
    let rank = comm.rank();
    let trace = LoopTrace::new(hub, label, rank);
    let stream_err = |step, source| ComponentError::Stream {
        label: label.to_string(),
        step,
        source,
    };
    let mut contract = Contract::default();
    loop {
        let step = match (readers.first(), writers.first()) {
            (Some(r), _) => r.current_step(),
            (None, Some(w)) => w.current_step(),
            (None, None) => stats.steps,
        };
        let gate = fault_gate(hub, label, rank, step)?;
        if gate == StepFault::Stall {
            return Ok(Exit::Stalled);
        }
        let step_start = Instant::now();
        let step_ns = trace.now();
        if !begin_inputs(readers).map_err(|e| stream_err(step, e))? {
            return Ok(Exit::Ended);
        }
        let wait = step_start.elapsed();
        if !readers.is_empty() {
            trace.span(EventKind::Wait, step, step_ns);
        }
        let compute_ns = trace.now();
        contract
            .refresh(signature, readers, comm)
            .map_err(|e| ComponentError::from_step(label, step, e.into()))?;
        let mut io = StepIo {
            step,
            label,
            inputs: readers,
            comm,
            contract: &contract,
            outputs,
        };
        // The closure runs while the inputs are still open: a signal it
        // publishes for step k precedes both the release of k upstream and
        // the commit of k downstream.
        let end = per_step(&mut io).map_err(|e| ComponentError::from_step(label, step, e))?;
        let (bytes_in, compute, publish) = match end {
            StepEnd::Publish { bytes_in, compute } => (bytes_in, compute, true),
            StepEnd::Skip { bytes_in, compute } => (bytes_in, compute, false),
            StepEnd::Done => return Ok(Exit::Ended),
        };
        trace.span(EventKind::Compute, step, compute_ns);
        readers.iter_mut().for_each(StreamReader::end_step);
        let mut blocked = Duration::ZERO;
        if !writers.is_empty() {
            // A skipped publish still gets its (empty) span, so every step
            // of a component with outputs carries the same phases.
            let publish_ns = trace.now();
            if publish {
                let keep = gate != StepFault::DropChunk;
                blocked = commit(writers, outputs, step, keep, &mut stats.bytes_out)
                    .map_err(|e| stream_err(step, e))?;
            }
            outputs.iter_mut().for_each(|o| o.staged.clear());
            trace.span(EventKind::Publish, step, publish_ns);
        }
        stats.record_step(step_start.elapsed(), wait + blocked, compute, bytes_in);
        publish_wait_ratio(hub, label, step, wait + blocked, compute);
        trace.span(EventKind::Step, step, step_ns);
    }
}

/// Opens the next step on every input; `Ok(false)` is end of stream. The
/// first input to end ends the run, and the others are drained so their
/// producers can finish (a drain error just stops that drain: this
/// component's own inputs ended cleanly).
fn begin_inputs(readers: &mut [StreamReader]) -> Result<bool, StreamError> {
    for i in 0..readers.len() {
        if readers[i].begin_step()? == StepStatus::EndOfStream {
            for (j, r) in readers.iter_mut().enumerate() {
                if j == i {
                    continue;
                }
                if j < i {
                    r.end_step();
                }
                while let Ok(StepStatus::Ready(_)) = r.begin_step() {
                    r.end_step();
                }
            }
            return Ok(false);
        }
    }
    Ok(true)
}

/// Commits `step` on every output — every `begin_step` before any
/// `end_step` — putting the staged chunks if `keep` and keeping their
/// payload handles, and returns the time spent blocked in the two (output
/// backpressure, or a rendezvous hand-off).
fn commit(
    writers: &mut [StreamWriter],
    outputs: &mut [Output],
    step: u64,
    keep: bool,
    bytes_out: &mut u64,
) -> Result<Duration, StreamError> {
    let block_start = Instant::now();
    for w in writers.iter_mut() {
        w.begin_step()?;
    }
    let mut blocked = block_start.elapsed();
    if keep {
        for (w, output) in writers.iter_mut().zip(outputs.iter_mut()) {
            let mut staged = std::mem::take(&mut output.staged);
            for chunk in staged.drain(..) {
                *bytes_out += chunk.byte_len() as u64;
                output.keep(step, &chunk.data);
                w.put(chunk);
            }
            output.staged = staged;
            output.forget_before(step);
        }
    }
    let block_start = Instant::now();
    for w in writers.iter_mut() {
        w.end_step()?;
    }
    blocked += block_start.elapsed();
    Ok(blocked)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// A component that is nothing but its wiring: what tests drive
    /// [`run_steps`] over directly.
    pub(crate) struct Wired {
        inputs: Vec<String>,
        outputs: Vec<String>,
    }

    impl Wired {
        pub(crate) fn new(inputs: &[&str], outputs: &[&str]) -> Wired {
            let owned = |names: &[&str]| names.iter().map(|s| s.to_string()).collect();
            Wired {
                inputs: owned(inputs),
                outputs: owned(outputs),
            }
        }
    }

    impl Component for Wired {
        fn label(&self) -> String {
            "wired".into()
        }

        fn run(&self, _: &Communicator, _: &Arc<StreamHub>) -> ComponentResult {
            unreachable!("tests call run_steps directly")
        }

        fn input_streams(&self) -> Vec<String> {
            self.inputs.clone()
        }

        fn output_streams(&self) -> Vec<String> {
            self.outputs.clone()
        }
    }

    #[test]
    fn stream_array_construction_and_display() {
        let sa = StreamArray::new("velos.fp", "velocities");
        assert_eq!(sa.to_string(), "velos.fp:velocities");
        let from_tuple: StreamArray = ("a.fp", "x").into();
        assert_eq!(from_tuple, StreamArray::new("a.fp", "x"));
    }

    // ---- the loop's contract, once -------------------------------------

    use sb_data::{Buffer, Shape, Variable};
    use sb_stream::{FaultPlan, WriterOptions};

    /// What each fed input carries, and how long a clean run is.
    const STEPS: u64 = 4;
    /// One 3-element `f64` variable: the unit of every byte count below.
    const BYTES: u64 = 24;

    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Scenario {
        Clean,
        /// Input `.0` ends after 2 steps, the other after [`STEPS`].
        EosOn(usize),
        Kill,
        Stall,
        DropChunk,
        ClosureError,
        /// Every second step (1, 3) returns [`StepEnd::Skip`].
        SkipOdd,
    }

    /// How an output stream looks to a reader that attaches after the run.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Left {
        Closed,
        Abandoned,
        Disconnected,
    }

    fn var(name: &str, step: u64) -> Variable {
        Variable::new(
            name,
            Shape::linear("n", 3),
            Buffer::F64(vec![step as f64; 3]),
        )
        .unwrap()
    }

    /// Reads `stream` to its end: whether each step carried a payload, and
    /// how the writer left it. An abandoned stream only ever shows as a
    /// timeout, so the caller has shortened the hub's first.
    fn observe(hub: &StreamHub, stream: &str) -> (Vec<bool>, Left) {
        let mut reader = hub.open_reader(stream, 0, 1);
        let mut steps = Vec::new();
        loop {
            match reader.begin_step() {
                Ok(StepStatus::Ready(_)) => {
                    steps.push(!reader.variables().is_empty());
                    reader.end_step();
                }
                Ok(StepStatus::EndOfStream) => return (steps, Left::Closed),
                Err(StreamError::PeerGone { .. }) => return (steps, Left::Disconnected),
                Err(StreamError::Timeout { .. }) => return (steps, Left::Abandoned),
            }
        }
    }

    /// One row of the table: feeds `k` inputs, runs one rank of a
    /// component labelled `cut` over them and `m` outputs, then checks the
    /// result, the stash, the counters and every stream's final state.
    fn check(k: usize, m: usize, scenario: Scenario) {
        let row = format!("k={k} m={m} {scenario:?}");
        let hub = StreamHub::new();
        // Deep queues: feeding before the run and observing after it never
        // block, so the row needs no second thread to make progress.
        let deep = WriterOptions::buffered(2 * STEPS as usize);
        let in_names: Vec<String> = (0..k).map(|i| format!("in{i}.fp")).collect();
        let out_names: Vec<String> = (0..m).map(|j| format!("out{j}.fp")).collect();
        for name in &out_names {
            hub.set_writer_options(name, deep);
        }
        let fed = |i: usize| match scenario {
            Scenario::EosOn(short) if short == i => 2,
            _ => STEPS,
        };
        for (i, name) in in_names.iter().enumerate() {
            let mut w = hub.open_writer(name, 0, 1, deep);
            for step in 0..fed(i) {
                w.begin_step().unwrap();
                w.put_whole(var("x", step));
                w.end_step().unwrap();
            }
            w.close();
        }
        let plan = FaultPlan::seeded(7);
        hub.install_faults(match scenario {
            Scenario::Kill => plan.kill_at("cut", 1),
            Scenario::Stall => plan.stall_at("cut", 1),
            Scenario::DropChunk => plan.drop_chunk_at("cut", 1),
            _ => plan,
        });

        let run_hub = Arc::clone(&hub);
        let (ins, outs) = (in_names.clone(), out_names.clone());
        let (result, stashed) = sb_comm::LaunchHandle::spawn("cut", 1, move |comm| {
            let ins: Vec<&str> = ins.iter().map(String::as_str).collect();
            let outs: Vec<&str> = outs.iter().map(String::as_str).collect();
            let mut calls = 0u64;
            let result = run_steps(&Wired::new(&ins, &outs), &comm, &run_hub, |io| {
                let call = calls;
                calls += 1;
                if io.inputs.is_empty() && call == STEPS {
                    return Ok(StepEnd::Done);
                }
                if scenario == Scenario::ClosureError && call == 1 {
                    return Err(DataError::Container {
                        detail: "closure gave up".into(),
                    }
                    .into());
                }
                let mut bytes_in = 0;
                assert_eq!(io.label, "cut", "the closure gets the launch label");
                for reader in io.inputs {
                    assert_eq!(io.step, call, "the closure gets the stream step");
                    let x = reader.get_whole("x")?;
                    assert_eq!(x.data.to_f64_vec(), vec![call as f64; 3]);
                    bytes_in += x.byte_len() as u64;
                }
                for j in 0..m {
                    io.put(j, Chunk::whole(var("y", call)));
                }
                let compute = Duration::ZERO;
                Ok(if scenario == Scenario::SkipOdd && call % 2 == 1 {
                    StepEnd::Skip { bytes_in, compute }
                } else {
                    StepEnd::Publish { bytes_in, compute }
                })
            });
            (result, take_partial_stats())
        })
        .unwrap()
        .join()
        .unwrap()
        .remove(0);

        // What the row should have done.
        let failed = matches!(scenario, Scenario::Kill | Scenario::ClosureError);
        let steps = match scenario {
            Scenario::Kill | Scenario::Stall | Scenario::ClosureError => 1,
            Scenario::EosOn(_) => 2,
            _ => STEPS,
        };
        let (published, left) = match scenario {
            Scenario::Kill | Scenario::ClosureError => (vec![true], Left::Abandoned),
            Scenario::Stall => (vec![true], Left::Disconnected),
            Scenario::EosOn(_) => (vec![true; 2], Left::Closed),
            Scenario::DropChunk => (vec![true, false, true, true], Left::Closed),
            Scenario::SkipOdd => (vec![true; 2], Left::Closed),
            Scenario::Clean => (vec![true; STEPS as usize], Left::Closed),
        };
        let payloads = published.iter().filter(|&&p| p).count() as u64;

        let stats = match (&result, &stashed) {
            (Ok(stats), None) if !failed => stats,
            (Err(e), Some(partial)) if failed => {
                match (scenario, e) {
                    (Scenario::Kill, ComponentError::Injected { label, step: 1, .. })
                    | (Scenario::ClosureError, ComponentError::Data { label, step: 1, .. }) => {
                        assert_eq!(label, "cut", "{row}")
                    }
                    _ => panic!("{row}: wrong error {e:?}"),
                }
                partial
            }
            _ => panic!("{row}: result {result:?}, stash {stashed:?}"),
        };
        assert_eq!(stats.steps, steps, "{row}: steps");
        assert_eq!(stats.bytes_in, steps * BYTES * k as u64, "{row}: bytes_in");
        assert_eq!(
            stats.bytes_out,
            payloads * BYTES * m as u64,
            "{row}: bytes_out"
        );

        hub.set_wait_timeout(Duration::from_millis(40));
        for name in &out_names {
            assert_eq!(
                observe(&hub, name),
                (published.clone(), left),
                "{row}: {name}"
            );
        }
        // A run that ended on end-of-stream consumed every input to its
        // end — the one that ended it and the ones it drained.
        if !matches!(
            scenario,
            Scenario::Kill | Scenario::Stall | Scenario::ClosureError
        ) {
            for (i, name) in in_names.iter().enumerate() {
                let metrics = hub.metrics(name).unwrap();
                assert_eq!(metrics.steps_committed, fed(i), "{row}: {name} fed");
                assert_eq!(metrics.steps_consumed, fed(i), "{row}: {name} drained");
            }
        }
    }

    #[test]
    fn a_restart_whose_outputs_are_out_of_step_does_not_run() {
        // The first incarnation committed step 1 on one output and failed
        // before committing it on the other.
        let hub = StreamHub::new();
        let deep = WriterOptions::buffered(2 * STEPS as usize);
        let outputs = ["ahead.fp", "behind.fp"];
        for (name, steps) in outputs.iter().zip([2, 1]) {
            hub.set_writer_options(name, deep);
            let mut w = hub.open_writer(name, 0, 1, deep);
            for step in 0..steps {
                w.begin_step().unwrap();
                w.put_whole(var("y", step));
                w.end_step().unwrap();
            }
            w.abandon();
        }
        hub.prepare_restart(&[], &outputs.map(String::from));

        let run_hub = Arc::clone(&hub);
        let result = sb_comm::LaunchHandle::spawn("fork", 1, move |comm| {
            let fork = Wired::new(&[], &outputs);
            run_steps(&fork, &comm, &run_hub, |_| panic!("the step loop ran"))
        })
        .unwrap()
        .join()
        .unwrap()
        .remove(0);
        match result {
            Err(ComponentError::OutputsOutOfStep { label, outputs }) => {
                assert_eq!(label, "fork");
                let resume = [("ahead.fp".to_string(), 2), ("behind.fp".to_string(), 1)];
                assert_eq!(outputs, resume);
            }
            other => panic!("expected OutputsOutOfStep, got {other:?}"),
        }
        // Abandoned, not closed: no reader may take the refusal for an end.
        hub.set_wait_timeout(Duration::from_millis(40));
        assert_eq!(observe(&hub, "ahead.fp"), (vec![true; 2], Left::Abandoned));
        assert_eq!(observe(&hub, "behind.fp"), (vec![true], Left::Abandoned));
    }

    #[test]
    fn run_steps_contract_over_ports_and_exits() {
        for k in 0..=2 {
            for m in 0..=2 {
                for scenario in [
                    Scenario::Clean,
                    Scenario::EosOn(0),
                    Scenario::EosOn(1),
                    Scenario::Kill,
                    Scenario::Stall,
                    Scenario::DropChunk,
                    Scenario::ClosureError,
                    Scenario::SkipOdd,
                ] {
                    // Only a join can lose one input before the other.
                    if matches!(scenario, Scenario::EosOn(_)) && k < 2 {
                        continue;
                    }
                    check(k, m, scenario);
                }
            }
        }
    }

    /// An output keeps the payloads of its last queue + 1 committed steps,
    /// and hands back one only when its handle is the last.
    #[test]
    fn an_output_keeps_its_last_queue_plus_one_steps_and_reclaims_only_unique_ones() {
        let mut output = Output::new(WriterOptions::buffered(2));
        let held = SharedBuffer::new(Buffer::F64(vec![0.0]));
        // Nothing is kept for a component that has not asked.
        output.keep(0, &held);
        assert!(output.kept.is_empty());
        assert!(output.reclaim().is_none());
        for step in 0..10u64 {
            let payload = match step {
                0 => held.clone(),
                _ => SharedBuffer::new(Buffer::F64(vec![step as f64])),
            };
            output.keep(step, &payload);
            output.forget_before(step);
            let kept: Vec<u64> = output.kept.iter().map(|&(at, _)| at).collect();
            assert_eq!(kept, (step.saturating_sub(2)..=step).collect::<Vec<_>>());
        }
        // Every kept payload is unique now; each comes back once.
        let mut back: Vec<f64> = std::iter::from_fn(|| output.reclaim())
            .map(|b| b.get_f64(0))
            .collect();
        back.sort_by(f64::total_cmp);
        assert_eq!(back, [7.0, 8.0, 9.0]);
        // A payload someone else holds never comes back.
        output.keep(10, &held);
        assert!(output.reclaim().is_none());
        assert_eq!(output.kept.len(), 1);
    }
}
