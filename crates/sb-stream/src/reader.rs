//! The per-rank reader handle: step discovery and bounding-box gets.

use std::cell::{OnceCell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

use sb_data::region::copy_region;
use sb_data::{Buffer, DataError, DataResult, Region, SharedBuffer, Variable, VariableMeta};

use crate::error::{StreamError, StreamResult};
use crate::metrics::Counters;
use crate::trace::{EventKind, TraceSite, Tracer};
use crate::transport::{ReaderConnection, ReaderEndpoint, Refused, StepContents, MAX_STEP_BOXES};

/// What [`StreamReader::begin_step`] found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepStatus {
    /// A step is open; its transport step id is given.
    Ready(u64),
    /// All writer ranks closed and every step has been consumed.
    EndOfStream,
}

/// One reader rank's handle onto a stream.
///
/// Between `begin_step` and `end_step` the handle exposes the step's
/// self-describing metadata and serves bounding-box [`StreamReader::get`]
/// requests, assembling each box from every intersecting writer chunk —
/// FlexPath's MxN exchange.
///
/// The assembly runs over the frozen [`StepContents`] regardless of which
/// transport delivered them: the in-proc backend shares the committed slot
/// by `Arc`, the TCP backend decodes the step from prefetched frames. The
/// copy-discipline fast paths below therefore apply to both.
pub struct StreamReader {
    /// In a cell only so that `get`, which borrows the handle shared, can
    /// re-fetch the open step (see [`BoxLearning`]).
    endpoint: RefCell<Box<dyn ReaderEndpoint>>,
    counters: Arc<Counters>,
    tracer: Arc<Tracer>,
    trace_id: u32,
    group: String,
    rank: usize,
    nranks: usize,
    next_step: u64,
    current: Option<StepContents>,
    /// The hub's refusal of this rank's open or of a release, for every
    /// later `begin_step`.
    refused: Option<StreamError>,
    /// `Some` on backends that move bytes to fetch a step.
    learning: Option<BoxLearning>,
}

/// What a reader on a remote backend remembers so that the next step's
/// request can carry its boxes, and what it needs when the guess was wrong.
#[derive(Default)]
struct BoxLearning {
    /// The `(variable, region)` pairs `get` served during the open step.
    served: RefCell<Vec<(String, Region)>>,
    /// Whether the open step was requested with boxes, so chunks may be
    /// missing from it.
    filtered: bool,
    /// The open step fetched again, whole, after a `get` asked a filtered
    /// step for a box it does not cover.
    whole: OnceCell<StepContents>,
}

impl StreamReader {
    pub(crate) fn new(
        conn: StreamResult<ReaderConnection>,
        tracer: &Arc<Tracer>,
        name: &str,
        group: &str,
        rank: usize,
        nranks: usize,
    ) -> StreamReader {
        let (conn, refused) = match conn {
            Ok(conn) => (conn, None),
            Err(refused) => {
                let conn = ReaderConnection {
                    endpoint: Box::new(Refused),
                    first_step: 0,
                    counters: Arc::default(),
                    learns_boxes: false,
                };
                (conn, Some(refused))
            }
        };
        StreamReader {
            endpoint: RefCell::new(conn.endpoint),
            counters: conn.counters,
            tracer: Arc::clone(tracer),
            trace_id: tracer.intern(name),
            group: group.to_string(),
            rank,
            nranks,
            next_step: conn.first_step,
            current: None,
            refused,
            learning: conn.learns_boxes.then(BoxLearning::default),
        }
    }

    /// The reader group this handle belongs to.
    pub fn group(&self) -> &str {
        &self.group
    }

    /// This rank's id within the reader group.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Size of the reader group.
    pub fn nranks(&self) -> usize {
        self.nranks
    }

    /// The step the handle is currently in (or will ask for next).
    pub fn current_step(&self) -> u64 {
        self.next_step
    }

    /// Blocks until the next step is available (or the stream ended).
    ///
    /// Returns [`crate::StreamError::Timeout`] if the writer side stays
    /// silent past the hub timeout, or [`crate::StreamError::PeerGone`] if
    /// the workflow supervisor poisoned the stream — a stalled peer is a
    /// typed error, never a hang or a panic. An open the hub refused, or a
    /// release it refused at the last [`end_step`](Self::end_step), ended
    /// this handle: the refusal is returned here, and by every later call.
    pub fn begin_step(&mut self) -> StreamResult<StepStatus> {
        assert!(self.current.is_none(), "begin_step inside an open step");
        if let Some(refused) = &self.refused {
            return Err(refused.clone());
        }
        let start_ns = if self.tracer.enabled() {
            self.tracer.now_ns()
        } else {
            0
        };
        match self.endpoint.get_mut().fetch_step(self.next_step)? {
            Some(contents) => {
                self.tracer.span(
                    EventKind::ReaderBlocked,
                    TraceSite::stream(self.trace_id, self.rank, self.next_step),
                    start_ns,
                );
                self.current = Some(contents);
                Ok(StepStatus::Ready(self.next_step))
            }
            None => Ok(StepStatus::EndOfStream),
        }
    }

    fn contents(&self) -> &StepContents {
        self.current
            .as_ref()
            .expect("no step is open; call begin_step first")
    }

    /// Names of the variables present in the open step.
    pub fn variables(&self) -> Vec<String> {
        self.contents().keys().cloned().collect()
    }

    /// Self-describing metadata of `name` in the open step.
    pub fn meta(&self, name: &str) -> Option<&VariableMeta> {
        self.contents().get(name).map(|v| &v.meta)
    }

    /// Reads the bounding box `region` of variable `name`, assembled from
    /// all intersecting writer chunks.
    ///
    /// Fails if the variable is unknown, the region exceeds the global
    /// shape, or the writer chunks do not tile the requested box exactly.
    ///
    /// Copy discipline, in decreasing order of preference:
    /// 1. *Exact cover* — one chunk's region equals the request: the
    ///    chunk's allocation is shared by `Arc` clone; nothing is copied.
    /// 2. *Slab concat* — every overlap is a full-inner-extent row slab of
    ///    both the request and its chunk: slabs are appended in order into
    ///    a pre-sized buffer, skipping the zero-fill.
    /// 3. *General* — zero-fill then strided `copy_region` per chunk.
    ///
    /// On a remote backend the step may have been fetched with the boxes
    /// this rank read in the previous step, and so lack chunks outside them.
    /// A box such a step does not cover is not an error yet: the step is
    /// fetched again, whole, and the read repeated on that.
    pub fn get(&self, name: &str, region: &Region) -> DataResult<Variable> {
        let Some(learning) = &self.learning else {
            return self.assemble(self.contents(), name, region);
        };
        let mut read = self.assemble(
            learning.whole.get().unwrap_or_else(|| self.contents()),
            name,
            region,
        );
        if matches!(read, Err(DataError::RegionOutOfBounds { .. }))
            && learning.filtered
            && learning.whole.get().is_none()
        {
            let whole = self
                .endpoint
                .borrow_mut()
                .fetch_step(self.next_step)
                .map_err(|e| DataError::Container {
                    detail: format!("fetching the whole step for {name:?} {region}: {e}"),
                })?
                .ok_or_else(|| DataError::Container {
                    detail: format!("step {} ended while it was open", self.next_step),
                })?;
            read = self.assemble(learning.whole.get_or_init(|| whole), name, region);
        }
        let var = read?;
        let mut served = learning.served.borrow_mut();
        if served.len() <= MAX_STEP_BOXES && !served.iter().any(|(n, r)| n == name && r == region) {
            served.push((name.to_string(), region.clone()));
        }
        Ok(var)
    }

    /// [`get`](Self::get) over one delivery of the open step.
    fn assemble(
        &self,
        contents: &StepContents,
        name: &str,
        region: &Region,
    ) -> DataResult<Variable> {
        let slot = contents.get(name).ok_or_else(|| DataError::Container {
            detail: format!("no variable {name:?} in step"),
        })?;
        let meta = &slot.meta;
        region.validate(&meta.shape)?;

        // Find every chunk intersecting the box; chunks must tile it. Any
        // pairwise overlap inside the box means double-written elements
        // (and, since the total is checked below, a matching hole
        // elsewhere).
        let mut covered = 0usize;
        let mut hits: Vec<(usize, Region)> = Vec::new();
        for (i, chunk) in slot.chunks.iter().enumerate() {
            if let Some(overlap) = chunk.region.intersect(region) {
                if hits.iter().any(|(_, o)| o.intersect(&overlap).is_some()) {
                    return Err(DataError::RegionOutOfBounds {
                        detail: format!(
                            "writer chunks of {name:?} overlap inside the requested box {region}"
                        ),
                    });
                }
                covered += overlap.len();
                hits.push((i, overlap));
            }
        }
        if covered != region.len() {
            return Err(DataError::RegionOutOfBounds {
                detail: format!(
                    "writer chunks covered {covered} of {} requested elements of {name:?} \
                     (overlapping or missing chunks)",
                    region.len()
                ),
            });
        }

        // Carry labels through, sliced to the requested box. Bounds-checked:
        // writer metadata whose header is shorter than the extent surfaces
        // as an error here, never a slice panic.
        let mut labels = BTreeMap::new();
        for (&dim, names) in &meta.labels {
            let lo = region.offset()[dim];
            let hi = region.end(dim);
            let slice = names.get(lo..hi).ok_or(DataError::MalformedHeader {
                dim,
                expected: meta.shape.size(dim),
                found: names.len(),
            })?;
            labels.insert(dim, slice.to_vec());
        }

        let counters = &self.counters;
        let byte_len = region.len() * meta.dtype.elem_bytes();
        let data: SharedBuffer = if hits.len() == 1 && slot.chunks[hits[0].0].region == *region {
            // Exact cover: serve the chunk's own allocation.
            counters.add_copy_elided();
            slot.chunks[hits[0].0].data.clone()
        } else if region.ndims() >= 1
            && !hits.is_empty()
            && hits
                .iter()
                .all(|(i, o)| o.is_row_slab_of(region) && o.is_row_slab_of(&slot.chunks[*i].region))
        {
            // Disjoint row slabs summing to the box tile it in order along
            // the outermost dimension: append them, no zero-fill first.
            let mut ordered: Vec<&(usize, Region)> = hits.iter().collect();
            ordered.sort_by_key(|(_, o)| o.offset()[0]);
            let mut out = Buffer::with_capacity(meta.dtype, region.len());
            for (i, o) in ordered {
                let chunk = &slot.chunks[*i];
                let inner: usize = chunk.region.count()[1..].iter().product();
                let src_off = (o.offset()[0] - chunk.region.offset()[0]) * inner;
                out.append_from(&chunk.data, src_off, o.len())?;
            }
            counters.add_zero_fill_elided();
            counters.add_copied(byte_len);
            out.into()
        } else {
            let mut out = Buffer::zeros(meta.dtype, region.len());
            for (i, overlap) in &hits {
                let chunk = &slot.chunks[*i];
                copy_region(&chunk.data, &chunk.region, &mut out, region, overlap)?;
            }
            counters.add_copied(byte_len);
            out.into()
        };
        counters.add_read(byte_len);

        let shape = region.local_shape(&meta.shape);
        let mut var = Variable::new(meta.name.clone(), shape, data)?;
        var.labels = labels;
        var.attrs = meta.attrs.clone();
        Ok(var)
    }

    /// Reads the entire global array of `name`.
    pub fn get_whole(&self, name: &str) -> DataResult<Variable> {
        let shape = self
            .meta(name)
            .ok_or_else(|| DataError::Container {
                detail: format!("no variable {name:?} in step"),
            })?
            .shape
            .clone();
        self.get(name, &Region::whole(&shape))
    }

    /// Steps the writer group has committed so far (diagnostics; the
    /// backpressure tests read this to observe writer progress).
    pub fn stream_committed(&self) -> u64 {
        self.endpoint.borrow().committed_steps()
    }

    /// Releases the open step; once every reader rank has done so, the
    /// writer-side buffer slot is freed. When the hub refuses the release
    /// (more ranks of the group released the step than it has), every later
    /// [`begin_step`](Self::begin_step) returns the refusal.
    pub fn end_step(&mut self) {
        assert!(self.current.is_some(), "end_step without begin_step");
        self.current = None;
        let endpoint = self.endpoint.get_mut();
        let released = match &mut self.learning {
            None => endpoint.release_step(self.next_step, &[]),
            Some(learning) => {
                learning.whole.take();
                let served = learning.served.get_mut();
                if served.len() > MAX_STEP_BOXES {
                    served.clear();
                }
                learning.filtered = !served.is_empty();
                let released = endpoint.release_step(self.next_step, served);
                served.clear();
                released
            }
        };
        self.refused = released.err();
        self.next_step += 1;
    }
}
