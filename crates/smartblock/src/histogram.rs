//! The Histogram component: global distribution of a 1-d quantity (paper
//! §III-E).
//!
//! The ranks partition the incoming one-dimensional array, communicate to
//! find the global minimum and maximum, bin their local values, and reduce
//! the counts to rank 0, which writes the result — the paper's endpoint
//! behaviour ("one of the processes of Histogram writes the output to a
//! file on disk"). Optionally the result is also published on an output
//! stream (as `counts` + `bin_edges` arrays) so workflows can chain past
//! it and tests can observe it in process.
//!
//! Usage (paper Fig. 2):
//!
//! ```text
//! aprun histogram input-stream-name input-array-name num-bins
//! ```

use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use sb_comm::Communicator;
use sb_data::{lock, AttrValue, Buffer, Chunk, DataError, DataResult, Shape, Variable};
use sb_stream::StreamHub;

use crate::component::{run_steps, workflow_label, Component, StepEnd, StreamArray};
use crate::error::{ComponentError, ComponentResult};

/// One timestep's histogram.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramResult {
    /// Transport step the histogram describes.
    pub step: u64,
    /// Global minimum of the data.
    pub min: f64,
    /// Global maximum of the data.
    pub max: f64,
    /// Per-bin counts over `[min, max]`, highest bin inclusive.
    pub counts: Vec<u64>,
    /// Values excluded from binning because they were NaN or infinite.
    pub nan_count: u64,
}

impl HistogramResult {
    /// Total number of binned values (excludes [`nan_count`](Self::nan_count)).
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The `[lo, hi)` value range of bin `i` (`hi` inclusive for the last).
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        let width = (self.max - self.min) / self.counts.len() as f64;
        (
            self.min + i as f64 * width,
            self.min + (i + 1) as f64 * width,
        )
    }
}

/// Independent accumulators per pass over the data: wide enough to fill the
/// vector unit in [`finite_min_max`] and to keep consecutive increments of
/// one hot bin off each other's store in [`bin_counts`].
const LANES: usize = 4;

/// The smallest and largest finite value of `values`; non-finite values are
/// skipped, and `(+inf, -inf)` comes back when nothing finite is there (the
/// identities of the `min` / `max` reductions that follow).
///
/// Equal, bit for bit, to the sequential fold
/// `(a, b) -> (if v < a { v } else { a }, if v > b { v } else { b })` over
/// the finite values. The one place order shows in that fold is a tie
/// between `+0.0` and `-0.0`, which compare equal: the fold keeps whichever
/// came first, so a zero extreme carries the sign of the **first zero in
/// `values`** — pinned here because the lanes below visit elements in
/// another order.
pub fn finite_min_max(values: &[f64]) -> (f64, f64) {
    let mut lo = [f64::INFINITY; LANES];
    let mut hi = [f64::NEG_INFINITY; LANES];
    let (blocks, tail) = values.as_chunks::<LANES>();
    let mut last = [f64::NAN; LANES];
    last[..tail.len()].copy_from_slice(tail);
    // No branch depends on the data: a non-finite value turns into the
    // identity of each reduction, and the compares lower to vector min/max.
    for block in blocks.iter().chain([&last]) {
        for j in 0..LANES {
            let v = block[j];
            let finite = v.abs() < f64::INFINITY;
            let l = if finite { v } else { f64::INFINITY };
            let h = if finite { v } else { f64::NEG_INFINITY };
            lo[j] = if l < lo[j] { l } else { lo[j] };
            hi[j] = if h > hi[j] { h } else { hi[j] };
        }
    }
    let mut min = lo
        .into_iter()
        .fold(f64::INFINITY, |a, l| if l < a { l } else { a });
    let mut max = hi
        .into_iter()
        .fold(f64::NEG_INFINITY, |b, h| if h > b { h } else { b });
    if min == 0.0 || max == 0.0 {
        let first_zero = *values
            .iter()
            .find(|&&v| v == 0.0)
            .expect("a zero extreme is an element");
        if min == 0.0 {
            min = first_zero;
        }
        if max == 0.0 {
            max = first_zero;
        }
    }
    (min, max)
}

/// Bins `values` into `nbins` equal-width bins over `[min, max]`,
/// returning `(counts, nan_count)`.
///
/// Values equal to `max` land in the last bin; a degenerate range
/// (`min == max`) puts every finite value in bin 0. Non-finite values are
/// never binned — `(NaN - min) * scale` cast with `as usize` is 0, which
/// used to silently inflate bin 0 — and are tallied separately instead.
/// This is the pure local kernel of the Histogram component.
///
/// Element `i` counts into sub-histogram `i % LANES`, and the
/// sub-histograms are summed at the end: with one counter array, a
/// distribution that piles into a few bins makes every increment wait for
/// the previous one's store to the same counter.
pub fn bin_counts(values: &[f64], min: f64, max: f64, nbins: usize) -> (Vec<u64>, u64) {
    assert!(nbins > 0, "histogram needs at least one bin");
    let width = max - min;
    // A degenerate or unordered range (all values equal, or an empty /
    // all-non-finite input whose reduced extremes are +inf/-inf) has
    // `scale` 0: every finite value lands in bin 0.
    let scale = if width > 0.0 {
        nbins as f64 / width
    } else {
        0.0
    };
    let top = (nbins - 1) as f64;
    // Slot `nbins` of each sub-histogram tallies the non-finite values, so
    // the loop has no data-dependent branch.
    let stride = nbins + 1;
    let slot = |v: f64| {
        // Clamped while still a float: NaN (0 * inf) and negatives go to
        // bin 0 and anything past the last bin into it, as the saturating
        // `as usize` and `.min(nbins - 1)` would, but the cast that is left
        // has nothing to saturate.
        let t = (v - min) * scale;
        let t = if t > 0.0 { t } else { 0.0 };
        let t = if t < top { t } else { top };
        if v.abs() < f64::INFINITY {
            t as i64 as usize
        } else {
            nbins
        }
    };
    let mut lanes = vec![0u64; LANES * stride];
    let (blocks, tail) = values.as_chunks::<LANES>();
    for block in blocks {
        for j in 0..LANES {
            lanes[j * stride + slot(block[j])] += 1;
        }
    }
    for &v in tail {
        lanes[slot(v)] += 1;
    }
    let mut counts = vec![0u64; nbins];
    let mut nan_count = 0u64;
    for lane in lanes.chunks_exact(stride) {
        for (count, part) in counts.iter_mut().zip(lane) {
            *count += part;
        }
        nan_count += lane[nbins];
    }
    (counts, nan_count)
}

/// The Histogram workflow component (an endpoint). Its output metas are
/// built by hand: they carry each step's min/max attrs.
pub struct Histogram {
    /// Input stream/array names (must be 1-d).
    pub input: StreamArray,
    /// Number of equal-width bins.
    pub num_bins: usize,
    /// File rank 0 appends per-step histograms to, if any.
    pub output_file: Option<PathBuf>,
    /// Stream to publish `counts`/`bin_edges` on, if any.
    pub output_stream: Option<String>,
    results: Arc<Mutex<Vec<HistogramResult>>>,
}

impl Histogram {
    /// Builds a Histogram over `num_bins` bins.
    ///
    /// # Panics
    /// When [`Histogram::try_new`] refuses the arguments.
    pub fn new<I: Into<StreamArray>>(input: I, num_bins: usize) -> Histogram {
        Histogram::try_new(input, num_bins).unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// [`Histogram::new`] for arguments that arrive as data (a launch
    /// description): `Err` is the reason they are refused.
    pub fn try_new<I: Into<StreamArray>>(input: I, num_bins: usize) -> Result<Histogram, String> {
        if num_bins == 0 {
            return Err("histogram needs at least one bin".to_string());
        }
        Ok(Histogram {
            input: input.into(),
            num_bins,
            output_file: None,
            output_stream: None,
            results: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// Rank 0 appends each step's histogram to `path` (the paper's endpoint
    /// behaviour).
    pub fn with_output_file(mut self, path: impl Into<PathBuf>) -> Histogram {
        self.output_file = Some(path.into());
        self
    }

    /// Additionally publishes each histogram on stream `name`.
    pub fn with_output_stream(mut self, name: impl Into<String>) -> Histogram {
        self.output_stream = Some(name.into());
        self
    }

    /// A handle to the in-memory results rank 0 accumulates; clone it
    /// before moving the component into a workflow.
    pub fn results_handle(&self) -> Arc<Mutex<Vec<HistogramResult>>> {
        Arc::clone(&self.results)
    }
}

impl Component for Histogram {
    fn label(&self) -> String {
        "histogram".into()
    }

    fn output_streams(&self) -> Vec<String> {
        self.output_stream.iter().cloned().collect()
    }

    fn signature(&self) -> crate::analysis::Signature {
        use crate::analysis::{
            ArraySpec, DimSpec, PartitionRule, ReadSpec, Signature, SpecError, StreamSpec,
        };
        use std::collections::BTreeMap;
        let in_array = self.input.array.clone();
        let bins = self.num_bins;
        let has_output = self.output_stream.is_some();
        let advised_array = in_array.clone();
        Signature::new(
            vec![ReadSpec::new(
                &self.input.stream,
                &in_array,
                PartitionRule::Along(0),
            )],
            move |ins| {
                if let Some(stream) = ins.first() {
                    if let Some(spec) = stream.array(&in_array)? {
                        if spec.ndims() != 1 {
                            return Err(SpecError::RankMismatch {
                                expected: 1,
                                got: spec.ndims(),
                            });
                        }
                    }
                }
                if !has_output {
                    return Ok(Vec::new());
                }
                // The output arrays are fixed by configuration, so they are
                // known even when the input is opaque or too small.
                let mut map = BTreeMap::new();
                map.insert(
                    "counts".to_string(),
                    ArraySpec::new(vec![DimSpec::fixed("bins", bins)], sb_data::DType::U64),
                );
                map.insert(
                    "bin_edges".to_string(),
                    ArraySpec::new(vec![DimSpec::fixed("edges", bins + 1)], sb_data::DType::F64),
                );
                Ok(vec![StreamSpec::Known(map)])
            },
        )
        .with_advisory(move |ins| {
            let spec = ins.first()?.array(&advised_array).ok()??;
            let elements = spec.total_elements()?;
            (bins > elements).then_some(SpecError::DegenerateBins { bins, elements })
        })
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        // Truncate at run start, then append one block per step: a rerun
        // of the same workflow starts a fresh file instead of accumulating
        // histograms from previous runs.
        let mut file = match (&self.output_file, comm.rank()) {
            (Some(path), 0) => match std::fs::File::create(path) {
                Ok(f) => Some(f),
                Err(e) => {
                    return Err(ComponentError::Data {
                        label: workflow_label(self),
                        step: 0,
                        source: DataError::Io {
                            detail: format!("cannot open {path:?}: {e}"),
                        },
                    });
                }
            },
            _ => None,
        };
        run_steps(self, comm, hub, |io| {
            let (comm, step) = (io.comm, io.step);
            let region = io.region(0).expect("a 1-d read always partitions");
            let var = io.inputs[0].get(&self.input.array, region)?;
            let bytes_in = var.byte_len() as u64;

            let kernel_start = Instant::now();
            // Borrowed: the step queue still holds the payload's `Arc`,
            // so taking ownership would deep-copy it every step.
            let local = var.data.to_f64_cow();
            // Global extremes, then local binning, then a count reduction —
            // the two communication rounds the paper describes. The
            // extremes only describe the binnable population, so
            // non-finite values are excluded here and tallied by
            // `bin_counts` below.
            let (lmin, lmax) = finite_min_max(&local);
            let min = comm.allreduce(lmin, f64::min);
            let max = comm.allreduce(lmax, f64::max);
            let (counts, nan) = bin_counts(&local, min, max, self.num_bins);
            let total = comm.reduce(0, counts, |a, b| {
                a.iter().zip(&b).map(|(x, y)| x + y).collect()
            });
            let nan_total = comm.reduce(0, nan, |a, b| a + b);
            let compute = kernel_start.elapsed();

            // Rank 0 only: record, write file, stage. The other ranks
            // pace the output stream without contributing.
            if let Some(counts) = total {
                let result = HistogramResult {
                    step,
                    min,
                    max,
                    counts,
                    nan_count: nan_total.unwrap_or(0),
                };
                // Signals go out *before* this step is committed to the
                // output stream or file, so a trigger firing on step k
                // takes effect before anything downstream observes k.
                let signals = hub.signals();
                if signals.armed() {
                    signals.publish(io.label, "min", step, result.min);
                    signals.publish(io.label, "max", step, result.max);
                    signals.publish(io.label, "total", step, result.total() as f64);
                    signals.publish(io.label, "nan_count", step, result.nan_count as f64);
                }
                if let Some(f) = file.as_mut() {
                    write_histogram(f, &result)?;
                }
                if self.output_stream.is_some() {
                    let nb = result.counts.len();
                    let counts_var = Variable::new(
                        "counts",
                        Shape::linear("bins", nb),
                        Buffer::U64(result.counts.clone()),
                    )?
                    .with_attr("min", AttrValue::Float(result.min))
                    .with_attr("max", AttrValue::Float(result.max))
                    .with_attr("source", AttrValue::Text(self.input.to_string()));
                    let edges: Vec<f64> = (0..=nb)
                        .map(|i| result.min + (result.max - result.min) * i as f64 / nb as f64)
                        .collect();
                    let edges_var = Variable::new(
                        "bin_edges",
                        Shape::linear("edges", nb + 1),
                        Buffer::F64(edges),
                    )?;
                    io.put(0, Chunk::whole(counts_var));
                    io.put(0, Chunk::whole(edges_var));
                }
                lock(&self.results).push(result);
            }
            Ok(StepEnd::Publish { bytes_in, compute })
        })
    }
}

fn write_histogram(f: &mut std::fs::File, r: &HistogramResult) -> DataResult<()> {
    write!(
        f,
        "# step {} min {:.6e} max {:.6e} total {}",
        r.step,
        r.min,
        r.max,
        r.total()
    )?;
    // Only surfaced when present, so NaN-free outputs stay byte-identical.
    if r.nan_count > 0 {
        write!(f, " nan {}", r.nan_count)?;
    }
    writeln!(f)?;
    for (i, &c) in r.counts.iter().enumerate() {
        let (lo, hi) = r.bin_range(i);
        writeln!(f, "{lo:.6e} {hi:.6e} {c}")?;
    }
    Ok(())
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("input", &self.input)
            .field("num_bins", &self.num_bins)
            .field("output_file", &self.output_file)
            .field("output_stream", &self.output_stream)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bin_counts_basic() {
        let values = [0.0, 0.5, 1.0, 2.5, 4.0];
        let (counts, nan) = bin_counts(&values, 0.0, 4.0, 4);
        // Bins: [0,1) [1,2) [2,3) [3,4]: 0, 0.5 -> bin 0; 1.0 -> bin 1;
        // 2.5 -> bin 2; 4.0 -> bin 3 (max lands in last bin).
        assert_eq!(counts, vec![2, 1, 1, 1]);
        assert_eq!(nan, 0);
    }

    #[test]
    fn bin_counts_degenerate_range() {
        let (counts, nan) = bin_counts(&[7.0, 7.0, 7.0], 7.0, 7.0, 5);
        assert_eq!(counts, vec![3, 0, 0, 0, 0]);
        assert_eq!(nan, 0);
    }

    #[test]
    fn bin_counts_empty_input() {
        assert_eq!(bin_counts(&[], 0.0, 1.0, 3), (vec![0, 0, 0], 0));
    }

    #[test]
    fn bin_counts_sum_matches_input_len() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.7).sin()).collect();
        let (counts, _) = bin_counts(&values, -1.0, 1.0, 16);
        assert_eq!(counts.iter().sum::<u64>(), 1000);
    }

    #[test]
    fn bin_counts_excludes_non_finite() {
        // Regression: NaN used to be counted into bin 0 because the
        // `(v - min) * scale as usize` cast maps NaN to 0.
        let values = [0.5, f64::NAN, 1.5, f64::INFINITY, f64::NEG_INFINITY, 3.5];
        let (counts, nan) = bin_counts(&values, 0.0, 4.0, 4);
        assert_eq!(counts, vec![1, 1, 0, 1]);
        assert_eq!(nan, 3);
        assert_eq!(counts.iter().sum::<u64>(), 3);
    }

    #[test]
    fn bin_counts_all_nan_input() {
        // An all-NaN input leaves the reduced extremes at +inf/-inf; no
        // value may be binned and every one must be tallied as NaN.
        let values = [f64::NAN; 4];
        let (counts, nan) = bin_counts(&values, f64::INFINITY, f64::NEG_INFINITY, 3);
        assert_eq!(counts, vec![0, 0, 0]);
        assert_eq!(nan, 4);
    }

    #[test]
    fn result_bin_ranges_tile_min_max() {
        let r = HistogramResult {
            step: 0,
            min: -2.0,
            max: 2.0,
            counts: vec![1, 2, 3, 4],
            nan_count: 0,
        };
        assert_eq!(r.total(), 10);
        assert_eq!(r.bin_range(0), (-2.0, -1.0));
        assert_eq!(r.bin_range(3), (1.0, 2.0));
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = Histogram::new(("a", "x"), 0);
    }
}
