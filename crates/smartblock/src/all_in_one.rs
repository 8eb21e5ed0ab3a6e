//! The all-in-one (AIO) baseline of the paper's §V-C comparison.
//!
//! To measure what fine-grained componentization costs, the paper writes "a
//! custom, all-in-one (AIO) component that performs the same analytical
//! procedure as all the components involved in the LAMMPS workflow":
//! select the velocity columns, compute magnitudes, histogram — fused into
//! one component with no intermediate streams. Table II compares its
//! start-to-end time against the componentized pipeline.
//!
//! The AIO component reuses the same kernels as the generic components, so
//! the comparison isolates exactly the cost of the extra stream hops.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use sb_comm::Communicator;
use sb_data::{lock, DataResult};
use sb_stream::StreamHub;

use crate::component::{run_steps, Component, StepEnd, StreamArray};
use crate::error::ComponentResult;
use crate::histogram::{bin_counts, finite_min_max, HistogramResult};
use crate::magnitude::vector_magnitudes;
use crate::select::select_rows;

/// The fused Select + Magnitude + Histogram baseline.
pub struct AllInOne {
    /// Input stream/array (2-d, labelled on dimension 1).
    pub input: StreamArray,
    /// Names of the vector-component columns to select.
    pub keep: Vec<String>,
    /// Number of histogram bins.
    pub num_bins: usize,
    results: Arc<Mutex<Vec<HistogramResult>>>,
}

impl AllInOne {
    /// Builds the fused pipeline over the named columns.
    ///
    /// # Panics
    /// When [`AllInOne::try_new`] refuses the arguments.
    pub fn new<I, K>(input: I, keep: K, num_bins: usize) -> AllInOne
    where
        I: Into<StreamArray>,
        K: IntoIterator,
        K::Item: Into<String>,
    {
        AllInOne::try_new(input, keep, num_bins).unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// [`AllInOne::new`] for arguments that arrive as data (a launch
    /// description): `Err` is the reason they are refused.
    pub fn try_new<I, K>(input: I, keep: K, num_bins: usize) -> Result<AllInOne, String>
    where
        I: Into<StreamArray>,
        K: IntoIterator,
        K::Item: Into<String>,
    {
        if num_bins == 0 {
            return Err("histogram needs at least one bin".to_string());
        }
        Ok(AllInOne {
            input: input.into(),
            keep: keep.into_iter().map(Into::into).collect(),
            num_bins,
            results: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// A handle to rank 0's accumulated histograms.
    pub fn results_handle(&self) -> Arc<Mutex<Vec<HistogramResult>>> {
        Arc::clone(&self.results)
    }
}

impl Component for AllInOne {
    fn label(&self) -> String {
        "all-in-one".into()
    }

    fn signature(&self) -> crate::analysis::Signature {
        use crate::analysis::{Extent, PartitionRule, ReadSpec, Signature, SpecError};
        let in_stream = self.input.stream.clone();
        let in_array = self.input.array.clone();
        let keep = self.keep.clone();
        let bins = self.num_bins;
        let advised_array = in_array.clone();
        Signature::new(
            vec![ReadSpec::new(
                &in_stream,
                &in_array,
                PartitionRule::Along(0),
            )],
            move |ins| {
                let spec = match ins.first() {
                    Some(s) => s.array(&in_array)?,
                    None => None,
                };
                if let Some(spec) = spec {
                    if spec.ndims() != 2 {
                        return Err(SpecError::RankMismatch {
                            expected: 2,
                            got: spec.ndims(),
                        });
                    }
                    spec.check_labels(1, &keep)?;
                }
                Ok(Vec::new())
            },
        )
        .with_advisory(move |ins| {
            let spec = ins.first()?.array(&advised_array).ok()??;
            let Extent::Fixed(elements) = spec.dims.first()?.extent else {
                return None;
            };
            (bins > elements).then_some(SpecError::DegenerateBins { bins, elements })
        })
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        run_steps(self, comm, hub, |io| {
            let comm = io.comm;
            let meta = io.meta(0, &self.input.array)?;
            let indices: Vec<usize> = self
                .keep
                .iter()
                .map(|n| meta.resolve_label(1, n))
                .collect::<DataResult<_>>()?;
            let region = io.region(0).expect("a 2-d read always partitions");
            let var = io.inputs[0].get(&self.input.array, region)?;
            let bytes_in = var.byte_len() as u64;

            let kernel_start = Instant::now();
            let selected = select_rows(&var, 1, &indices)?;
            let mags = vector_magnitudes(&selected)?;
            let (lmin, lmax) = finite_min_max(&mags);
            let min = comm.allreduce(lmin, f64::min);
            let max = comm.allreduce(lmax, f64::max);
            let (counts, nan) = bin_counts(&mags, min, max, self.num_bins);
            let total = comm.reduce(0, counts, |a, b| {
                a.iter().zip(&b).map(|(x, y)| x + y).collect()
            });
            let nan_total = comm.reduce(0, nan, |a, b| a + b);
            let compute = kernel_start.elapsed();

            if let Some(counts) = total {
                lock(&self.results).push(HistogramResult {
                    step: io.step,
                    min,
                    max,
                    counts,
                    nan_count: nan_total.unwrap_or(0),
                });
            }
            Ok(StepEnd::Publish { bytes_in, compute })
        })
    }
}

impl std::fmt::Debug for AllInOne {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AllInOne")
            .field("input", &self.input)
            .field("keep", &self.keep)
            .field("num_bins", &self.num_bins)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_handles() {
        let aio = AllInOne::new(("dump.fp", "atoms"), ["vx", "vy", "vz"], 16);
        assert_eq!(aio.keep, vec!["vx", "vy", "vz"]);
        let h = aio.results_handle();
        assert!(lock(&h).is_empty());
        assert_eq!(aio.label(), "all-in-one");
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = AllInOne::new(("a", "x"), ["vx"], 0);
    }
}
