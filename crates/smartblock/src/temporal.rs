//! The TemporalMean component: a moving average over timesteps.
//!
//! The paper's components are stateless per step; managing "the execution
//! of workflows over longer periods of time" (§VI) needs components that
//! carry state *across* steps. TemporalMean is the canonical example: it
//! emits, for every step, the element-wise mean of the last `window`
//! steps of its input — the standard smoothing stage in front of a
//! monitoring endpoint. Each rank keeps only its own partition's history,
//! so the memory cost is `window / nranks` of the global array per rank.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use sb_comm::Communicator;
use sb_data::{Buffer, Chunk, DataError, DataResult};
use sb_stream::StreamHub;

use crate::component::{run_steps, Component, StepEnd, StreamArray};
use crate::error::ComponentResult;

/// Per-rank moving-average state: ring of past partitions plus a running
/// sum, so each step costs one add and one subtract per element.
pub struct MovingMean {
    window: usize,
    history: VecDeque<Vec<f64>>,
    sum: Vec<f64>,
}

impl MovingMean {
    /// A moving mean over the last `window` inputs.
    pub fn new(window: usize) -> MovingMean {
        assert!(window >= 1, "window must be at least 1");
        MovingMean {
            window,
            history: VecDeque::new(),
            sum: Vec::new(),
        }
    }

    /// Pushes one step's values and returns the current mean.
    ///
    /// The length comes from the stream, so a change between steps is an
    /// error, not a panic; the window is left as it was.
    pub fn push(&mut self, values: Vec<f64>) -> DataResult<Vec<f64>> {
        if self.sum.is_empty() {
            self.sum = vec![0.0; values.len()];
        }
        if self.sum.len() != values.len() {
            return Err(DataError::RegionOutOfBounds {
                detail: format!(
                    "temporal-mean: input length changed between steps ({} to {})",
                    self.sum.len(),
                    values.len()
                ),
            });
        }
        if self.history.len() == self.window {
            let old = self.history.pop_front().expect("non-empty at capacity");
            for (s, o) in self.sum.iter_mut().zip(&old) {
                *s -= o;
            }
        }
        for (s, v) in self.sum.iter_mut().zip(&values) {
            *s += v;
        }
        self.history.push_back(values);
        let n = self.history.len() as f64;
        Ok(self.sum.iter().map(|&s| s / n).collect())
    }

    /// Steps currently held (≤ window).
    pub fn len(&self) -> usize {
        self.history.len()
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.history.is_empty()
    }
}

/// The TemporalMean workflow component.
#[derive(Debug, Clone)]
pub struct TemporalMean {
    /// Input stream/array names (any rank).
    pub input: StreamArray,
    /// Steps to average over.
    pub window: usize,
    /// Output stream/array names.
    pub output: StreamArray,
    /// Publish one output step per `stride` input steps (1 = every step).
    /// The mean still updates on every consumed step; only publishing
    /// decimates, so `stride=n` smooths at full rate but reports at 1/n.
    ///
    /// Shared and atomic so a reactive trigger
    /// ([`crate::triggers::ControlAction::SetOutputStride`]) can retarget
    /// the decimation mid-run; clones share the same cell.
    stride: Arc<AtomicUsize>,
}

impl TemporalMean {
    /// Builds a TemporalMean over `window` steps.
    ///
    /// # Panics
    /// When [`TemporalMean::try_new`] refuses the arguments.
    pub fn new<I: Into<StreamArray>, O: Into<StreamArray>>(
        input: I,
        window: usize,
        output: O,
    ) -> TemporalMean {
        TemporalMean::try_new(input, window, output).unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// [`TemporalMean::new`] for arguments that arrive as data (a launch
    /// description): `Err` is the reason they are refused.
    pub fn try_new<I: Into<StreamArray>, O: Into<StreamArray>>(
        input: I,
        window: usize,
        output: O,
    ) -> Result<TemporalMean, String> {
        if window == 0 {
            return Err("window must be at least 1".to_string());
        }
        Ok(TemporalMean {
            input: input.into(),
            window,
            output: output.into(),
            stride: Arc::new(AtomicUsize::new(1)),
        })
    }

    /// Publishes one output step per `stride` input steps (builder style).
    ///
    /// # Panics
    /// When [`TemporalMean::try_with_stride`] refuses the stride.
    pub fn with_stride(self, stride: usize) -> TemporalMean {
        self.try_with_stride(stride)
            .unwrap_or_else(|reason| panic!("{reason}"))
    }

    /// [`TemporalMean::with_stride`] for a stride that arrives as data.
    pub fn try_with_stride(self, stride: usize) -> Result<TemporalMean, String> {
        if stride == 0 {
            return Err("stride must be at least 1".to_string());
        }
        self.stride.store(stride, Ordering::Relaxed);
        Ok(self)
    }

    /// The current output decimation stride.
    pub fn stride(&self) -> usize {
        self.stride.load(Ordering::Relaxed)
    }
}

impl Component for TemporalMean {
    fn label(&self) -> String {
        "temporal-mean".into()
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.output.stream.clone()]
    }

    fn signature(&self) -> crate::analysis::Signature {
        use crate::analysis::{
            unary_transfer, ArraySpec, PartitionRule, ReadSpec, Signature, StepContract,
        };
        Signature::with_boxed_transfer(
            vec![ReadSpec::new(
                &self.input.stream,
                &self.input.array,
                PartitionRule::Along(0),
            )],
            unary_transfer(
                self.input.array.clone(),
                self.output.array.clone(),
                |spec| {
                    let mut out = ArraySpec::new(spec.dims.clone(), sb_data::DType::F64);
                    out.labels = spec.labels.clone();
                    Ok(out)
                },
            ),
        )
        .with_steps(StepContract::Decimates(self.stride() as u64))
        .with_stateful(true)
    }

    fn apply_control(&self, action: &crate::triggers::ControlAction) -> bool {
        match action {
            crate::triggers::ControlAction::SetOutputStride(stride) if *stride >= 1 => {
                self.stride.store(*stride, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        let mut state = MovingMean::new(self.window);
        let mut consumed: usize = 0;
        run_steps(self, comm, hub, |io| {
            let meta = io.meta(0, &self.input.array)?;
            let region = io.region(0);
            // A rank that reads nothing keeps an empty window.
            let var = region
                .map(|region| io.inputs[0].get(&self.input.array, region))
                .transpose()?;
            let bytes_in = var.as_ref().map_or(0, |v| v.byte_len() as u64);

            let kernel_start = Instant::now();
            // Owned: the window keeps this step's values.
            let mean = state.push(var.map_or_else(Vec::new, |v| v.data.into_f64_vec()))?;
            let compute = kernel_start.elapsed();
            consumed += 1;

            // Decimating publish: the mean updates every consumed step,
            // but only every stride-th step is pushed downstream. The
            // stride is re-read each step so a trigger can retarget it.
            if !consumed.is_multiple_of(self.stride().max(1)) {
                return Ok(StepEnd::Skip { bytes_in, compute });
            }
            if let Some(region) = region {
                let mut out_meta = io.out_meta(0, &self.output.array)?.clone();
                out_meta.attrs = meta.attrs.clone();
                io.put(0, Chunk::new(out_meta, region.clone(), Buffer::F64(mean))?);
            }
            Ok(StepEnd::Publish { bytes_in, compute })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moving_mean_ramps_up_then_slides() {
        let mut m = MovingMean::new(3);
        assert!(m.is_empty());
        assert_eq!(m.push(vec![3.0]).unwrap(), vec![3.0]);
        assert_eq!(m.push(vec![6.0]).unwrap(), vec![4.5]);
        assert_eq!(m.push(vec![9.0]).unwrap(), vec![6.0]);
        assert_eq!(m.len(), 3);
        // Window slides: (6 + 9 + 12) / 3.
        assert_eq!(m.push(vec![12.0]).unwrap(), vec![9.0]);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn moving_mean_is_elementwise() {
        let mut m = MovingMean::new(2);
        m.push(vec![1.0, 10.0]).unwrap();
        let out = m.push(vec![3.0, 30.0]).unwrap();
        assert_eq!(out, vec![2.0, 20.0]);
    }

    #[test]
    fn window_of_one_is_identity() {
        let mut m = MovingMean::new(1);
        assert_eq!(m.push(vec![5.0, 7.0]).unwrap(), vec![5.0, 7.0]);
        assert_eq!(m.push(vec![1.0, 2.0]).unwrap(), vec![1.0, 2.0]);
    }

    #[test]
    fn length_change_is_a_data_error() {
        let mut m = MovingMean::new(2);
        m.push(vec![1.0]).unwrap();
        let err = m.push(vec![1.0, 2.0]).unwrap_err();
        assert!(err.to_string().contains("length changed"), "{err}");
        // The window is as it was: the next well-formed step still averages.
        assert_eq!(m.push(vec![3.0]).unwrap(), vec![2.0]);
    }

    #[test]
    #[should_panic(expected = "window must be at least 1")]
    fn zero_window_rejected() {
        let _ = TemporalMean::new(("a", "x"), 0, ("b", "y"));
    }
}
