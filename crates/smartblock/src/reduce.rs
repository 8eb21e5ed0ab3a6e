//! The Reduce component: collapse one dimension with an associative
//! operation (sum, mean, min, max).
//!
//! Part of "expanding the generic components library to include a variety
//! of other analytical operations" (paper §VI). Where Dim-Reduce only
//! re-arranges, Reduce actually aggregates: the output has one dimension
//! fewer and each element is the fold of the removed dimension's row.
//! Reducing a 1-d array produces a rank-0 (scalar) variable, computed with
//! a cross-rank reduction — the component works at any input rank.

use std::sync::Arc;
use std::time::Instant;

use sb_comm::Communicator;
use sb_data::decompose::{slab_partition, split_1d_part};
use sb_data::{Buffer, Chunk, DType, DataResult, Region, Variable, VariableMeta};
use sb_stream::{StreamHub, WriterOptions};

use crate::component::{run_steps, Component, StepEnd, StreamArray};
use crate::error::ComponentResult;

/// The aggregation applied along the reduced dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReduceOp {
    /// Sum of the row.
    Sum,
    /// Arithmetic mean of the row.
    Mean,
    /// Minimum of the row.
    Min,
    /// Maximum of the row.
    Max,
}

impl ReduceOp {
    /// Parses a launch-script operation name.
    pub fn parse(name: &str) -> Option<ReduceOp> {
        Some(match name {
            "sum" => ReduceOp::Sum,
            "mean" | "avg" => ReduceOp::Mean,
            "min" => ReduceOp::Min,
            "max" => ReduceOp::Max,
            _ => return None,
        })
    }

    /// The canonical lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            ReduceOp::Sum => "sum",
            ReduceOp::Mean => "mean",
            ReduceOp::Min => "min",
            ReduceOp::Max => "max",
        }
    }

    fn identity(self) -> f64 {
        match self {
            ReduceOp::Sum | ReduceOp::Mean => 0.0,
            ReduceOp::Min => f64::INFINITY,
            ReduceOp::Max => f64::NEG_INFINITY,
        }
    }

    fn combine(self, a: f64, b: f64) -> f64 {
        match self {
            ReduceOp::Sum | ReduceOp::Mean => a + b,
            ReduceOp::Min => a.min(b),
            ReduceOp::Max => a.max(b),
        }
    }

    fn finish(self, acc: f64, count: usize) -> f64 {
        match self {
            ReduceOp::Mean => {
                if count == 0 {
                    0.0
                } else {
                    acc / count as f64
                }
            }
            _ => acc,
        }
    }
}

/// Collapses dimension `dim` of `var` with `op`. The output is always
/// `F64` (aggregates of integer data are fractional for `mean`).
///
/// This is the pure kernel of the Reduce component.
pub fn reduce_axis(var: &Variable, dim: usize, op: ReduceOp) -> DataResult<Variable> {
    var.shape.check_dim(dim)?;
    let sizes = var.shape.sizes();
    let d = sizes[dim];
    let pre: usize = sizes[..dim].iter().product();
    let post: usize = sizes[dim + 1..].iter().product();
    let out_shape = var.shape.without_dim(dim);
    let mut out = vec![op.identity(); pre * post];
    for p in 0..pre {
        for k in 0..d {
            let base = (p * d + k) * post;
            for q in 0..post {
                let v = var.data.get_f64(base + q);
                let slot = &mut out[p * post + q];
                *slot = op.combine(*slot, v);
            }
        }
    }
    for slot in &mut out {
        *slot = op.finish(*slot, d);
    }
    let mut result = Variable::new(var.name.clone(), out_shape, Buffer::F64(out))?;
    // Labels on surviving dims shift past the removed dimension.
    for (&ld, names) in &var.labels {
        if ld == dim {
            continue;
        }
        let nd = if ld > dim { ld - 1 } else { ld };
        result
            .set_labels(nd, names.clone())
            .expect("extent unchanged");
    }
    result.attrs = var.attrs.clone();
    Ok(result)
}

/// The Reduce workflow component.
#[derive(Debug, Clone)]
pub struct Reduce {
    /// Input stream/array names.
    pub input: StreamArray,
    /// Dimension to collapse.
    pub dim: usize,
    /// Aggregation to apply.
    pub op: ReduceOp,
    /// Output stream/array names.
    pub output: StreamArray,
    /// Output buffering policy.
    pub writer_options: WriterOptions,
    /// Reader-group name on the input stream.
    pub reader_group: String,
}

impl Reduce {
    /// Builds a Reduce collapsing `dim` with `op`.
    pub fn new<I: Into<StreamArray>, O: Into<StreamArray>>(
        input: I,
        dim: usize,
        op: ReduceOp,
        output: O,
    ) -> Reduce {
        Reduce {
            input: input.into(),
            dim,
            op,
            output: output.into(),
            writer_options: WriterOptions::default(),
            reader_group: "default".into(),
        }
    }

    /// Subscribes under a named reader group (multi-subscriber streams).
    pub fn with_reader_group(mut self, group: impl Into<String>) -> Reduce {
        self.reader_group = group.into();
        self
    }
}

impl Component for Reduce {
    fn label(&self) -> String {
        "reduce".into()
    }

    fn input_subscriptions(&self) -> Vec<(String, String)> {
        vec![(self.input.stream.clone(), self.reader_group.clone())]
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.output.stream.clone()]
    }

    fn signature(&self) -> crate::analysis::Signature {
        use crate::analysis::{unary_transfer, ArraySpec, PartitionRule, ReadSpec, Signature};
        use std::collections::BTreeMap;
        let dim = self.dim;
        Signature::with_boxed_transfer(
            vec![ReadSpec::new(
                &self.input.stream,
                &self.input.array,
                PartitionRule::FirstExcept(dim),
            )],
            unary_transfer(
                self.input.array.clone(),
                self.output.array.clone(),
                move |spec| {
                    spec.check_dim(dim)?;
                    let mut dims = spec.dims.clone();
                    dims.remove(dim);
                    let mut labels = BTreeMap::new();
                    for (&d, names) in &spec.labels {
                        if d == dim {
                            continue;
                        }
                        let nd = if d > dim { d - 1 } else { d };
                        labels.insert(nd, names.clone());
                    }
                    let mut out = ArraySpec::new(dims, sb_data::DType::F64);
                    out.labels = labels;
                    Ok(out)
                },
            ),
        )
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        run_steps(self, self.writer_options, comm, hub, |io| {
            let comm = io.comm;
            let meta = io.meta(0, &self.input.array)?;
            meta.shape.check_dim(self.dim)?;
            let out_shape_global = meta.shape.without_dim(self.dim);

            // Partition along the first non-reduced dim; 1-d inputs use
            // local partials + a cross-rank reduction instead.
            let pdim = (0..meta.shape.ndims()).find(|&d| d != self.dim);
            let (region, out_region) = match pdim {
                Some(pdim) => {
                    let region = slab_partition(&meta.shape, pdim, comm.size(), comm.rank());
                    // The same block in the output, with `dim` dropped.
                    let out_pdim = if pdim > self.dim { pdim - 1 } else { pdim };
                    let out_region =
                        slab_partition(&out_shape_global, out_pdim, comm.size(), comm.rank());
                    (region, out_region)
                }
                None => {
                    // 1-d input: every rank reduces its share.
                    let (off, count) = split_1d_part(meta.shape.size(0), comm.size(), comm.rank());
                    (
                        Region::new(vec![off], vec![count]),
                        Region::new(vec![], vec![]),
                    )
                }
            };
            let var = io.inputs[0].get(&self.input.array, &region)?;
            let bytes_in = var.byte_len() as u64;

            let kernel_start = Instant::now();
            if pdim.is_some() {
                let mut local = reduce_axis(&var, self.dim, self.op)?;
                local.name = self.output.array.clone();
                let mut out_meta = VariableMeta::new(
                    self.output.array.clone(),
                    out_shape_global.clone(),
                    DType::F64,
                );
                for (&ld, names) in &meta.labels {
                    if ld == self.dim {
                        continue;
                    }
                    let nd = if ld > self.dim { ld - 1 } else { ld };
                    out_meta.labels.insert(nd, names.clone());
                }
                out_meta.attrs = meta.attrs.clone();
                io.put(0, Chunk::new(out_meta, out_region, local.data)?);
            } else {
                // Scalar result: combine local partials across ranks.
                // Borrowed: the step queue still holds the payload's
                // `Arc`, so taking ownership would deep-copy it.
                let local = var
                    .data
                    .to_f64_cow()
                    .iter()
                    .fold(self.op.identity(), |a, &b| self.op.combine(a, b));
                let combined = comm.allreduce(local, |a, b| self.op.combine(a, b));
                let n = meta.shape.total_len();
                let value = self.op.finish(combined, n);
                let out_meta = VariableMeta::new(
                    self.output.array.clone(),
                    out_shape_global.clone(),
                    DType::F64,
                );
                // Only rank 0 contributes the scalar; the others pace
                // the stream with no chunk.
                if comm.rank() == 0 {
                    let scalar = Region::new(vec![], vec![]);
                    io.put(0, Chunk::new(out_meta, scalar, Buffer::F64(vec![value]))?);
                }
            }
            let compute = kernel_start.elapsed();
            Ok(StepEnd::Publish { bytes_in, compute })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sb_data::Shape;

    fn cube() -> Variable {
        // 2 x 3 x 4, element = linear index.
        let data: Vec<f64> = (0..24).map(|i| i as f64).collect();
        Variable::new(
            "t",
            Shape::of(&[("a", 2), ("b", 3), ("c", 4)]),
            Buffer::from(data),
        )
        .unwrap()
        .with_labels(1, &["p", "q", "r"])
        .unwrap()
    }

    #[test]
    fn op_parsing() {
        assert_eq!(ReduceOp::parse("sum"), Some(ReduceOp::Sum));
        assert_eq!(ReduceOp::parse("mean"), Some(ReduceOp::Mean));
        assert_eq!(ReduceOp::parse("avg"), Some(ReduceOp::Mean));
        assert_eq!(ReduceOp::parse("min"), Some(ReduceOp::Min));
        assert_eq!(ReduceOp::parse("max"), Some(ReduceOp::Max));
        assert_eq!(ReduceOp::parse("median"), None);
        assert_eq!(ReduceOp::Mean.name(), "mean");
    }

    #[test]
    fn sum_along_each_axis() {
        let v = cube();
        // Axis 2: row sums of consecutive 4-blocks.
        let r = reduce_axis(&v, 2, ReduceOp::Sum).unwrap();
        assert_eq!(r.shape.sizes(), vec![2, 3]);
        assert_eq!(r.get(&[0, 0]), 0.0 + 1.0 + 2.0 + 3.0);
        assert_eq!(r.get(&[1, 2]), (20..24).sum::<i32>() as f64);
        // Axis 0: pairs 12 apart.
        let r = reduce_axis(&v, 0, ReduceOp::Sum).unwrap();
        assert_eq!(r.shape.sizes(), vec![3, 4]);
        assert_eq!(r.get(&[0, 0]), 0.0 + 12.0);
        assert_eq!(r.get(&[2, 3]), 11.0 + 23.0);
    }

    #[test]
    fn mean_min_max() {
        let v = cube();
        let mean = reduce_axis(&v, 2, ReduceOp::Mean).unwrap();
        assert_eq!(mean.get(&[0, 0]), 1.5);
        let min = reduce_axis(&v, 0, ReduceOp::Min).unwrap();
        assert_eq!(min.get(&[0, 0]), 0.0);
        let max = reduce_axis(&v, 0, ReduceOp::Max).unwrap();
        assert_eq!(max.get(&[0, 0]), 12.0);
    }

    #[test]
    fn labels_shift_past_the_reduced_dim() {
        let v = cube();
        // Reduce dim 0: labels on dim 1 shift to dim 0.
        let r = reduce_axis(&v, 0, ReduceOp::Sum).unwrap();
        assert_eq!(
            r.header(0).unwrap(),
            &["p".to_string(), "q".into(), "r".into()]
        );
        // Reduce dim 1: its labels vanish.
        let r = reduce_axis(&v, 1, ReduceOp::Sum).unwrap();
        assert!(r.labels.is_empty());
    }

    #[test]
    fn reduce_1d_to_scalar_shape() {
        let v = Variable::new(
            "x",
            Shape::linear("n", 5),
            Buffer::F64(vec![1.0, 2.0, 3.0, 4.0, 5.0]),
        )
        .unwrap();
        let r = reduce_axis(&v, 0, ReduceOp::Sum).unwrap();
        assert_eq!(r.shape.ndims(), 0);
        assert_eq!(r.data.to_f64_vec(), vec![15.0]);
        let m = reduce_axis(&v, 0, ReduceOp::Mean).unwrap();
        assert_eq!(m.data.to_f64_vec(), vec![3.0]);
    }

    #[test]
    fn bad_dim_rejected() {
        assert!(reduce_axis(&cube(), 3, ReduceOp::Sum).is_err());
    }
}
