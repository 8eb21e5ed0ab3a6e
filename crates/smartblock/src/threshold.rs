//! The Threshold component: filter data points by a predicate.
//!
//! Unlike Select (which keeps whole labelled rows), Threshold keeps the
//! *values* that satisfy a run-time predicate, emitting two aligned 1-d
//! arrays per step: `values` (the survivors) and `indices` (their linear
//! positions in the input's global row-major order). The output length
//! varies per step and is only known after a cross-rank exclusive scan —
//! a shape-dynamic analytic in the SmartBlock mould.

use std::sync::Arc;
use std::time::Instant;

use sb_comm::Communicator;
use sb_data::{Buffer, Chunk, Region, Shape, VariableMeta};
use sb_stream::StreamHub;

use crate::component::{run_steps, Component, StepEnd, StreamArray};
use crate::error::ComponentResult;

/// The comparison a value must satisfy to survive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Predicate {
    /// `value > threshold`
    GreaterThan(f64),
    /// `value < threshold`
    LessThan(f64),
    /// `|value| > threshold`
    AbsGreaterThan(f64),
}

impl Predicate {
    /// Parses a launch-script predicate: `gt`, `lt` or `abs-gt`.
    pub fn parse(mode: &str, threshold: f64) -> Option<Predicate> {
        Some(match mode {
            "gt" => Predicate::GreaterThan(threshold),
            "lt" => Predicate::LessThan(threshold),
            "abs-gt" => Predicate::AbsGreaterThan(threshold),
            _ => return None,
        })
    }

    /// Whether `v` survives the filter.
    #[inline]
    pub fn keep(&self, v: f64) -> bool {
        match *self {
            Predicate::GreaterThan(t) => v > t,
            Predicate::LessThan(t) => v < t,
            Predicate::AbsGreaterThan(t) => v.abs() > t,
        }
    }
}

/// Filters `values`, returning the survivors and their indices offset by
/// `base` (the caller's global offset). This is the pure local kernel.
pub fn threshold_filter(values: &[f64], pred: Predicate, base: u64) -> (Vec<f64>, Vec<u64>) {
    let mut kept = Vec::new();
    let mut indices = Vec::new();
    for (i, &v) in values.iter().enumerate() {
        if pred.keep(v) {
            kept.push(v);
            indices.push(base + i as u64);
        }
    }
    (kept, indices)
}

/// The Threshold workflow component. Its output metas are built by hand:
/// their extent is known only after the exscan.
#[derive(Debug, Clone)]
pub struct Threshold {
    /// Input stream/array names (any rank; filtered in row-major order).
    pub input: StreamArray,
    /// The predicate values must satisfy.
    pub predicate: Predicate,
    /// Output stream name; arrays are published as `<array>` (values) and
    /// `<array>_indices`.
    pub output: StreamArray,
}

impl Threshold {
    /// Builds a Threshold with the given predicate.
    pub fn new<I: Into<StreamArray>, O: Into<StreamArray>>(
        input: I,
        predicate: Predicate,
        output: O,
    ) -> Threshold {
        Threshold {
            input: input.into(),
            predicate,
            output: output.into(),
        }
    }
}

impl Component for Threshold {
    fn label(&self) -> String {
        "threshold".into()
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.output.stream.clone()]
    }

    fn signature(&self) -> crate::analysis::Signature {
        use crate::analysis::{ArraySpec, DimSpec, PartitionRule, ReadSpec, Signature, StreamSpec};
        use std::collections::BTreeMap;
        let in_array = self.input.array.clone();
        let out_array = self.output.array.clone();
        Signature::new(
            vec![ReadSpec::new(
                &self.input.stream,
                &in_array,
                PartitionRule::Along(0),
            )],
            move |ins| {
                if let Some(stream) = ins.first() {
                    stream.array(&in_array)?;
                }
                // How many values survive the predicate is inherently
                // data-dependent: both outputs are 1-d with dynamic extent.
                let mut map = BTreeMap::new();
                map.insert(
                    out_array.clone(),
                    ArraySpec::new(vec![DimSpec::dynamic("kept")], sb_data::DType::F64),
                );
                map.insert(
                    format!("{out_array}_indices"),
                    ArraySpec::new(vec![DimSpec::dynamic("kept")], sb_data::DType::U64),
                );
                Ok(vec![StreamSpec::Known(map)])
            },
        )
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        run_steps(self, comm, hub, |io| {
            let comm = io.comm;
            let meta = io.meta(0, &self.input.array)?;
            let region = io.region(0);
            let var = region
                .map(|region| io.inputs[0].get(&self.input.array, region))
                .transpose()?;
            let bytes_in = var.as_ref().map_or(0, |var| var.byte_len() as u64);

            let kernel_start = Instant::now();
            // A rank that reads nothing keeps nothing, but still joins the
            // scan below.
            let (kept, indices) = match region.zip(var) {
                Some((region, var)) => {
                    // This rank's rows start at a known global linear
                    // offset because the partition is a leading-dimension
                    // slab.
                    let row_len: usize = meta.shape.sizes().iter().skip(1).product();
                    let base =
                        (region.offset().first().copied().unwrap_or(0) * row_len.max(1)) as u64;
                    // Borrowed: the step queue still holds the payload's
                    // `Arc`, so taking ownership would deep-copy it every
                    // step.
                    threshold_filter(&var.data.to_f64_cow(), self.predicate, base)
                }
                None => (Vec::new(), Vec::new()),
            };

            // Agree on global sizes: my offset = exscan of counts, total =
            // allreduce. (The two communication rounds of a shape-dynamic
            // component.)
            let local_n = kept.len() as u64;
            let my_off = comm.exscan(local_n, |a, b| a + b).unwrap_or(0);
            let total = comm.allreduce(local_n, |a, b| a + b);
            let compute = kernel_start.elapsed();

            // Two variables per step: the survivors and their positions.
            let values_meta = VariableMeta::new(
                self.output.array.clone(),
                Shape::linear("kept", total as usize),
                sb_data::DType::F64,
            );
            let indices_meta = VariableMeta::new(
                format!("{}_indices", self.output.array),
                Shape::linear("kept", total as usize),
                sb_data::DType::U64,
            );
            let out_region = Region::new(vec![my_off as usize], vec![local_n as usize]);
            io.put(
                0,
                Chunk::new(values_meta, out_region.clone(), Buffer::F64(kept))?,
            );
            io.put(
                0,
                Chunk::new(indices_meta, out_region, Buffer::U64(indices))?,
            );
            Ok(StepEnd::Publish { bytes_in, compute })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn predicate_parsing_and_semantics() {
        assert_eq!(
            Predicate::parse("gt", 1.0),
            Some(Predicate::GreaterThan(1.0))
        );
        assert_eq!(
            Predicate::parse("lt", -2.0),
            Some(Predicate::LessThan(-2.0))
        );
        assert_eq!(
            Predicate::parse("abs-gt", 0.5),
            Some(Predicate::AbsGreaterThan(0.5))
        );
        assert_eq!(Predicate::parse("eq", 0.0), None);

        assert!(Predicate::GreaterThan(1.0).keep(1.5));
        assert!(!Predicate::GreaterThan(1.0).keep(1.0));
        assert!(Predicate::LessThan(0.0).keep(-0.1));
        assert!(Predicate::AbsGreaterThan(2.0).keep(-3.0));
        assert!(!Predicate::AbsGreaterThan(2.0).keep(1.5));
    }

    #[test]
    fn filter_keeps_values_and_indices_aligned() {
        let values = [0.5, -3.0, 2.0, 0.0, 4.0];
        let (kept, idx) = threshold_filter(&values, Predicate::AbsGreaterThan(1.0), 100);
        assert_eq!(kept, vec![-3.0, 2.0, 4.0]);
        assert_eq!(idx, vec![101, 102, 104]);
    }

    #[test]
    fn filter_can_keep_nothing_or_everything() {
        let values = [1.0, 2.0];
        let (kept, idx) = threshold_filter(&values, Predicate::GreaterThan(5.0), 0);
        assert!(kept.is_empty());
        assert!(idx.is_empty());
        let (kept, _) = threshold_filter(&values, Predicate::GreaterThan(0.0), 0);
        assert_eq!(kept.len(), 2);
    }
}
