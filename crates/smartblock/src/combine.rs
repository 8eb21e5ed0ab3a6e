//! The Combine component: element-wise join of two streams.
//!
//! Every paper component has exactly one input; real workflows also need
//! joins — "richer workflows described by directed acyclic graphs" (§VI).
//! Combine reads step *k* of two arrays (possibly produced by different
//! components at different process counts) and emits their element-wise
//! combination; its signature refuses two global shapes that disagree.
//! Steps are aligned by transport step index, which FlexPath-style
//! lockstep guarantees matches producer timesteps.

use std::sync::Arc;
use std::time::{Duration, Instant};

use sb_comm::Communicator;
use sb_data::{Buffer, Chunk};
use sb_stream::StreamHub;

use crate::component::{run_steps, Component, StepEnd, StreamArray};
use crate::error::ComponentResult;

/// The element-wise operation applied to the two inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BinaryOp {
    /// `left + right`
    Add,
    /// `left - right`
    Sub,
    /// `left * right`
    Mul,
    /// `left / right` (0 where `right == 0`)
    Div,
}

impl BinaryOp {
    /// Parses a launch-script operation name.
    pub fn parse(name: &str) -> Option<BinaryOp> {
        Some(match name {
            "add" => BinaryOp::Add,
            "sub" => BinaryOp::Sub,
            "mul" => BinaryOp::Mul,
            "div" => BinaryOp::Div,
            _ => return None,
        })
    }

    /// Applies the operation.
    #[inline]
    pub fn apply(self, a: f64, b: f64) -> f64 {
        match self {
            BinaryOp::Add => a + b,
            BinaryOp::Sub => a - b,
            BinaryOp::Mul => a * b,
            BinaryOp::Div => {
                if b == 0.0 {
                    0.0
                } else {
                    a / b
                }
            }
        }
    }
}

/// The Combine workflow component.
#[derive(Debug, Clone)]
pub struct Combine {
    /// Left input endpoint.
    pub left: StreamArray,
    /// Right input endpoint.
    pub right: StreamArray,
    /// Element-wise operation.
    pub op: BinaryOp,
    /// Output stream/array names.
    pub output: StreamArray,
}

impl Combine {
    /// Builds a Combine of two endpoints.
    pub fn new<L, R, O>(left: L, op: BinaryOp, right: R, output: O) -> Combine
    where
        L: Into<StreamArray>,
        R: Into<StreamArray>,
        O: Into<StreamArray>,
    {
        Combine {
            left: left.into(),
            right: right.into(),
            op,
            output: output.into(),
        }
    }
}

impl Component for Combine {
    fn label(&self) -> String {
        "combine".into()
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.output.stream.clone()]
    }

    fn signature(&self) -> crate::analysis::Signature {
        use crate::analysis::{
            ArraySpec, Extent, PartitionRule, ReadSpec, Signature, SpecError, StreamSpec,
        };
        let left = self.left.clone();
        let right = self.right.clone();
        let out_array = self.output.array.clone();
        Signature::new(
            vec![
                ReadSpec::new(&self.left.stream, &self.left.array, PartitionRule::Along(0)),
                ReadSpec::new(
                    &self.right.stream,
                    &self.right.array,
                    PartitionRule::Along(0),
                ),
            ],
            move |ins| {
                let lspec = match ins.first() {
                    Some(s) => s.array(&left.array)?,
                    None => None,
                };
                let rspec = match ins.get(1) {
                    Some(s) => s.array(&right.array)?,
                    None => None,
                };
                let (Some(l), Some(r)) = (lspec, rspec) else {
                    return Ok(vec![StreamSpec::Opaque]);
                };
                // Dynamic extents are compatible with anything; two fixed
                // extents must agree exactly (the run-time assertion).
                let agree = l.ndims() == r.ndims()
                    && l.dims.iter().zip(&r.dims).all(|(a, b)| {
                        !matches!(
                            (a.extent, b.extent),
                            (Extent::Fixed(x), Extent::Fixed(y)) if x != y
                        )
                    });
                if !agree {
                    return Err(SpecError::ShapeMismatch {
                        left: l.to_string(),
                        right: r.to_string(),
                    });
                }
                let mut out = ArraySpec::new(l.dims.clone(), sb_data::DType::F64);
                out.labels = l.labels.clone();
                Ok(vec![StreamSpec::known_one(out_array.clone(), out)])
            },
        )
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        run_steps(self, comm, hub, |io| {
            let (Some(left), Some(right)) = (io.region(0), io.region(1)) else {
                return Ok(StepEnd::Publish {
                    bytes_in: 0,
                    compute: Duration::ZERO,
                });
            };
            let lv = io.inputs[0].get(&self.left.array, left)?;
            let rv = io.inputs[1].get(&self.right.array, right)?;
            let bytes_in = (lv.byte_len() + rv.byte_len()) as u64;

            let kernel_start = Instant::now();
            // Borrowed: the step queues still hold the payloads' `Arc`s,
            // so taking ownership would deep-copy both every step.
            let out: Vec<f64> = lv
                .data
                .to_f64_cow()
                .iter()
                .zip(rv.data.to_f64_cow().iter())
                .map(|(&x, &y)| self.op.apply(x, y))
                .collect();
            let compute = kernel_start.elapsed();

            let out_meta = io.out_meta(0, &self.output.array)?.clone();
            io.put(0, Chunk::new(out_meta, left.clone(), Buffer::F64(out))?);
            Ok(StepEnd::Publish { bytes_in, compute })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_parsing_and_semantics() {
        assert_eq!(BinaryOp::parse("add"), Some(BinaryOp::Add));
        assert_eq!(BinaryOp::parse("sub"), Some(BinaryOp::Sub));
        assert_eq!(BinaryOp::parse("mul"), Some(BinaryOp::Mul));
        assert_eq!(BinaryOp::parse("div"), Some(BinaryOp::Div));
        assert_eq!(BinaryOp::parse("pow"), None);
        assert_eq!(BinaryOp::Add.apply(2.0, 3.0), 5.0);
        assert_eq!(BinaryOp::Sub.apply(2.0, 3.0), -1.0);
        assert_eq!(BinaryOp::Mul.apply(2.0, 3.0), 6.0);
        assert_eq!(BinaryOp::Div.apply(6.0, 3.0), 2.0);
        assert_eq!(BinaryOp::Div.apply(6.0, 0.0), 0.0, "guarded division");
    }

    #[test]
    fn same_stream_inputs_use_distinct_groups() {
        use crate::component::subscriptions;
        let sub = |stream: &str, group: &str| (stream.to_string(), group.to_string());
        // Reading two arrays of one stream: the later read gets `label#1`.
        let c = Combine::new(("s.fp", "a"), BinaryOp::Add, ("s.fp", "b"), ("o.fp", "sum"));
        assert_eq!(
            subscriptions("combine", &c),
            vec![sub("s.fp", "combine"), sub("s.fp", "combine#1")]
        );
        // Two streams: each read is in the component's own group.
        let c = Combine::new(("l.fp", "a"), BinaryOp::Add, ("r.fp", "b"), ("o.fp", "sum"));
        assert_eq!(
            subscriptions("combine-2", &c),
            vec![sub("l.fp", "combine-2"), sub("r.fp", "combine-2")]
        );
    }
}
