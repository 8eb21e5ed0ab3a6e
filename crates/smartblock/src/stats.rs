//! The Stats component: five summary statistics of any-rank data.
//!
//! A small, reusable reduction block in the SmartBlock mould ("expanding
//! the generic components library to include a variety of other analytical
//! operations", §VI): the ranks partition the input, combine local partial
//! sums with two reductions, and publish a labelled 1-d array
//! `{min, max, mean, std, count}` that any downstream component (or a file
//! endpoint) can consume.

use std::sync::Arc;
use std::time::Instant;

use sb_comm::Communicator;
use sb_data::decompose::default_partition;
use sb_data::{Buffer, Chunk, Region, Shape, Variable, VariableMeta};
use sb_stream::{StreamHub, WriterOptions};

use crate::component::{run_steps, Component, StepEnd, StreamArray};
use crate::error::ComponentResult;

/// Partial sums that combine associatively across ranks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Moments {
    /// Minimum value.
    pub min: f64,
    /// Maximum value.
    pub max: f64,
    /// Sum of values.
    pub sum: f64,
    /// Sum of squared values.
    pub sum_sq: f64,
    /// Number of values.
    pub count: u64,
}

impl Moments {
    /// Partial sums of a slice.
    pub fn of(values: &[f64]) -> Moments {
        let mut m = Moments {
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            sum: 0.0,
            sum_sq: 0.0,
            count: values.len() as u64,
        };
        for &v in values {
            m.min = m.min.min(v);
            m.max = m.max.max(v);
            m.sum += v;
            m.sum_sq += v * v;
        }
        m
    }

    /// Combines two partials.
    pub fn merge(a: Moments, b: Moments) -> Moments {
        Moments {
            min: a.min.min(b.min),
            max: a.max.max(b.max),
            sum: a.sum + b.sum,
            sum_sq: a.sum_sq + b.sum_sq,
            count: a.count + b.count,
        }
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Population standard deviation (0 when empty).
    pub fn std(&self) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let mean = self.mean();
        (self.sum_sq / self.count as f64 - mean * mean)
            .max(0.0)
            .sqrt()
    }
}

/// The Stats workflow component.
#[derive(Debug, Clone)]
pub struct Stats {
    /// Input stream/array names (any rank).
    pub input: StreamArray,
    /// Output stream/array names (a labelled 1-d array of 5 statistics).
    pub output: StreamArray,
    /// Output buffering policy.
    pub writer_options: WriterOptions,
    /// Reader-group name on the input stream.
    pub reader_group: String,
}

impl Stats {
    /// Builds a Stats between the given endpoints.
    pub fn new<I: Into<StreamArray>, O: Into<StreamArray>>(input: I, output: O) -> Stats {
        Stats {
            input: input.into(),
            output: output.into(),
            writer_options: WriterOptions::default(),
            reader_group: "default".into(),
        }
    }

    /// Subscribes under a named reader group (multi-subscriber streams).
    pub fn with_reader_group(mut self, group: impl Into<String>) -> Stats {
        self.reader_group = group.into();
        self
    }
}

impl Component for Stats {
    fn label(&self) -> String {
        "stats".into()
    }

    fn input_subscriptions(&self) -> Vec<(String, String)> {
        vec![(self.input.stream.clone(), self.reader_group.clone())]
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.output.stream.clone()]
    }

    fn signature(&self) -> crate::analysis::Signature {
        use crate::analysis::{ArraySpec, DimSpec, Signature, StreamSpec};
        // Stats accepts any rank and tolerates more ranks than slices (the
        // reduction is global), so it declares no partitioned reads.
        let in_array = self.input.array.clone();
        let out_array = self.output.array.clone();
        Signature::new(Vec::new(), move |ins| {
            if let Some(stream) = ins.first() {
                stream.array(&in_array)?;
            }
            let out = ArraySpec::new(vec![DimSpec::fixed("stat", 5)], sb_data::DType::F64)
                .with_dim_labels(0, ["min", "max", "mean", "std", "count"]);
            Ok(vec![StreamSpec::known_one(out_array.clone(), out)])
        })
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        run_steps(self, self.writer_options, comm, hub, |io| {
            let comm = io.comm;
            let meta = io.meta(0, &self.input.array)?;
            let region = default_partition(&meta.shape, comm.size(), comm.rank());
            let var = io.inputs[0].get(&self.input.array, &region)?;
            let bytes_in = var.byte_len() as u64;

            let kernel_start = Instant::now();
            // Borrowed: the step queue still holds the payload's `Arc`,
            // so taking ownership would deep-copy it every step.
            let local = Moments::of(&var.data.to_f64_cow());
            let global = comm.allreduce(local, Moments::merge);
            let compute = kernel_start.elapsed();

            let mut out_meta = VariableMeta::new(
                self.output.array.clone(),
                Shape::linear("stat", 5),
                sb_data::DType::F64,
            );
            out_meta.labels.insert(
                0,
                ["min", "max", "mean", "std", "count"]
                    .iter()
                    .map(|s| s.to_string())
                    .collect(),
            );
            // Rank 0 publishes the whole result; other ranks just pace
            // the writer group.
            if comm.rank() == 0 {
                let values = vec![
                    global.min,
                    global.max,
                    global.mean(),
                    global.std(),
                    global.count as f64,
                ];
                let region = Region::new(vec![0], vec![5]);
                io.put(0, Chunk::new(out_meta, region, Buffer::F64(values))?);
            }
            Ok(StepEnd::Publish { bytes_in, compute })
        })
    }
}

/// Reads a Stats output variable back into a [`Moments`]-like summary.
pub fn parse_stats_output(var: &Variable) -> Option<(f64, f64, f64, f64, u64)> {
    if var.shape.total_len() != 5 {
        return None;
    }
    let v = var.data.to_f64_vec();
    Some((v[0], v[1], v[2], v[3], v[4] as u64))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn moments_match_direct_computation() {
        let values = [1.0, 2.0, 3.0, 4.0];
        let m = Moments::of(&values);
        assert_eq!(m.min, 1.0);
        assert_eq!(m.max, 4.0);
        assert_eq!(m.mean(), 2.5);
        assert!((m.std() - 1.118033988749895).abs() < 1e-12);
        assert_eq!(m.count, 4);
    }

    #[test]
    fn merge_is_equivalent_to_whole() {
        let all: Vec<f64> = (0..100).map(|i| (i as f64 * 0.37).cos()).collect();
        let whole = Moments::of(&all);
        let merged = Moments::merge(Moments::of(&all[..33]), Moments::of(&all[33..]));
        assert!((whole.mean() - merged.mean()).abs() < 1e-12);
        assert!((whole.std() - merged.std()).abs() < 1e-12);
        assert_eq!(whole.min, merged.min);
        assert_eq!(whole.max, merged.max);
        assert_eq!(whole.count, merged.count);
    }

    #[test]
    fn empty_moments_are_safe() {
        let m = Moments::of(&[]);
        assert_eq!(m.count, 0);
        assert_eq!(m.mean(), 0.0);
        assert_eq!(m.std(), 0.0);
    }

    #[test]
    fn parse_rejects_wrong_size() {
        let v = Variable::new("s", Shape::linear("stat", 3), Buffer::F64(vec![0.0; 3])).unwrap();
        assert!(parse_stats_output(&v).is_none());
    }
}
