//! The Select component: keep named rows of one dimension (paper §III-C).
//!
//! Select extracts certain rows (indices) from one dimension of an array
//! with any number of dimensions, identified *by name* through the quantity
//! header the upstream component attached — so a launch script can say
//! "keep vx, vy, vz" without knowing column numbers. The output has the
//! same rank with the selected dimension shrunk to the kept rows.
//!
//! Usage (paper Fig. 1):
//!
//! ```text
//! aprun select input-stream-name input-array-name dimension-index
//!       output-stream-name output-array-name [arg1] [arg2] ...
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sb_comm::Communicator;
use sb_data::{Buffer, Chunk, DataError, DataResult, Region, Variable};
use sb_stream::StreamHub;

use crate::component::{run_steps, Component, StepEnd, StreamArray};
use crate::error::ComponentResult;

/// Gathers the rows `indices` of dimension `dim` from `var`, in the order
/// given, producing a variable whose `dim` has size `indices.len()`.
///
/// This is the pure kernel of the Select component; it preserves dtype,
/// renames nothing, and re-labels `dim` with the selected subset of the
/// header (when one is present).
pub fn select_rows(var: &Variable, dim: usize, indices: &[usize]) -> DataResult<Variable> {
    select_rows_into(var, dim, indices, None)
}

/// [`select_rows`] built in `storage`, a payload its caller no longer
/// needs (see [`sb_data::Buffer::gather_dim_into`]).
pub(crate) fn select_rows_into(
    var: &Variable,
    dim: usize,
    indices: &[usize],
    storage: Option<Buffer>,
) -> DataResult<Variable> {
    var.shape.check_dim(dim)?;
    let d = var.shape.size(dim);
    for &i in indices {
        if i >= d {
            return Err(DataError::RegionOutOfBounds {
                detail: format!("selected row {i} exceeds dimension extent {d}"),
            });
        }
    }
    let sizes = var.shape.sizes();
    let pre: usize = sizes[..dim].iter().product();
    let post: usize = sizes[dim + 1..].iter().product();
    let out_shape = var.shape.with_dim_size(dim, indices.len());
    let out = var.data.gather_dim_into(pre, d, post, indices, storage);
    let mut result = Variable::new(var.name.clone(), out_shape, out)?;
    result.labels = selected_labels(&var.labels, dim, indices);
    result.attrs = var.attrs.clone();
    Ok(result)
}

/// `labels` with dimension `dim`'s header cut down to the rows `indices`
/// (in that order) and every other header kept.
fn selected_labels(
    labels: &BTreeMap<usize, Vec<String>>,
    dim: usize,
    indices: &[usize],
) -> BTreeMap<usize, Vec<String>> {
    let select = |(&ldim, names): (&usize, &Vec<String>)| {
        let kept = if ldim == dim {
            indices.iter().map(|&i| names[i].clone()).collect()
        } else {
            names.clone()
        };
        (ldim, kept)
    };
    labels.iter().map(select).collect()
}

/// The Select workflow component.
#[derive(Debug, Clone)]
pub struct Select {
    /// Input stream/array names.
    pub input: StreamArray,
    /// Index of the dimension to filter.
    pub dim_index: usize,
    /// Names of the rows to keep, resolved against the dimension's header.
    pub keep: Vec<String>,
    /// Output stream/array names.
    pub output: StreamArray,
}

impl Select {
    /// Builds a Select keeping the named rows of dimension `dim_index`.
    pub fn new<I, K, O>(input: I, dim_index: usize, keep: K, output: O) -> Select
    where
        I: Into<StreamArray>,
        K: IntoIterator,
        K::Item: Into<String>,
        O: Into<StreamArray>,
    {
        Select {
            input: input.into(),
            dim_index,
            keep: keep.into_iter().map(Into::into).collect(),
            output: output.into(),
        }
    }
}

impl Component for Select {
    fn label(&self) -> String {
        "select".into()
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.output.stream.clone()]
    }

    fn signature(&self) -> crate::analysis::Signature {
        use crate::analysis::{unary_transfer, Extent, PartitionRule, ReadSpec, Signature};
        let dim = self.dim_index;
        let keep = self.keep.clone();
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
                    spec.check_labels(dim, &keep)?;
                    let mut out = spec.clone();
                    out.dims[dim].extent = Extent::Fixed(keep.len());
                    out.labels.insert(dim, keep.clone());
                    Ok(out)
                },
            ),
        )
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        run_steps(self, comm, hub, |io| {
            let meta = io.meta(0, &self.input.array)?;
            let indices: Vec<usize> = self
                .keep
                .iter()
                .map(|n| meta.resolve_label(self.dim_index, n))
                .collect::<DataResult<_>>()?;
            // The partition runs along a non-filtered dimension, so every
            // rank sees the whole header dimension.
            let Some(region) = io.region(0) else {
                return Ok(StepEnd::Publish {
                    bytes_in: 0,
                    compute: Duration::ZERO,
                });
            };
            let var = io.inputs[0].get(&self.input.array, region)?;
            let bytes_in = var.byte_len() as u64;

            // Built in a payload of an earlier step that every reader has
            // dropped, so the step touches no fresh page.
            let storage = io.reclaim(0);
            let kernel_start = Instant::now();
            let selected = select_rows_into(&var, self.dim_index, &indices, storage)?;
            let compute = kernel_start.elapsed();

            let mut offset = region.offset().to_vec();
            let mut count = region.count().to_vec();
            offset[self.dim_index] = 0;
            count[self.dim_index] = indices.len();
            let mut out_meta = io.out_meta(0, &self.output.array)?.clone();
            out_meta.attrs = meta.attrs.clone();
            let chunk = Chunk::new(out_meta, Region::new(offset, count), selected.data)?;
            io.put(0, chunk);
            Ok(StepEnd::Publish { bytes_in, compute })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::tests::Wired;
    use sb_data::Shape;

    fn particles() -> Variable {
        // 4 particles x 5 props; value = 10*particle + prop.
        let data: Vec<f64> = (0..4)
            .flat_map(|p| (0..5).map(move |q| (10 * p + q) as f64))
            .collect();
        Variable::new(
            "atoms",
            Shape::of(&[("particles", 4), ("props", 5)]),
            Buffer::from(data),
        )
        .unwrap()
        .with_labels(1, &["ID", "Type", "vx", "vy", "vz"])
        .unwrap()
    }

    #[test]
    fn kernel_keeps_named_rows_in_order() {
        let v = particles();
        let out = select_rows(&v, 1, &[2, 3, 4]).unwrap();
        assert_eq!(out.shape.sizes(), vec![4, 3]);
        assert_eq!(out.get(&[0, 0]), 2.0); // vx of particle 0
        assert_eq!(out.get(&[3, 2]), 34.0); // vz of particle 3
        assert_eq!(
            out.header(1).unwrap(),
            &["vx".to_string(), "vy".into(), "vz".into()]
        );
    }

    #[test]
    fn kernel_reorders_when_asked() {
        let v = particles();
        let out = select_rows(&v, 1, &[4, 2]).unwrap();
        assert_eq!(out.get(&[1, 0]), 14.0); // vz first
        assert_eq!(out.get(&[1, 1]), 12.0); // then vx
        assert_eq!(out.header(1).unwrap(), &["vz".to_string(), "vx".into()]);
    }

    #[test]
    fn kernel_selects_along_dim_zero() {
        let v = particles();
        let out = select_rows(&v, 0, &[3, 1]).unwrap();
        assert_eq!(out.shape.sizes(), vec![2, 5]);
        assert_eq!(out.get(&[0, 0]), 30.0);
        assert_eq!(out.get(&[1, 4]), 14.0);
        // The untouched header on dim 1 survives.
        assert_eq!(out.header(1).unwrap().len(), 5);
    }

    #[test]
    fn kernel_selects_in_three_dimensions() {
        // 2 x 3 x 4, select middle dim rows [2, 0].
        let data: Vec<f64> = (0..24).map(|i| i as f64).collect();
        let v = Variable::new(
            "t",
            Shape::of(&[("a", 2), ("b", 3), ("c", 4)]),
            Buffer::from(data),
        )
        .unwrap();
        let out = select_rows(&v, 1, &[2, 0]).unwrap();
        assert_eq!(out.shape.sizes(), vec![2, 2, 4]);
        // (a=1, b'=0 -> b=2, c=3): original linear = 1*12 + 2*4 + 3 = 23.
        assert_eq!(out.get(&[1, 0, 3]), 23.0);
        // (a=0, b'=1 -> b=0, c=0): original = 0.
        assert_eq!(out.get(&[0, 1, 0]), 0.0);
    }

    #[test]
    fn kernel_rejects_bad_rows_and_dims() {
        let v = particles();
        assert!(select_rows(&v, 1, &[5]).is_err());
        assert!(select_rows(&v, 2, &[0]).is_err());
    }

    #[test]
    fn kernel_empty_selection_yields_empty_dim() {
        let v = particles();
        let out = select_rows(&v, 1, &[]).unwrap();
        assert_eq!(out.shape.sizes(), vec![4, 0]);
        assert!(out.data.is_empty());
    }

    #[test]
    fn component_follows_a_header_that_changes_between_steps() {
        use std::time::Duration;

        // Steps alternate between two column orders; the row indices cached
        // for one must not be applied to the other.
        let orders = [["ID", "vx", "vy"], ["vy", "ID", "vx"]];
        let hub = StreamHub::new();
        let source_hub = Arc::clone(&hub);
        let source = sb_comm::LaunchHandle::spawn("src", 1, move |comm| {
            run_steps(&Wired::new(&[], &["in.fp"]), &comm, &source_hub, |io| {
                if io.step >= 4 {
                    return Ok(StepEnd::Done);
                }
                let order = orders[io.step as usize % 2];
                // Column `name` of row `r` holds 10 r + the name's
                // position in the first order.
                let value = |r: usize, name: &str| {
                    (10 * r + orders[0].iter().position(|n| *n == name).unwrap()) as f64
                };
                let data = (0..2)
                    .flat_map(|r| order.iter().map(move |n| value(r, n)))
                    .collect();
                let v = Variable::new(
                    "atoms",
                    Shape::of(&[("particles", 2), ("props", 3)]),
                    Buffer::F64(data),
                )
                .unwrap()
                .with_labels(1, &order)
                .unwrap();
                io.put(0, Chunk::whole(v));
                Ok(StepEnd::Publish {
                    bytes_in: 0,
                    compute: Duration::ZERO,
                })
            })
        })
        .unwrap();
        let select_hub = Arc::clone(&hub);
        let select = sb_comm::LaunchHandle::spawn("select", 1, move |comm| {
            Select::new(("in.fp", "atoms"), 1, ["vx", "vy"], ("out.fp", "velos"))
                .run(&comm, &select_hub)
        })
        .unwrap();
        let sink_hub = Arc::clone(&hub);
        let sink = sb_comm::LaunchHandle::spawn("sink", 1, move |comm| {
            run_steps(&Wired::new(&["out.fp"], &[]), &comm, &sink_hub, |io| {
                let v = io.inputs[0].get_whole("velos")?;
                assert_eq!(v.header(1).unwrap(), &["vx".to_string(), "vy".into()]);
                assert_eq!(v.data.to_f64_vec(), vec![1.0, 2.0, 11.0, 12.0]);
                Ok(StepEnd::Publish {
                    bytes_in: v.byte_len() as u64,
                    compute: Duration::ZERO,
                })
            })
        })
        .unwrap();
        source.join().unwrap().remove(0).unwrap();
        select.join().unwrap().remove(0).unwrap();
        assert_eq!(sink.join().unwrap().remove(0).unwrap().steps, 4);
    }

    #[test]
    fn partition_dim_avoids_filtered_dim() {
        let partition = |s: Select| s.signature().reads[0].partition;
        let s = Select::new(("a", "x"), 1, ["vx"], ("b", "y"));
        assert_eq!(partition(s).resolve(2), Some(0));
        let s0 = Select::new(("a", "x"), 0, ["row"], ("b", "y"));
        assert_eq!(partition(s0.clone()).resolve(3), Some(1));
        assert_eq!(partition(s0).resolve(1), None);
    }
}
