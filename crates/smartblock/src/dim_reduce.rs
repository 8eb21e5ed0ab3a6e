//! The Dim-Reduce component: absorb one dimension into another without
//! changing the total data size (paper §III-F).
//!
//! Certain analytical components expect data of a particular rank —
//! Histogram wants 1-d input, but GTCP emits `toroidal × gridpoints × 7`.
//! Dim-Reduce removes one dimension by absorbing it into another: the
//! output has one dimension fewer, the absorbed ("grow") dimension's extent
//! is multiplied by the removed dimension's, and the data is re-arranged in
//! memory so that the removed index becomes the *slower-varying* component
//! of the grown index:
//!
//! ```text
//! new_grow_index = old_remove_index * size(grow) + old_grow_index
//! ```
//!
//! When the removed dimension immediately precedes the grown one in
//! row-major order, that re-arrangement is the identity — the fast path.
//! Any other pairing genuinely permutes memory, which is exactly why the
//! paper argues the component must exist ("data must be presented to the
//! components in a format that they expect", §III).
//!
//! Usage (paper Fig. 3):
//!
//! ```text
//! aprun dim-reduce input-stream-name input-array-name
//!       dim-to-remove dim-to-grow output-stream-name output-array-name
//! ```

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use sb_comm::Communicator;
use sb_data::{Buffer, Chunk, DataError, DataResult, Dim, Region, Shape, Variable};
use sb_stream::StreamHub;

use crate::component::{run_steps, Component, StepEnd, StreamArray};
use crate::error::ComponentResult;

/// Computes the output shape of a dim-reduce: `remove` dropped, `grow`
/// multiplied by `remove`'s extent. Returns the shape and the index of the
/// grown dimension in the output.
pub fn reduced_shape(shape: &Shape, remove: usize, grow: usize) -> DataResult<(Shape, usize)> {
    shape.check_dim(remove)?;
    shape.check_dim(grow)?;
    if remove == grow {
        return Err(DataError::RegionOutOfBounds {
            detail: "dim-reduce: remove and grow must differ".into(),
        });
    }
    let r = shape.size(remove);
    let g = shape.size(grow);
    let grow_out = if remove < grow { grow - 1 } else { grow };
    let mut dims: Vec<Dim> = shape
        .dims()
        .iter()
        .enumerate()
        .filter(|(d, _)| *d != remove)
        .map(|(_, dim)| dim.clone())
        .collect();
    dims[grow_out] = Dim::new(
        format!("{}*{}", shape.dim_name(remove), shape.dim_name(grow)),
        r * g,
    );
    Ok((Shape::new(dims), grow_out))
}

/// The pure kernel: re-arranges `var`'s data per the dim-reduce mapping.
///
/// Size-preserving by construction; a permutation of the input elements.
pub fn dim_reduce(var: &Variable, remove: usize, grow: usize) -> DataResult<Variable> {
    let (out_shape, _grow_out) = reduced_shape(&var.shape, remove, grow)?;
    let ndims = var.shape.ndims();

    // Fast path: removed dim immediately precedes the grown dim, so the
    // combined index order matches the existing memory order.
    if remove + 1 == grow {
        let mut out = Variable::new(var.name.clone(), out_shape, var.data.clone())?;
        out.attrs = var.attrs.clone();
        carry_labels(var, remove, grow, &mut out);
        return Ok(out);
    }

    // General path: for each input dimension, its contribution (stride) to
    // the output linear offset under the mapping. Surviving dims keep their
    // output stride; the grown dim's index contributes its output stride;
    // the removed dim contributes `size(grow)` grown-dim strides per unit.
    let out_strides = out_shape.strides();
    let g = var.shape.size(grow);
    let grow_out = if remove < grow { grow - 1 } else { grow };
    let mut out_index_of_input = vec![usize::MAX; ndims];
    let mut next_out = 0;
    for (d, slot) in out_index_of_input.iter_mut().enumerate() {
        if d != remove {
            *slot = next_out;
            next_out += 1;
        }
    }
    let mut contrib = vec![0usize; ndims];
    for d in 0..ndims {
        contrib[d] = if d == remove {
            g * out_strides[grow_out]
        } else if d == grow {
            out_strides[grow_out]
        } else {
            out_strides[out_index_of_input[d]]
        };
    }

    let sizes = var.shape.sizes();
    let total = var.shape.total_len();
    let mut out = Buffer::zeros(var.dtype(), total);
    if total > 0 {
        // Odometer over all dims but the last; the last dim is copied as a
        // contiguous run when its output stride is 1, elementwise otherwise.
        let last = ndims - 1;
        let run = sizes[last];
        let run_contiguous = contrib[last] == 1;
        let mut idx = vec![0usize; last];
        let mut in_off = 0usize;
        loop {
            let out_base: usize = idx.iter().zip(&contrib[..last]).map(|(&i, &c)| i * c).sum();
            if run_contiguous {
                out.copy_from(out_base, &var.data, in_off, run)?;
            } else {
                for k in 0..run {
                    out.copy_from(out_base + k * contrib[last], &var.data, in_off + k, 1)?;
                }
            }
            in_off += run;
            // Advance the odometer.
            let mut d = last;
            loop {
                if d == 0 {
                    debug_assert_eq!(in_off, total);
                    let mut result = Variable::new(var.name.clone(), out_shape, out)?;
                    result.attrs = var.attrs.clone();
                    carry_labels(var, remove, grow, &mut result);
                    return Ok(result);
                }
                d -= 1;
                idx[d] += 1;
                if idx[d] < sizes[d] {
                    break;
                }
                idx[d] = 0;
            }
        }
    }
    let mut result = Variable::new(var.name.clone(), out_shape, out)?;
    result.attrs = var.attrs.clone();
    carry_labels(var, remove, grow, &mut result);
    Ok(result)
}

/// Labels on dimensions other than `remove`/`grow` survive, with their dim
/// indices shifted past the removed dimension. Headers on the removed and
/// grown dims are dropped: their rows no longer exist as such.
fn carry_labels(var: &Variable, remove: usize, grow: usize, out: &mut Variable) {
    let mut labels = BTreeMap::new();
    for (&d, names) in &var.labels {
        if d == remove || d == grow {
            continue;
        }
        let nd = if d > remove { d - 1 } else { d };
        labels.insert(nd, names.clone());
    }
    out.labels = labels;
}

/// The Dim-Reduce workflow component.
#[derive(Debug, Clone)]
pub struct DimReduce {
    /// Input stream/array names.
    pub input: StreamArray,
    /// Dimension to remove.
    pub remove: usize,
    /// Dimension that absorbs the removed one.
    pub grow: usize,
    /// Output stream/array names.
    pub output: StreamArray,
}

impl DimReduce {
    /// Builds a Dim-Reduce absorbing dimension `remove` into `grow`.
    pub fn new<I: Into<StreamArray>, O: Into<StreamArray>>(
        input: I,
        remove: usize,
        grow: usize,
        output: O,
    ) -> DimReduce {
        DimReduce {
            input: input.into(),
            remove,
            grow,
            output: output.into(),
        }
    }
}

impl Component for DimReduce {
    fn label(&self) -> String {
        "dim-reduce".into()
    }

    fn output_streams(&self) -> Vec<String> {
        vec![self.output.stream.clone()]
    }

    fn signature(&self) -> crate::analysis::Signature {
        use crate::analysis::{
            unary_transfer, ArraySpec, DimSpec, PartitionRule, ReadSpec, Signature, SpecError,
        };
        use std::collections::BTreeMap;
        let (remove, grow) = (self.remove, self.grow);
        Signature::with_boxed_transfer(
            vec![ReadSpec::new(
                &self.input.stream,
                &self.input.array,
                PartitionRule::Along(remove),
            )],
            unary_transfer(
                self.input.array.clone(),
                self.output.array.clone(),
                move |spec| {
                    spec.check_dim(remove)?;
                    spec.check_dim(grow)?;
                    if remove == grow {
                        return Err(SpecError::InvalidAxes {
                            detail: format!("cannot fold dimension {remove} into itself"),
                        });
                    }
                    // Mirrors `reduced_shape`: the removed dimension's
                    // extent multiplies into the grown one.
                    let grown = DimSpec {
                        name: format!("{}*{}", spec.dims[remove].name, spec.dims[grow].name),
                        extent: spec.dims[remove].extent.times(spec.dims[grow].extent),
                    };
                    let mut dims = spec.dims.clone();
                    dims.remove(remove);
                    let grow_out = if remove < grow { grow - 1 } else { grow };
                    dims[grow_out] = grown;
                    let mut labels = BTreeMap::new();
                    for (&d, names) in &spec.labels {
                        if d == remove || d == grow {
                            continue;
                        }
                        let nd = if d > remove { d - 1 } else { d };
                        labels.insert(nd, names.clone());
                    }
                    let mut out = ArraySpec::new(dims, spec.dtype);
                    out.labels = labels;
                    Ok(out)
                },
            ),
        )
    }

    fn run(&self, comm: &Communicator, hub: &Arc<StreamHub>) -> ComponentResult {
        let (remove, grow) = (self.remove, self.grow);
        run_steps(self, comm, hub, |io| {
            let meta = io.meta(0, &self.input.array)?;
            // The partition runs along the removed dimension: each rank's
            // output then occupies a contiguous range of the grown one.
            let region = io.region(0).expect("the removed dimension exists");
            let var = io.inputs[0].get(&self.input.array, region)?;
            let bytes_in = var.byte_len() as u64;

            let kernel_start = Instant::now();
            let local = dim_reduce(&var, remove, grow)?;
            let compute = kernel_start.elapsed();

            let mut out_meta = io.out_meta(0, &self.output.array)?.clone();
            out_meta.attrs = meta.attrs.clone();
            let g = meta.shape.size(grow);
            let grow_out = if remove < grow { grow - 1 } else { grow };
            let mut out_offset = vec![0; out_meta.shape.ndims()];
            let mut out_counts = out_meta.shape.sizes();
            out_offset[grow_out] = region.offset()[remove] * g;
            out_counts[grow_out] = region.count()[remove] * g;
            let chunk = Chunk::new(out_meta, Region::new(out_offset, out_counts), local.data)?;
            io.put(0, chunk);
            Ok(StepEnd::Publish { bytes_in, compute })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn var3d() -> Variable {
        // 2 x 3 x 4, element = 100a + 10b + c.
        let mut data = Vec::new();
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..4 {
                    data.push((100 * a + 10 * b + c) as f64);
                }
            }
        }
        Variable::new(
            "t",
            Shape::of(&[("a", 2), ("b", 3), ("c", 4)]),
            Buffer::from(data),
        )
        .unwrap()
    }

    #[test]
    fn reduced_shape_drops_and_grows() {
        let (s, grow_out) = reduced_shape(&var3d().shape, 0, 1).unwrap();
        assert_eq!(s.sizes(), vec![6, 4]);
        assert_eq!(grow_out, 0);
        assert_eq!(s.dim_name(0), "a*b");

        let (s, grow_out) = reduced_shape(&var3d().shape, 2, 0).unwrap();
        assert_eq!(s.sizes(), vec![8, 3]);
        assert_eq!(grow_out, 0);
        assert!(reduced_shape(&var3d().shape, 1, 1).is_err());
        assert!(reduced_shape(&var3d().shape, 3, 0).is_err());
    }

    #[test]
    fn fast_path_is_identity_layout() {
        // remove=0 grows into dim 1 (adjacent): memory order is unchanged.
        let v = var3d();
        let out = dim_reduce(&v, 0, 1).unwrap();
        assert_eq!(out.shape.sizes(), vec![6, 4]);
        assert_eq!(out.data, v.data);
        // Element check: (a=1, b=2, c=3) -> grown index 1*3+2 = 5.
        assert_eq!(out.get(&[5, 3]), 123.0);
    }

    #[test]
    fn general_path_permutes_correctly() {
        // remove=2 (the last dim) into grow=0: new index over dim 0 is
        // c*2 + a; output shape (8, 3).
        let v = var3d();
        let out = dim_reduce(&v, 2, 0).unwrap();
        assert_eq!(out.shape.sizes(), vec![8, 3]);
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..4 {
                    let expect = (100 * a + 10 * b + c) as f64;
                    assert_eq!(out.get(&[c * 2 + a, b]), expect, "a={a} b={b} c={c}");
                }
            }
        }
    }

    #[test]
    fn remove_after_grow_permutes() {
        // remove=1 into grow=0: new dim-0 index = b*2 + a, shape (6, 4).
        let v = var3d();
        let out = dim_reduce(&v, 1, 0).unwrap();
        assert_eq!(out.shape.sizes(), vec![6, 4]);
        for a in 0..2 {
            for b in 0..3 {
                for c in 0..4 {
                    let expect = (100 * a + 10 * b + c) as f64;
                    assert_eq!(out.get(&[b * 2 + a, c]), expect);
                }
            }
        }
    }

    #[test]
    fn reduction_is_a_permutation() {
        let v = var3d();
        for (remove, grow) in [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)] {
            let out = dim_reduce(&v, remove, grow).unwrap();
            assert_eq!(out.data.len(), v.data.len(), "size preserved");
            let mut a = v.data.to_f64_vec();
            let mut b = out.data.to_f64_vec();
            a.sort_by(f64::total_cmp);
            b.sort_by(f64::total_cmp);
            assert_eq!(a, b, "multiset preserved for ({remove},{grow})");
        }
    }

    #[test]
    fn gtcp_two_stage_flattening() {
        // The paper's GTCP flow: [T, G, 1] --(remove 2, grow 1)--> [T, G]
        // --(remove 0, grow 1)--> [T*G], ending in slice-major order.
        let mut data = Vec::new();
        for t in 0..3 {
            for g in 0..4 {
                data.push((10 * t + g) as f64);
            }
        }
        let v = Variable::new(
            "p",
            Shape::of(&[("toroidal", 3), ("grid", 4), ("prop", 1)]),
            Buffer::from(data.clone()),
        )
        .unwrap();
        let stage1 = dim_reduce(&v, 2, 1).unwrap();
        assert_eq!(stage1.shape.sizes(), vec![3, 4]);
        let stage2 = dim_reduce(&stage1, 0, 1).unwrap();
        assert_eq!(stage2.shape.sizes(), vec![12]);
        assert_eq!(stage2.data.to_f64_vec(), data);
    }

    #[test]
    fn labels_survive_on_untouched_dims() {
        let v = var3d()
            .with_labels(1, &["p", "q", "r"])
            .unwrap()
            .with_labels(2, &["w", "x", "y", "z"])
            .unwrap();
        // Remove dim 2 into dim 0: dim-1 labels survive at index 1 after
        // the removal shift (dim 1 < remove 2 keeps its index... the
        // removed dim is 2, so dim 1 stays dim 1); dim-2 labels vanish.
        let out = dim_reduce(&v, 2, 0).unwrap();
        assert_eq!(out.header(1).unwrap().len(), 3);
        assert!(out.header(0).is_none());

        // Remove dim 0 into dim 2: dim-1 labels shift to dim 0.
        let out = dim_reduce(&v, 0, 2).unwrap();
        assert_eq!(
            out.header(0).unwrap(),
            &["p".to_string(), "q".into(), "r".into()]
        );
    }

    #[test]
    fn empty_input_round_trips() {
        let v = Variable::new("e", Shape::of(&[("a", 0), ("b", 3)]), Buffer::F64(vec![])).unwrap();
        let out = dim_reduce(&v, 0, 1).unwrap();
        assert_eq!(out.shape.sizes(), vec![0]);
        assert!(out.data.is_empty());
    }
}
