//! Even block decompositions.
//!
//! Every SmartBlock component, on every timestep, splits the incoming global
//! array "so that each process receives an approximately equal amount of
//! data" (paper §IV). The canonical strategy splits the slowest-varying
//! dimension into contiguous blocks whose sizes differ by at most one; a
//! multi-dimensional variant is provided for the ablation benches.

use crate::dims::Shape;
use crate::region::Region;

/// Splits `0..len` into `nparts` contiguous `(offset, count)` ranges whose
/// lengths differ by at most one. Parts beyond `len` are empty.
///
/// ```
/// use sb_data::decompose::split_1d;
/// assert_eq!(split_1d(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
/// ```
pub fn split_1d(len: usize, nparts: usize) -> Vec<(usize, usize)> {
    assert!(nparts > 0, "cannot split into zero parts");
    let base = len / nparts;
    let extra = len % nparts;
    let mut out = Vec::with_capacity(nparts);
    let mut off = 0;
    for p in 0..nparts {
        let count = base + usize::from(p < extra);
        out.push((off, count));
        off += count;
    }
    out
}

/// The `(offset, count)` range of part `part` of [`split_1d`], without
/// materializing the whole vector — what a rank calls for itself.
pub fn split_1d_part(len: usize, nparts: usize, part: usize) -> (usize, usize) {
    assert!(part < nparts, "part index out of range");
    let base = len / nparts;
    let extra = len % nparts;
    let count = base + usize::from(part < extra);
    let off = part * base + part.min(extra);
    (off, count)
}

/// Block decomposition of `shape` along dimension `dim` into `nparts`
/// regions covering the whole array disjointly.
pub fn decompose_along(shape: &Shape, dim: usize, nparts: usize) -> Vec<Region> {
    assert!(dim < shape.ndims(), "decomposition dim out of range");
    split_1d(shape.size(dim), nparts)
        .into_iter()
        .map(|(off, count)| {
            let mut offset = vec![0; shape.ndims()];
            let mut counts = shape.sizes();
            offset[dim] = off;
            counts[dim] = count;
            Region::new(offset, counts)
        })
        .collect()
}

/// The slab of `shape` that `part` of `nparts` receives when splitting
/// along `dim` only: every other dimension is taken whole. This is the box
/// each rank of a transform component reads per step.
pub fn slab_partition(shape: &Shape, dim: usize, nparts: usize, part: usize) -> Region {
    assert!(dim < shape.ndims(), "slab dimension out of range");
    let (off, count) = split_1d_part(shape.size(dim), nparts, part);
    let mut offset = vec![0; shape.ndims()];
    let mut counts = shape.sizes();
    offset[dim] = off;
    counts[dim] = count;
    Region::new(offset, counts)
}

/// A near-square multi-dimensional decomposition: factors `nparts` across
/// the dimensions (greedily, largest dimension first) and produces the
/// resulting grid of blocks. Used by the decomposition ablation bench.
pub fn decompose_grid(shape: &Shape, nparts: usize) -> Vec<Region> {
    assert!(nparts > 0, "cannot split into zero parts");
    let ndims = shape.ndims();
    if ndims == 0 {
        return vec![Region::new(vec![], vec![])];
    }
    // Factor nparts into per-dimension part counts, assigning prime factors
    // to the currently "longest per part" dimension.
    let mut parts = vec![1usize; ndims];
    let mut remaining = nparts;
    let mut factor = 2;
    let mut factors = Vec::new();
    while remaining > 1 {
        while remaining.is_multiple_of(factor) {
            factors.push(factor);
            remaining /= factor;
        }
        factor += 1;
        if factor * factor > remaining && remaining > 1 {
            factors.push(remaining);
            break;
        }
    }
    factors.sort_unstable_by(|a, b| b.cmp(a));
    for f in factors {
        let (best, _) = parts
            .iter()
            .enumerate()
            .max_by(|(i, &pa), (j, &pb)| {
                let la = shape.size(*i) as f64 / pa as f64;
                let lb = shape.size(*j) as f64 / pb as f64;
                la.partial_cmp(&lb).expect("finite")
            })
            .expect("non-empty shape");
        parts[best] *= f;
    }

    // Cartesian product of per-dimension 1-d splits.
    let splits: Vec<Vec<(usize, usize)>> = (0..ndims)
        .map(|d| split_1d(shape.size(d), parts[d]))
        .collect();
    let mut regions = Vec::with_capacity(nparts);
    let mut idx = vec![0usize; ndims];
    loop {
        let mut offset = Vec::with_capacity(ndims);
        let mut count = Vec::with_capacity(ndims);
        for d in 0..ndims {
            let (o, c) = splits[d][idx[d]];
            offset.push(o);
            count.push(c);
        }
        regions.push(Region::new(offset, count));
        let mut d = ndims;
        loop {
            if d == 0 {
                return regions;
            }
            d -= 1;
            idx[d] += 1;
            if idx[d] < parts[d] {
                break;
            }
            idx[d] = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_1d_balanced() {
        assert_eq!(split_1d(10, 3), vec![(0, 4), (4, 3), (7, 3)]);
        assert_eq!(split_1d(3, 5), vec![(0, 1), (1, 1), (2, 1), (3, 0), (3, 0)]);
        assert_eq!(split_1d(0, 2), vec![(0, 0), (0, 0)]);
    }

    #[test]
    fn split_1d_part_agrees_with_split_1d() {
        for len in [0usize, 1, 7, 100, 101] {
            for nparts in 1..10 {
                let full = split_1d(len, nparts);
                for (p, &expect) in full.iter().enumerate() {
                    assert_eq!(
                        split_1d_part(len, nparts, p),
                        expect,
                        "len={len} n={nparts} p={p}"
                    );
                }
            }
        }
    }

    #[test]
    fn decompose_along_tiles_disjointly() {
        let shape = Shape::of(&[("a", 7), ("b", 4)]);
        let regions = decompose_along(&shape, 0, 3);
        assert_eq!(regions.len(), 3);
        let total: usize = regions.iter().map(|r| r.len()).sum();
        assert_eq!(total, shape.total_len());
        for i in 0..regions.len() {
            for j in i + 1..regions.len() {
                assert!(regions[i].intersect(&regions[j]).is_none());
            }
        }
    }

    #[test]
    fn slab_partition_covers_first_dim() {
        let shape = Shape::of(&[("particles", 10), ("props", 5)]);
        let r0 = slab_partition(&shape, 0, 4, 0);
        assert_eq!(r0.offset(), &[0, 0]);
        assert_eq!(r0.count(), &[3, 5]);
        let r3 = slab_partition(&shape, 0, 4, 3);
        assert_eq!(r3.offset(), &[8, 0]);
        assert_eq!(r3.count(), &[2, 5]);
    }

    #[test]
    fn grid_decomposition_tiles_exactly() {
        for nparts in [1usize, 2, 3, 4, 6, 8, 12] {
            let shape = Shape::of(&[("x", 12), ("y", 9)]);
            let regions = decompose_grid(&shape, nparts);
            assert_eq!(regions.len(), nparts, "nparts={nparts}");
            let total: usize = regions.iter().map(|r| r.len()).sum();
            assert_eq!(total, shape.total_len(), "nparts={nparts}");
            for i in 0..regions.len() {
                for j in i + 1..regions.len() {
                    assert!(
                        regions[i].intersect(&regions[j]).is_none(),
                        "nparts={nparts}: {} overlaps {}",
                        regions[i],
                        regions[j]
                    );
                }
            }
        }
    }

    #[test]
    fn grid_decomposition_prefers_long_dims() {
        let shape = Shape::of(&[("long", 100), ("short", 2)]);
        let regions = decompose_grid(&shape, 4);
        // All four parts should split the long dimension, not the short one.
        for r in &regions {
            assert_eq!(r.count()[1], 2, "short dim left whole: {r}");
        }
    }
}
