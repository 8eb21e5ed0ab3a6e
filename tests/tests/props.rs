//! Property tests over the core data structures and kernels: decomposition
//! tiling, region-copy identity, the Select and Dim-Reduce mapping laws,
//! histogram conservation, container round-trips, and collective algebra.
//!
//! Each property is exercised over a deterministic sweep of generated
//! cases (shapes and subsets derived from a seeded LCG), so the
//! suite needs no property-testing dependency and every failure is
//! reproducible from the case index alone.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sb_data::decompose::{decompose_along, decompose_grid, split_1d, split_1d_part};
use sb_data::region::copy_region;
use sb_data::{Buffer, DType, Region, Shape, Variable};
use smartblock::dim_reduce::dim_reduce;
use smartblock::histogram::{bin_counts, finite_min_max};
use smartblock::magnitude::vector_magnitudes;
use smartblock::select::select_rows;
use smartblock::temporal::MovingMean;

/// A small deterministic generator for case derivation.
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }

    /// A value in `0..n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        self.next() as usize % n
    }

    /// A float in `[lo, hi)`.
    fn float(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (self.next() as f64 / (1u64 << 31) as f64) * (hi - lo)
    }
}

/// A deterministic sweep of small shapes: 1..=4 dims with extents 1..=6,
/// seeded per case index. Mirrors the old proptest strategy's domain.
fn case_shapes(cases: usize) -> Vec<Shape> {
    (0..cases)
        .map(|case| {
            let mut rng = Lcg(0x5EED ^ (case as u64) << 13);
            let ndims = rng.below(4) + 1;
            Shape::new(
                (0..ndims)
                    .map(|i| sb_data::Dim::new(format!("d{i}"), rng.below(6) + 1))
                    .collect(),
            )
        })
        .collect()
}

/// A variable over `shape` whose element at linear index `i` is `i`.
fn indexed_variable(shape: &Shape) -> Variable {
    let data: Vec<f64> = (0..shape.total_len()).map(|i| i as f64).collect();
    Variable::new("v", shape.clone(), Buffer::from(data)).unwrap()
}

#[test]
fn split_1d_tiles_and_balances() {
    for len in [0usize, 1, 2, 7, 64, 99, 250, 499] {
        for nparts in 1usize..20 {
            let parts = split_1d(len, nparts);
            assert_eq!(parts.len(), nparts);
            // Contiguous coverage.
            let mut expect_off = 0;
            for &(off, count) in &parts {
                assert_eq!(off, expect_off, "len={len} nparts={nparts}");
                expect_off += count;
            }
            assert_eq!(expect_off, len);
            // Balance: sizes differ by at most one.
            let max = parts.iter().map(|p| p.1).max().unwrap();
            let min = parts.iter().map(|p| p.1).min().unwrap();
            assert!(max - min <= 1, "len={len} nparts={nparts}");
            // Indexed accessor agrees.
            for (p, &pair) in parts.iter().enumerate() {
                assert_eq!(split_1d_part(len, nparts, p), pair);
            }
        }
    }
}

#[test]
fn decompositions_tile_disjointly() {
    for (case, shape) in case_shapes(32).iter().enumerate() {
        for nparts in 1usize..8 {
            for which in 0..2 {
                let regions = if which == 0 {
                    decompose_along(shape, 0, nparts)
                } else {
                    decompose_grid(shape, nparts)
                };
                let total: usize = regions.iter().map(|r| r.len()).sum();
                assert_eq!(total, shape.total_len(), "case {case} nparts {nparts}");
                for r in &regions {
                    assert!(r.validate(shape).is_ok());
                }
                for i in 0..regions.len() {
                    for j in i + 1..regions.len() {
                        assert!(
                            regions[i].intersect(&regions[j]).is_none(),
                            "case {case}: regions {i} and {j} overlap"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn scatter_then_gather_is_identity() {
    for shape in case_shapes(32) {
        for nparts in 1usize..6 {
            // Decompose a tagged array into writer chunks, reassemble
            // through copy_region (the MxN primitive), and require exact
            // identity.
            let source = indexed_variable(&shape);
            let whole = Region::whole(&shape);
            let regions = decompose_along(&shape, 0, nparts);
            let mut rebuilt = Buffer::zeros(DType::F64, shape.total_len());
            for region in &regions {
                if region.is_empty() {
                    continue;
                }
                // Writer-side: extract the local chunk.
                let local = source.extract(region).unwrap();
                // Reader-side: copy it into the assembled whole.
                copy_region(&local.data, region, &mut rebuilt, &whole, region).unwrap();
            }
            assert_eq!(rebuilt, source.data, "{shape} nparts {nparts}");
        }
    }
}

#[test]
fn arbitrary_boxes_reassemble() {
    // A reader bounding box never depends on how writers chunked the data:
    // chunk along dim 0, then read a derived box and compare with a direct
    // extract.
    for (case, shape) in case_shapes(48).iter().enumerate() {
        let seed = case as u64 * 37 + 5;
        let source = indexed_variable(shape);
        let nparts = (seed as usize % 4) + 1;
        let regions = decompose_along(shape, 0, nparts);

        // Derived box from the seed.
        let mut rng = Lcg(seed);
        let mut offset = Vec::new();
        let mut count = Vec::new();
        for d in 0..shape.ndims() {
            let size = shape.size(d);
            let off = rng.below(size);
            let cnt = rng.below(size - off) + 1;
            offset.push(off);
            count.push(cnt);
        }
        let want = Region::new(offset, count);

        let mut assembled = Buffer::zeros(DType::F64, want.len());
        let mut covered = 0;
        for region in &regions {
            if let Some(overlap) = region.intersect(&want) {
                let local = source.extract(region).unwrap();
                copy_region(&local.data, region, &mut assembled, &want, &overlap).unwrap();
                covered += overlap.len();
            }
        }
        assert_eq!(covered, want.len(), "case {case}");
        let direct = source.extract(&want).unwrap();
        assert_eq!(assembled, direct.data, "case {case}");
    }
}

#[test]
fn select_matches_naive_gather() {
    for (case, shape) in case_shapes(48).iter().enumerate() {
        let mut rng = Lcg(case as u64 ^ 0xC0FFEE);
        let dim = rng.below(shape.ndims());
        let d = shape.size(dim);
        // Pick a pseudo-random subset (with order, repeats allowed) of rows.
        let indices: Vec<usize> = (0..rng.below(d) + 1).map(|_| rng.below(d)).collect();
        let var = indexed_variable(shape);
        let out = select_rows(&var, dim, &indices).unwrap();
        assert_eq!(out.shape.size(dim), indices.len());
        // Naive elementwise check.
        for lin in 0..out.shape.total_len() {
            let mut idx = out.shape.multi_index(lin);
            idx[dim] = indices[idx[dim]];
            assert_eq!(out.data.get_f64(lin), var.get(&idx), "case {case}");
        }
    }
}

/// A value in `0..n` (`n > 0`) from the `rand` shim's stream.
fn below(rng: &mut StdRng, n: usize) -> usize {
    (rng.next_u64() % n as u64) as usize
}

/// `SB_CHAOS_SEED` if it is set to a number, else `default`.
fn chaos_seed(default: u64) -> u64 {
    std::env::var("SB_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

/// `len` distinct-ish elements of every dtype, as buffers.
fn buffers_of_every_dtype(len: usize) -> Vec<Buffer> {
    vec![
        Buffer::F32((0..len).map(|i| i as f32 * 0.5 - 3.0).collect()),
        Buffer::F64((0..len).map(|i| i as f64 * 0.25 - 7.0).collect()),
        Buffer::I32((0..len).map(|i| i as i32 - 11).collect()),
        Buffer::I64((0..len).map(|i| (i as i64 - 5) << 33).collect()),
        Buffer::U32((0..len).map(|i| i as u32 * 3).collect()),
        Buffer::U64((0..len).map(|i| (i as u64) << 40 | 1).collect()),
    ]
}

/// The gather as it is defined: output element `[p][k][q]` is input element
/// `[p][indices[k]][q]`, one element at a time.
fn gather_per_element(
    src: &Buffer,
    pre: usize,
    d: usize,
    post: usize,
    indices: &[usize],
) -> Buffer {
    let picks = (0..pre).flat_map(|p| {
        indices
            .iter()
            .flat_map(move |&i| (0..post).map(move |q| (p * d + i) * post + q))
    });
    macro_rules! pick {
        ($v:expr, $variant:ident) => {
            Buffer::$variant(picks.map(|at| $v[at]).collect())
        };
    }
    match src {
        Buffer::F32(v) => pick!(v, F32),
        Buffer::F64(v) => pick!(v, F64),
        Buffer::I32(v) => pick!(v, I32),
        Buffer::I64(v) => pick!(v, I64),
        Buffer::U32(v) => pick!(v, U32),
        Buffer::U64(v) => pick!(v, U64),
    }
}

/// Index lists over `0..d`: none, all (every row kept in order, one copy),
/// every proper contiguous sub-run `[a, a + k)` (Select's vx..vz shape),
/// reversed (all singletons unless `d < 2`), duplicates, and seeded mixes
/// of runs and singletons.
fn index_lists(rng: &mut StdRng, d: usize) -> Vec<Vec<usize>> {
    let mut lists = vec![Vec::new()];
    if d == 0 {
        return lists;
    }
    lists.push((0..d).collect());
    for a in 0..d {
        for end in a + 1..=d {
            if end - a < d {
                lists.push((a..end).collect());
            }
        }
    }
    lists.push((0..d).rev().collect());
    lists.push(vec![d - 1, d - 1, 0, 0, d / 2, d / 2]);
    for _ in 0..3 {
        let k = below(rng, 2 * d) + 1;
        lists.push(seeded_indices(rng, d, k));
    }
    lists
}

/// `k` seeded indices over `0..d` (`d > 0`): mostly a step to the adjacent
/// row (extending a run), sometimes a jump (ending it), repeats included.
fn seeded_indices(rng: &mut StdRng, d: usize, k: usize) -> Vec<usize> {
    let mut list = Vec::with_capacity(k);
    let mut at = below(rng, d);
    for _ in 0..k {
        list.push(at);
        at = if at + 1 < d && below(rng, 3) > 0 {
            at + 1
        } else {
            below(rng, d)
        };
    }
    list
}

/// `len` elements of `dtype` whose every byte is `0xA5`: what a gather
/// must leave no trace of.
fn sentinel(dtype: DType, len: usize) -> Buffer {
    Buffer::from_le_bytes(dtype, len, &vec![0xA5; len * dtype.elem_bytes()]).unwrap()
}

/// Storage a gather of `len` elements of `dtype` may be handed: none, the
/// wrong dtype, too short, too long, and exactly long enough, each but the
/// first filled with [`sentinel`] bytes.
fn storage_cases(dtype: DType, len: usize) -> [(&'static str, Option<Buffer>); 5] {
    let other = if dtype == DType::F32 {
        DType::U64
    } else {
        DType::F32
    };
    [
        ("no storage", None),
        ("another dtype", Some(sentinel(other, len))),
        ("shorter", Some(sentinel(dtype, len / 2))),
        ("longer", Some(sentinel(dtype, len + 7))),
        ("same length", Some(sentinel(dtype, len))),
    ]
}

/// Every gather agrees with the per-element definition, and writes the
/// same bytes into any storage it is handed: over shapes of up to four
/// dimensions (zero extents included) with the lists of [`index_lists`],
/// then over seeded selections whose gathered row (`indices.len() * post`
/// elements) is each width from 1 to 12, so that whole-buffer copies, rows
/// built from an offset table (at most 8 wide) and rows copied run by run
/// all show. `SB_CHAOS_SEED` reseeds the sweep.
#[test]
fn gather_dim_matches_a_per_element_gather() {
    let mut rng = StdRng::seed_from_u64(chaos_seed(0x6A7E));
    let mut cases = 0;
    let mut check = |pre: usize, d: usize, post: usize, indices: &[usize], what: &str| {
        for src in buffers_of_every_dtype(pre * d * post) {
            let fresh = src.gather_dim(pre, d, post, indices);
            let what = format!(
                "{what}: {:?} of [{pre}][{d}][{post}] rows {indices:?}",
                src.dtype()
            );
            assert_eq!(
                fresh,
                gather_per_element(&src, pre, d, post, indices),
                "{what}"
            );
            for (storage, handed) in storage_cases(src.dtype(), fresh.len()) {
                let into = src.gather_dim_into(pre, d, post, indices, handed);
                assert_eq!(into.dtype(), fresh.dtype(), "{what}, {storage}");
                assert_eq!(into.to_le_bytes(), fresh.to_le_bytes(), "{what}, {storage}");
            }
            cases += 1;
        }
    };
    for case in 0..96 {
        let ndims = case % 4 + 1;
        // Zero extents included: an empty dimension before, at, or after
        // the gathered one.
        let extents: Vec<usize> = (0..ndims)
            .map(|_| [0, 1, 2, 3, 5][below(&mut rng, 5)])
            .collect();
        for dim in 0..ndims {
            let pre: usize = extents[..dim].iter().product();
            let post: usize = extents[dim + 1..].iter().product();
            for indices in index_lists(&mut rng, extents[dim]) {
                let what = format!("case {case}: {extents:?} dim {dim}");
                check(pre, extents[dim], post, &indices, &what);
            }
        }
    }
    for width in 1..=12usize {
        for draw in 0..8 {
            let posts: Vec<usize> = (1..=width.min(9)).filter(|p| width % p == 0).collect();
            let post = posts[below(&mut rng, posts.len())];
            let d = below(&mut rng, 9) + 1;
            let pre = below(&mut rng, 4);
            let indices = seeded_indices(&mut rng, d, width / post);
            check(
                pre,
                d,
                post,
                &indices,
                &format!("width {width} draw {draw}"),
            );
        }
    }
    assert!(cases > 4000, "{cases} cases");
}

#[test]
fn magnitudes_are_the_sequential_sum_of_squares_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0x3A6);
    for width in 0..=9usize {
        for rows in [0usize, 1, 2, 7, 33] {
            let values: Vec<f64> = (0..rows * width)
                .map(|_| match below(&mut rng, 12) {
                    0 => -0.0,
                    1 => 1e-170, // its square underflows
                    _ => rng.gen_range(-1e3..1e3),
                })
                .collect();
            for dtype in [
                DType::F32,
                DType::F64,
                DType::I32,
                DType::I64,
                DType::U32,
                DType::U64,
            ] {
                let data = Buffer::from_f64_vec(dtype, values.clone());
                let var = Variable::new(
                    "v",
                    Shape::of(&[("points", rows), ("components", width)]),
                    data,
                )
                .unwrap();
                let expected: Vec<f64> = (0..rows)
                    .map(|r| {
                        let mut acc = 0.0;
                        for c in 0..width {
                            let x = var.data.get_f64(r * width + c);
                            acc += x * x;
                        }
                        acc.sqrt()
                    })
                    .collect();
                let got = vector_magnitudes(&var).unwrap();
                assert_eq!(
                    got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    expected.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                    "{dtype:?}, {rows} x {width}"
                );
            }
        }
    }
}

/// The fold `finite_min_max` documents: strict compares, so a tie (only
/// `+0.0` against `-0.0` can tie without being the same bits) keeps the
/// earlier element.
fn sequential_finite_min_max(values: &[f64]) -> (f64, f64) {
    values
        .iter()
        .filter(|v| v.is_finite())
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
            (if v < a { v } else { a }, if v > b { v } else { b })
        })
}

#[test]
fn finite_min_max_is_the_sequential_fold_bit_for_bit() {
    let mut rng = StdRng::seed_from_u64(0xF01D);
    let specials = [
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        0.0,
        -0.0,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
    ];
    let check = |values: &[f64]| {
        let (min, max) = finite_min_max(values);
        let (smin, smax) = sequential_finite_min_max(values);
        assert_eq!(
            (min.to_bits(), max.to_bits()),
            (smin.to_bits(), smax.to_bits()),
            "{values:?}: ({min:?}, {max:?}) vs ({smin:?}, {smax:?})"
        );
        // The benchmark's reference fold uses `f64::min`/`f64::max`, which
        // leave the sign of a zero tie open; the values must still agree.
        let finite = values.iter().filter(|v| v.is_finite());
        let by_method = finite.fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
            (a.min(v), b.max(v))
        });
        assert_eq!((min, max), by_method, "{values:?}");
    };
    check(&[]);
    assert_eq!(
        finite_min_max(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]),
        (f64::INFINITY, f64::NEG_INFINITY)
    );
    // The pinned tie rule: a zero extreme has the sign of the first zero.
    assert_eq!(
        finite_min_max(&[5.0, -0.0, 0.0, 7.0]).0.to_bits(),
        (-0.0f64).to_bits()
    );
    assert_eq!(
        finite_min_max(&[-5.0, 0.0, -0.0, -7.0, -0.0]).1.to_bits(),
        0.0f64.to_bits()
    );
    // Lengths on both sides of every lane boundary, three value mixes.
    let zeros_and_few = [0.0, -0.0, 1.5, -2.5];
    for len in (0..=18).chain([63, 64, 65, 1000]) {
        for mix in 0..3 {
            for _ in 0..8 {
                let values: Vec<f64> = (0..len)
                    .map(|_| match mix {
                        0 => rng.gen_range(-10.0..10.0),
                        1 => zeros_and_few[below(&mut rng, zeros_and_few.len())],
                        _ => specials[below(&mut rng, specials.len())],
                    })
                    .collect();
                check(&values);
                // All on one side of zero with the zeros' signs kept, so
                // that zeros of both signs tie for the extreme.
                let flip = |up: bool| -> Vec<f64> {
                    let wrong_side = |v: f64| if up { v < 0.0 } else { v > 0.0 };
                    let flipped = values.iter().map(|&v| if wrong_side(v) { -v } else { v });
                    flipped.collect()
                };
                check(&flip(true));
                check(&flip(false));
            }
        }
    }
}

/// `bin_counts` with one counter array and a branch per value — the loop
/// the sub-histograms replaced.
fn bin_counts_one_counter(values: &[f64], min: f64, max: f64, nbins: usize) -> (Vec<u64>, u64) {
    let mut counts = vec![0u64; nbins];
    let mut nan_count = 0;
    let width = max - min;
    let scale = nbins as f64 / width;
    for &v in values {
        if !v.is_finite() {
            nan_count += 1;
        } else if width.is_nan() || width <= 0.0 {
            counts[0] += 1;
        } else {
            counts[(((v - min) * scale) as usize).min(nbins - 1)] += 1;
        }
    }
    (counts, nan_count)
}

#[test]
fn bin_counts_match_a_one_counter_histogram() {
    let mut rng = StdRng::seed_from_u64(0xB145);
    for len in [0usize, 1, 3, 4, 5, 257, 4099] {
        let uniform: Vec<f64> = (0..len).map(|_| rng.gen_range(-3.0..9.0)).collect();
        // Nearly everything in the lowest bin, a few values far out, and
        // the odd non-finite one.
        let skewed: Vec<f64> = uniform
            .iter()
            .map(|v| match below(&mut rng, 50) {
                0 => v * 1e6,
                1 => [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][below(&mut rng, 3)],
                _ => v * 1e-6,
            })
            .collect();
        let all_equal = vec![2.5; len];
        let all_nan = vec![f64::NAN; len];
        for values in [&uniform, &skewed, &all_equal, &all_nan] {
            let finite = values.iter().filter(|v| v.is_finite()).count() as u64;
            let (min, max) = finite_min_max(values);
            // The data's own range, then ranges it spills out of on either
            // side (values below `min` go to bin 0, above `max` to the last).
            for (lo, hi) in [
                (min, max),
                (0.0, 1.0),
                (-1e-3, 1e-3),
                (5.0, 5.0),
                (2.0, -2.0),
            ] {
                for nbins in [1usize, 2, 32, 33, 1000] {
                    let (counts, nan) = bin_counts(values, lo, hi, nbins);
                    assert_eq!(
                        (&counts, nan),
                        (
                            &bin_counts_one_counter(values, lo, hi, nbins).0,
                            values.len() as u64 - finite
                        ),
                        "{} values over [{lo}, {hi}] in {nbins} bins",
                        values.len()
                    );
                    assert_eq!(counts.iter().sum::<u64>(), finite);
                }
            }
        }
    }
}

#[test]
fn dim_reduce_obeys_the_mapping_law() {
    for (case, shape) in case_shapes(64).iter().enumerate() {
        if shape.ndims() < 2 {
            continue;
        }
        let ndims = shape.ndims();
        let rg = case;
        let remove = rg % ndims;
        let grow = (remove + 1 + (rg / ndims) % (ndims - 1)) % ndims;
        if remove == grow {
            continue;
        }
        let var = indexed_variable(shape);
        let out = dim_reduce(&var, remove, grow).unwrap();
        assert_eq!(out.data.len(), var.data.len());
        let g = shape.size(grow);
        let grow_out = if remove < grow { grow - 1 } else { grow };
        // Check the law: element at input idx lands at output idx with the
        // removed index folded into the grown one.
        for lin in 0..shape.total_len() {
            let idx = shape.multi_index(lin);
            let mut out_idx: Vec<usize> = idx
                .iter()
                .enumerate()
                .filter(|(d, _)| *d != remove)
                .map(|(_, &v)| v)
                .collect();
            out_idx[grow_out] = idx[remove] * g + idx[grow];
            assert_eq!(out.get(&out_idx), lin as f64, "case {case}");
        }
    }
}

#[test]
fn moving_mean_equals_naive_window_average() {
    for case in 0..24u64 {
        let mut rng = Lcg(case * 131 + 7);
        let steps: Vec<f64> = (0..rng.below(19) + 1)
            .map(|_| rng.float(-100.0, 100.0))
            .collect();
        let window = rng.below(5) + 1;
        let mut m = MovingMean::new(window);
        for (i, &v) in steps.iter().enumerate() {
            let got = m.push(vec![v]).unwrap();
            let lo = i.saturating_sub(window - 1);
            let expect: f64 = steps[lo..=i].iter().sum::<f64>() / (i - lo + 1) as f64;
            assert!((got[0] - expect).abs() < 1e-9, "case {case} step {i}");
        }
    }
}

#[test]
fn histogram_conserves_count_and_respects_edges() {
    for case in 0..32u64 {
        let mut rng = Lcg(case ^ 0xB1A5);
        let values: Vec<f64> = (0..rng.below(200)).map(|_| rng.float(-1e6, 1e6)).collect();
        let nbins = rng.below(31) + 1;
        let (min, max) = values
            .iter()
            .fold((f64::INFINITY, f64::NEG_INFINITY), |(a, b), &v| {
                (a.min(v), b.max(v))
            });
        if values.is_empty() {
            continue;
        }
        let (counts, _) = bin_counts(&values, min, max, nbins);
        assert_eq!(
            counts.iter().sum::<u64>(),
            values.len() as u64,
            "case {case}"
        );
        // Naive binning agrees.
        let width = (max - min) / nbins as f64;
        if width > 0.0 {
            let mut naive = vec![0u64; nbins];
            for &v in &values {
                let mut b = ((v - min) / width) as usize;
                if b >= nbins {
                    b = nbins - 1;
                }
                naive[b] += 1;
            }
            assert_eq!(counts, naive, "case {case}");
        }
    }
}

#[test]
fn container_round_trips_random_variables() {
    let dtypes = [
        DType::F32,
        DType::F64,
        DType::I32,
        DType::I64,
        DType::U32,
        DType::U64,
    ];
    for (case, shape) in case_shapes(24).iter().enumerate() {
        let dtype = dtypes[case % dtypes.len()];
        let step = case as u64 * 41;
        let values: Vec<f64> = (0..shape.total_len()).map(|i| (i as f64) - 3.0).collect();
        let mut var =
            Variable::new("v", shape.clone(), Buffer::from_f64_vec(dtype, values)).unwrap();
        var.set_labels(0, (0..shape.size(0)).map(|i| format!("q{i}")).collect())
            .unwrap();
        var.attrs
            .insert("s".into(), sb_data::AttrValue::Int(step as i64));

        let mut w = sb_data::container::ContainerWriter::new(Vec::new()).unwrap();
        w.write_step(step, &[var.clone()]).unwrap();
        let bytes = w.finish().unwrap();
        let mut r = sb_data::container::ContainerReader::new(std::io::Cursor::new(bytes)).unwrap();
        let (got_step, vars) = r.next_step().unwrap().unwrap();
        assert_eq!(got_step, step);
        assert_eq!(&vars[0], &var, "case {case}");
        assert!(r.next_step().unwrap().is_none());
    }
}

/// An arbitrary chunk derived from the case index: random shape, dtype,
/// sub-box region, dimension labels, attributes — and NaN/negative-zero
/// payload values on float dtypes, the bit patterns `PartialEq` hides.
fn arbitrary_chunk(case: usize, shape: &Shape) -> sb_data::Chunk {
    let dtypes = [
        DType::F32,
        DType::F64,
        DType::I32,
        DType::I64,
        DType::U32,
        DType::U64,
    ];
    let mut rng = Lcg(case as u64 ^ 0x77AE5);
    let dtype = dtypes[rng.below(dtypes.len())];
    let mut meta = sb_data::VariableMeta::new("v", shape.clone(), dtype);
    let label_dim = rng.below(shape.ndims());
    meta.labels.insert(
        label_dim,
        (0..shape.size(label_dim))
            .map(|i| format!("q{i}"))
            .collect(),
    );
    meta.attrs
        .insert("step".into(), sb_data::AttrValue::Int(case as i64));
    meta.attrs
        .insert("dt".into(), sb_data::AttrValue::Float(0.005));
    meta.attrs
        .insert("units".into(), sb_data::AttrValue::Text("lj".into()));

    let mut offset = Vec::new();
    let mut count = Vec::new();
    for d in 0..shape.ndims() {
        let size = shape.size(d);
        let off = rng.below(size);
        offset.push(off);
        count.push(rng.below(size - off) + 1);
    }
    let region = Region::new(offset, count);
    let values: Vec<f64> = (0..region.len())
        .map(|i| match (dtype, i % 5) {
            (DType::F32 | DType::F64, 0) => f64::NAN,
            (DType::F32 | DType::F64, 1) => -0.0,
            _ => i as f64 - 2.0,
        })
        .collect();
    sb_data::Chunk::new(meta, region, Buffer::from_f64_vec(dtype, values)).unwrap()
}

/// The TCP transport's wire frame codec round-trips arbitrary chunks
/// bit-exactly: shapes of every rank, all dtypes, labels, attributes, and
/// float payloads containing NaN and negative zero.
#[test]
fn wire_codec_round_trips_arbitrary_chunks() {
    for (case, shape) in case_shapes(64).iter().enumerate() {
        let chunk = arbitrary_chunk(case, shape);
        let mut buf = Vec::new();
        sb_data::wire::encode_chunk(&mut buf, &chunk).unwrap();
        let mut slice: &[u8] = &buf;
        let back = sb_data::wire::decode_chunk(&mut slice).unwrap();
        assert!(slice.is_empty(), "case {case}: trailing bytes");
        assert_eq!(back.meta, chunk.meta, "case {case}");
        assert_eq!(back.region, chunk.region, "case {case}");
        // NaN payloads make PartialEq useless; require raw-byte identity.
        assert_eq!(
            back.data.to_le_bytes(),
            chunk.data.to_le_bytes(),
            "case {case}"
        );
    }
}

/// Truncating an encoded frame at *any* byte yields a typed `DataError`,
/// never a panic — the broker feeds untrusted sockets into this decoder.
#[test]
fn wire_codec_rejects_every_truncation() {
    for (case, shape) in case_shapes(12).iter().enumerate() {
        let chunk = arbitrary_chunk(case, shape);
        let mut buf = Vec::new();
        sb_data::wire::encode_chunk(&mut buf, &chunk).unwrap();
        for cut in 0..buf.len() {
            let mut slice: &[u8] = &buf[..cut];
            assert!(
                sb_data::wire::decode_chunk(&mut slice).is_err(),
                "case {case}: truncation at {cut} of {} decoded",
                buf.len()
            );
        }
    }
}

/// Corrupting any single header byte either errors or decodes to some
/// other *validated* chunk — never a panic, never an unchecked allocation.
#[test]
fn wire_codec_survives_corrupt_headers() {
    for (case, shape) in case_shapes(8).iter().enumerate() {
        let chunk = arbitrary_chunk(case, shape);
        let mut clean = Vec::new();
        sb_data::wire::encode_chunk(&mut clean, &chunk).unwrap();
        let header_len = clean.len() - chunk.byte_len();
        let mut rng = Lcg(case as u64 * 19 + 3);
        for i in 0..header_len {
            let flip = (rng.below(255) + 1) as u8;
            let mut bad = clean.clone();
            bad[i] ^= flip;
            let mut slice: &[u8] = &bad;
            if let Ok(decoded) = sb_data::wire::decode_chunk(&mut slice) {
                // A surviving decode must still satisfy the chunk
                // invariants re-checked by a fresh construction.
                assert!(sb_data::Chunk::new(
                    decoded.meta.clone(),
                    decoded.region.clone(),
                    decoded.data.clone()
                )
                .is_ok());
            }
        }
    }
}

/// The v2 interned frame codec round-trips arbitrary chunks bit-exactly
/// under both payload codecs. Definitions are streamed through a shared
/// intern table exactly as a long-lived TCP connection would, so each
/// distinct meta travels once across the whole sweep.
#[test]
fn interned_wire_codec_round_trips_arbitrary_chunks() {
    use sb_data::wire::{Compression, MetaDefs, MetaInternTable};
    for comp in [Compression::None, Compression::Lz] {
        let mut table = MetaInternTable::new();
        let mut defs = MetaDefs::new();
        let mut sent = 0u32;
        for (case, shape) in case_shapes(32).iter().enumerate() {
            let chunk = arbitrary_chunk(case, shape);
            let id = table.intern(&chunk.meta).unwrap();
            let mut defbuf = Vec::new();
            table.append_defs_since(sent, &mut defbuf);
            sent = table.len();
            let mut slice: &[u8] = &defbuf;
            while !slice.is_empty() {
                defs.decode_def(&mut slice).unwrap();
            }
            let mut buf = Vec::new();
            sb_data::wire::encode_chunk_interned(&mut buf, &chunk, id, comp).unwrap();
            let mut slice: &[u8] = &buf;
            let back = sb_data::wire::decode_chunk_interned(&mut slice, &defs).unwrap();
            assert!(slice.is_empty(), "case {case}: trailing bytes");
            assert_eq!(back.meta, chunk.meta, "case {case}");
            assert_eq!(back.region, chunk.region, "case {case}");
            assert_eq!(
                back.data.to_le_bytes(),
                chunk.data.to_le_bytes(),
                "case {case} ({})",
                comp.name()
            );
        }
    }
}

/// Truncating an interned frame (definition or chunk) at any byte yields a
/// typed `DataError`, never a panic — same hardening bar as the v1 codec.
#[test]
fn interned_wire_codec_rejects_every_truncation() {
    use sb_data::wire::{Compression, MetaDefs, MetaInternTable};
    for (case, shape) in case_shapes(8).iter().enumerate() {
        let chunk = arbitrary_chunk(case, shape);
        let mut table = MetaInternTable::new();
        let id = table.intern(&chunk.meta).unwrap();
        let mut defbuf = Vec::new();
        table.append_defs_since(0, &mut defbuf);
        for cut in 0..defbuf.len() {
            let mut fresh = MetaDefs::new();
            let mut slice: &[u8] = &defbuf[..cut];
            assert!(
                fresh.decode_def(&mut slice).is_err(),
                "case {case}: def truncation at {cut} decoded"
            );
        }
        let mut defs = MetaDefs::new();
        let mut slice: &[u8] = &defbuf;
        defs.decode_def(&mut slice).unwrap();
        let comp = if case % 2 == 0 {
            Compression::Lz
        } else {
            Compression::None
        };
        let mut buf = Vec::new();
        sb_data::wire::encode_chunk_interned(&mut buf, &chunk, id, comp).unwrap();
        for cut in 0..buf.len() {
            let mut slice: &[u8] = &buf[..cut];
            assert!(
                sb_data::wire::decode_chunk_interned(&mut slice, &defs).is_err(),
                "case {case}: chunk truncation at {cut} of {} decoded",
                buf.len()
            );
        }
    }
}

/// The broker's pass-through relay is invisible: a reader served the
/// writers' own frame bytes, a reader served by the broker's fallback encode
/// and a reader attached to the broker hub in process all see identical
/// steps. Swept over every dtype, both codecs, 1–4 writer ranks that put
/// their variables in different orders (so each connection numbers its
/// metadata differently and the relay has to renumber), writer groups mixing
/// remote v2, remote v1 and in-proc ranks, one payload buffer put under two
/// variables, and a reader whose codec differs from the writers'.
#[test]
fn relay_pass_through_and_fallback_encode_deliver_identical_steps() {
    use sb_data::decompose::slab_partition;
    use sb_data::{AttrValue, Chunk, SharedBuffer, VariableMeta};
    use sb_stream::{
        Compression, EventKind, StepStatus, StreamHub, TcpBroker, TcpOptions, TraceConfig,
        WireProtocol, WriterOptions,
    };

    const DTYPES: [DType; 6] = [
        DType::F32,
        DType::F64,
        DType::I32,
        DType::I64,
        DType::U32,
        DType::U64,
    ];
    const STEPS: u64 = 2;

    for case in 0..16u64 {
        let mut rng = Lcg(0xBA55 ^ case << 9);
        let nranks = rng.below(4) + 1;
        let (codec, other_codec) = if case % 2 == 0 {
            (Compression::Lz, Compression::None)
        } else {
            (Compression::None, Compression::Lz)
        };
        // Where each writer rank lives: 0 = in-proc on the broker hub, 1 = a
        // remote v1 client, otherwise a remote v2 client with `codec` — the
        // only kind whose frames the relay can pass through. Every fourth
        // case is all of that kind, the rest draw per rank.
        let homes: Vec<usize> = (0..nranks)
            .map(|_| if case % 4 == 0 { 2 } else { rng.below(5) })
            .collect();
        let metas: Vec<VariableMeta> = (0..rng.below(3) + 1)
            .map(|v| {
                let rows = nranks * (rng.below(4) + 1);
                let cols = rng.below(57) + 8;
                let shape = Shape::of(&[("rows", rows), ("cols", cols)]);
                let dtype = DTYPES[(case as usize + v) % DTYPES.len()];
                let mut meta = VariableMeta::new(format!("var{v}"), shape, dtype);
                meta.labels
                    .insert(1, (0..cols).map(|c| format!("q{c}")).collect());
                meta.attrs
                    .insert("case".into(), AttrValue::Int(case as i64));
                meta
            })
            .collect();
        // One more variable that every rank puts with the very `SharedBuffer`
        // it put for `var0` (zero-copy forwarding): on an in-proc rank the
        // two committed chunks then share an allocation, and the relay must
        // still tell them apart.
        let alias = metas.len();
        let mut metas = metas;
        metas.push(VariableMeta {
            name: "alias".into(),
            ..metas[0].clone()
        });
        // Runs, ramps and noise, with the float bit patterns `==` hides.
        let payload = |rng: &mut Lcg, meta: &VariableMeta, region: &Region, step: u64| {
            let mode = rng.below(3);
            let values: Vec<f64> = (0..region.len())
                .map(|i| match (mode, i % 7) {
                    (_, 0) if matches!(meta.dtype, DType::F32 | DType::F64) => f64::NAN,
                    (_, 1) if matches!(meta.dtype, DType::F32 | DType::F64) => -0.0,
                    (0, _) => (step + 1) as f64,
                    (1, _) => i as f64 * 0.5 + step as f64,
                    _ => rng.float(0.0, 1e6),
                })
                .collect();
            Buffer::from_f64_vec(meta.dtype, values)
        };

        let broker = TcpBroker::bind("127.0.0.1:0").unwrap();
        broker.hub().tracer().enable(&TraceConfig::default());
        let connect = |c| {
            StreamHub::connect_with(&broker.url(), TcpOptions::default().with_compression(c))
                .unwrap()
        };
        let (same, other) = (connect(codec), connect(other_codec));
        let v1 = StreamHub::connect_with(
            &broker.url(),
            TcpOptions::default().with_protocol(WireProtocol::V1),
        )
        .unwrap();
        let name = "relay.fp";
        // Every hub a writer rank opens on declares the three groups, so
        // the ranks agree on the stream's retention.
        for hub in [broker.hub(), &v1, &same] {
            hub.set_reader_groups(name, 3);
        }
        // Readers first: frames are only kept for readers that can use them.
        let mut readers = [
            same.open_reader_grouped(name, "same-codec", 0, 1),
            other.open_reader_grouped(name, "other-codec", 0, 1),
            broker.hub().open_reader_grouped(name, "in-proc", 0, 1),
        ];
        let mut writers: Vec<_> = (0..nranks)
            .map(|rank| {
                let hub = match homes[rank] {
                    0 => broker.hub(),
                    1 => &v1,
                    _ => &same,
                };
                hub.open_writer(name, rank, nranks, WriterOptions::default())
            })
            .collect();

        let mut step_bytes = 0u64;
        for step in 0..STEPS {
            for (rank, w) in writers.iter_mut().enumerate() {
                w.begin_step().unwrap();
                let mut order: Vec<usize> = (0..metas.len()).collect();
                for i in (1..order.len()).rev() {
                    order.swap(i, rng.below(i + 1));
                }
                let slab0 = slab_partition(&metas[0].shape, 0, nranks, rank);
                let shared = SharedBuffer::new(payload(&mut rng, &metas[0], &slab0, step));
                for v in order {
                    let meta = &metas[v];
                    let region = slab_partition(&meta.shape, 0, nranks, rank);
                    let data = if v == 0 || v == alias {
                        shared.clone()
                    } else {
                        payload(&mut rng, meta, &region, step).into()
                    };
                    step_bytes += data.byte_len() as u64;
                    w.put(Chunk::new(meta.clone(), region, data).unwrap());
                }
                w.end_step().unwrap();
            }
            let seen: Vec<Vec<Variable>> = readers
                .iter_mut()
                .map(|r| {
                    assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(step));
                    assert_eq!(r.variables().len(), metas.len(), "case {case}");
                    let vars = metas
                        .iter()
                        .map(|m| r.get_whole(&m.name).unwrap())
                        .collect();
                    r.end_step();
                    vars
                })
                .collect();
            for (got, group) in seen[..2].iter().zip(["same-codec", "other-codec"]) {
                for (var, truth) in got.iter().zip(&seen[2]) {
                    let at = format!("case {case} step {step} {group} {}", truth.name);
                    assert_eq!(var.shape, truth.shape, "{at}");
                    assert_eq!(var.labels, truth.labels, "{at}");
                    assert_eq!(var.attrs, truth.attrs, "{at}");
                    assert_eq!(var.data.dtype(), truth.data.dtype(), "{at}");
                    // NaN payloads make PartialEq useless; compare bytes.
                    assert_eq!(var.data.to_le_bytes(), truth.data.to_le_bytes(), "{at}");
                }
            }
        }
        for w in &mut writers {
            w.close();
        }
        for r in &mut readers {
            assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream);
        }

        // Which path served whom. A reply is pass-through only when no
        // chunk of it had to be encoded, so the same-codec reader gets one
        // per step exactly when every writer rank was remote.
        let timeline = broker.hub().tracer().drain();
        let all_relayable = homes.iter().all(|&home| home >= 2);
        let passed = timeline.of_kind(EventKind::RelayPassThrough).count() as u64;
        let encoded = timeline.of_kind(EventKind::RelayEncoded).count() as u64;
        assert_eq!(passed, if all_relayable { STEPS } else { 0 }, "case {case}");
        assert_eq!(passed + encoded, 2 * STEPS, "case {case}");
        // Each payload byte meets a v2 codec twice, whatever the mix: at
        // its v2 writer or (in-proc and v1 ranks) in the same-codec
        // reader's fallback, and once more for the other-codec reader.
        let m = same.metrics(name).unwrap();
        assert_eq!(m.wire_uncompressed_bytes, 2 * step_bytes, "case {case}");
        assert_eq!(broker.relay_cached_steps(name), 0, "case {case}");
    }
}

/// A remote reader's step request names the boxes it read last step and the
/// broker answers with the bytes they touch; whatever that leaves out, every
/// `get` must return what the same `get` returns on an in-proc hub. Swept
/// over writer and reader counts, box kinds (a row slab, which the relay
/// cuts; a column band and an interior box, which it cannot), payloads (raw;
/// LZ that wins, so there are no rows to cut; LZ that gives up and stores
/// raw) and both fabrics, with a writer rank on the broker's own hub in some
/// cases (nothing seeded: encode, then cut). Every rank changes its box at
/// step 2 — the one step whose request guessed wrong, and so the only one
/// that may be fetched twice — and reads a second variable on odd steps
/// only, which no request ever names in time.
#[test]
fn box_requests_deliver_what_an_in_proc_read_delivers() {
    use sb_data::decompose::slab_partition;
    use sb_data::{Chunk, VariableMeta};
    use sb_stream::{
        Compression, EventKind, ShmBroker, StepStatus, StreamHub, TcpBroker, TcpOptions,
        TraceConfig, WriterOptions,
    };

    const STEPS: u64 = 4;
    const COLS: usize = 6;
    #[derive(Clone, Copy, PartialEq, Debug)]
    enum Payload {
        Raw,
        LzWins,
        LzGivesUp,
    }

    let shm_dir = std::env::temp_dir().join(format!("sb-props-boxes-{}", std::process::id()));
    for (case, shm) in [false, true].into_iter().enumerate() {
        for (nwriters, nreaders) in [1usize, 2, 4]
            .into_iter()
            .flat_map(|m| [1usize, 2, 3, 5].map(|n| (m, n)))
        {
            for payload in [Payload::Raw, Payload::LzWins, Payload::LzGivesUp] {
                let at = format!("shm={shm} {nwriters}x{nreaders} {payload:?}");
                let mut rng = Lcg(0xB0C5 ^ (case * 64 + nwriters * 8 + nreaders) as u64);
                let _ = std::fs::remove_dir_all(&shm_dir);
                let (url, broker_hub, _broker): (_, _, Box<dyn std::any::Any>) = if shm {
                    let b = ShmBroker::bind(&shm_dir.to_string_lossy()).unwrap();
                    (b.url(), std::sync::Arc::clone(b.hub()), Box::new(b))
                } else {
                    let b = TcpBroker::bind("127.0.0.1:0").unwrap();
                    (b.url(), std::sync::Arc::clone(b.hub()), Box::new(b))
                };
                broker_hub.tracer().enable(&TraceConfig::default());
                let codec = match payload {
                    Payload::Raw => Compression::None,
                    _ => Compression::Lz,
                };
                let options = TcpOptions::default().with_compression(codec);
                let remote = StreamHub::connect_with(&url, options).unwrap();
                let truth = StreamHub::new();

                let rows = nwriters * 5 + 3;
                let shape = Shape::of(&[("rows", rows), ("cols", COLS)]);
                let mut a = VariableMeta::new("a", shape.clone(), DType::F64);
                a.labels
                    .insert(1, (0..COLS).map(|c| format!("q{c}")).collect());
                let b = VariableMeta::new("b", shape.clone(), DType::I32);

                // Readers attach first so that remote writers' frames are kept.
                let name = "boxes.fp";
                let mut readers: Vec<_> = (0..nreaders)
                    .map(|rank| {
                        (
                            remote.open_reader(name, rank, nreaders),
                            truth.open_reader(name, rank, nreaders),
                        )
                    })
                    .collect();
                let mixed = nwriters >= 2 && nreaders % 2 == 1;
                let mut writers: Vec<_> = (0..nwriters)
                    .map(|rank| {
                        let hub = if mixed && rank == 0 {
                            &broker_hub
                        } else {
                            &remote
                        };
                        (
                            hub.open_writer(name, rank, nwriters, WriterOptions::default()),
                            truth.open_writer(name, rank, nwriters, WriterOptions::default()),
                        )
                    })
                    .collect();

                // The box of `a` a rank reads: one through step 1, another after.
                let box_of = |rank: usize, step: u64| {
                    let late = step >= 2;
                    match rank % 3 {
                        0 => {
                            let of = if late { (rank + 1) % nreaders } else { rank };
                            slab_partition(&shape, 0, nreaders, of)
                        }
                        1 if late => Region::new(vec![0, 3], vec![rows, 3]),
                        1 => Region::new(vec![0, 1], vec![rows, 2]),
                        _ if late => Region::new(vec![0, 0], vec![2, 2]),
                        _ => Region::new(vec![1, 2], vec![rows - 3, 3]),
                    }
                };

                for step in 0..STEPS {
                    for (rank, (w, t)) in writers.iter_mut().enumerate() {
                        w.begin_step().unwrap();
                        t.begin_step().unwrap();
                        for meta in [&a, &b] {
                            let region = slab_partition(&shape, 0, nwriters, rank);
                            let values: Vec<f64> = (0..region.len())
                                .map(|i| match payload {
                                    Payload::LzWins => (step + 1) as f64,
                                    _ if i % 11 == 0 => f64::NAN,
                                    // A product fills the whole mantissa.
                                    _ => rng.float(-1e6, 1e6) * rng.float(0.5, 1.5),
                                })
                                .collect();
                            let data: sb_data::SharedBuffer =
                                Buffer::from_f64_vec(meta.dtype, values).into();
                            let chunk = Chunk::new(meta.clone(), region, data).unwrap();
                            w.put(chunk.clone());
                            t.put(chunk);
                        }
                        w.end_step().unwrap();
                        t.end_step().unwrap();
                    }
                    for (rank, (r, t)) in readers.iter_mut().enumerate() {
                        assert_eq!(r.begin_step().unwrap(), StepStatus::Ready(step), "{at}");
                        assert_eq!(t.begin_step().unwrap(), StepStatus::Ready(step));
                        assert_eq!(r.variables(), t.variables(), "{at}");
                        let mut reads = vec![("a", box_of(rank, step))];
                        if step % 2 == 1 {
                            reads.push(("b", slab_partition(&shape, 0, nreaders, rank)));
                        }
                        for (var, region) in reads {
                            let at = format!("{at} step {step} rank {rank} {var} {region}");
                            let got = r.get(var, &region).unwrap();
                            let want = t.get(var, &region).unwrap();
                            assert_eq!(got.shape, want.shape, "{at}");
                            assert_eq!(got.labels, want.labels, "{at}");
                            assert_eq!(got.data.dtype(), want.data.dtype(), "{at}");
                            assert_eq!(got.data.to_le_bytes(), want.data.to_le_bytes(), "{at}");
                        }
                        r.end_step();
                        t.end_step();
                    }
                }
                for (w, t) in &mut writers {
                    w.close();
                    t.close();
                }
                for (r, _) in &mut readers {
                    assert_eq!(r.begin_step().unwrap(), StepStatus::EndOfStream, "{at}");
                }

                // How often each step went to each rank.
                let timeline = broker_hub.tracer().drain();
                for rank in 0..nreaders {
                    for step in 0..STEPS {
                        let replies = timeline
                            .of_kind(EventKind::RelayPassThrough)
                            .chain(timeline.of_kind(EventKind::RelayEncoded))
                            .filter(|e| e.rank as usize == rank && e.step == step)
                            .count();
                        let at = format!("{at} rank {rank} step {step}: {replies} replies");
                        let moved = box_of(rank, step) != box_of(rank, step - step.min(1));
                        // A rank that moved to rows its old box shares with no
                        // chunk was sent none of them, unless LZ blocks made
                        // the relay send whole chunks.
                        let cut_off = moved && rank % 3 == 0 && payload != Payload::LzWins;
                        if cut_off {
                            assert_eq!(replies, 2, "{at}");
                        } else if moved {
                            assert!((1..=2).contains(&replies), "{at}");
                        } else {
                            assert_eq!(replies, 1, "{at}");
                        }
                    }
                }
            }
        }
    }
    let _ = std::fs::remove_dir_all(&shm_dir);
}

/// Under `Compression::Lz` the interned codec round-trips random mixes of
/// noise and runs exactly, never frames more payload bytes than the raw
/// encoding, and a chunk it stores raw is byte-for-byte the
/// `Compression::None` frame. Sizes span both sides of the encoder's 48 KiB
/// sample threshold, and the runs land anywhere — head, middle or tail.
#[test]
fn lz_interned_codec_never_grows_a_payload() {
    use sb_data::wire::{decode_chunk_interned, encode_chunk_interned, Compression, MetaDefs};
    use sb_data::{Chunk, VariableMeta};
    for case in 0..32u64 {
        let mut rng = Lcg(0x5a3b ^ case << 9);
        let n = rng.below(40_000) + 1;
        // A quarter of the cases are pure noise; the rest get runs as one
        // segment in four, two or three.
        let run_share = case as usize % 4;
        let mut bits: Vec<u64> = Vec::with_capacity(n);
        while bits.len() < n {
            let len = (rng.below(n / 3 + 1) + 1).min(n - bits.len());
            if rng.below(4) >= run_share {
                bits.extend((0..len).map(|_| rng.next() << 33 | rng.next()));
            } else {
                bits.extend(std::iter::repeat_n(rng.next(), len));
            }
        }
        let data = if case % 2 == 0 {
            Buffer::F64(bits.iter().map(|&b| f64::from_bits(b)).collect())
        } else {
            Buffer::U32(bits.iter().map(|&b| b as u32).collect())
        };
        let meta = VariableMeta::new("mix", Shape::of(&[("x", n)]), data.dtype());
        let mut defs = MetaDefs::new();
        let mut def = Vec::new();
        let mut table = sb_data::wire::MetaInternTable::new();
        let id = table.intern(&meta).unwrap();
        table.append_defs_since(0, &mut def);
        defs.decode_def(&mut &def[..]).unwrap();
        let chunk = Chunk::new(meta, Region::new(vec![0], vec![n]), data).unwrap();

        let mut lz = Vec::new();
        let enc = encode_chunk_interned(&mut lz, &chunk, id, Compression::Lz).unwrap();
        assert!(enc.wire_payload <= enc.raw_payload, "case {case}");
        let mut slice: &[u8] = &lz;
        let back = decode_chunk_interned(&mut slice, &defs).unwrap();
        assert!(slice.is_empty(), "case {case}: trailing bytes");
        assert_eq!(
            back.data.to_le_bytes(),
            chunk.data.to_le_bytes(),
            "case {case}"
        );
        if !enc.compressed() {
            let mut raw = Vec::new();
            encode_chunk_interned(&mut raw, &chunk, id, Compression::None).unwrap();
            assert_eq!(
                lz, raw,
                "case {case}: stored raw, but not as None frames it"
            );
        }
    }
}

/// The simulators' own frames keep the codec decision they always had:
/// a LAMMPS frame (integer ID and Type columns) compresses by about a
/// third, and a GROMACS coordinate frame is stored raw, framed exactly as
/// `Compression::None` frames it.
#[test]
fn sim_frames_keep_their_lz_decision() {
    use sb_data::wire::{encode_chunk_interned, Compression};
    use sb_sims::{GromacsConfig, GromacsSim, LammpsConfig, LammpsSim, SimRank};
    let frames = sb_comm::launch_named("frames", 1, |comm| {
        let lammps_cfg = LammpsConfig {
            nx: 64,
            ny: 64,
            ..LammpsConfig::default()
        };
        let gromacs_cfg = GromacsConfig {
            n_chains: 512,
            ..GromacsConfig::default()
        };
        let mut sims: Vec<Box<dyn SimRank>> = vec![
            Box::new(LammpsSim::new(lammps_cfg, 0, 1)),
            Box::new(GromacsSim::new(gromacs_cfg, 0, 1)),
        ];
        sims.iter_mut()
            .map(|sim| {
                for _ in 0..4 {
                    sim.substep(&comm);
                }
                sim.output_chunk()
            })
            .collect::<Vec<_>>()
    })
    .unwrap()
    .remove(0);
    let encode = |chunk, codec| {
        let mut frame = Vec::new();
        let enc = encode_chunk_interned(&mut frame, chunk, 0, codec).unwrap();
        (frame, enc)
    };

    let (_, lammps) = encode(&frames[0], Compression::Lz);
    let ratio = lammps.raw_payload as f64 / lammps.wire_payload as f64;
    assert!(
        lammps.raw_payload > 48 << 10,
        "the frame is above the sample"
    );
    assert!((1.2..1.5).contains(&ratio), "LAMMPS lz ratio {ratio:.3}");

    let (gromacs_lz, gromacs) = encode(&frames[1], Compression::Lz);
    assert!(
        gromacs.raw_payload > 48 << 10,
        "the frame is above the sample"
    );
    assert!(!gromacs.compressed());
    assert_eq!(gromacs_lz, encode(&frames[1], Compression::None).0);
}

/// `lz_decompress ∘ lz_compress` is the identity over random interleavings
/// of runs, ramps and noise — including noise prefixes long enough that
/// the matcher's skip stride is dozens of bytes when a compressible region
/// begins, which it must still find its way back into.
#[test]
fn lz_round_trips_interleaved_runs_ramps_and_noise() {
    use sb_data::compress::{lz_compress, lz_decompress};
    for case in 0..48u64 {
        let mut rng = Lcg(0x1277 ^ case << 7);
        let mut data: Vec<u8> = Vec::new();
        if case % 3 == 0 {
            // 64 KiB of noise puts the stride near 46 (n misses cover about
            // n²/128 bytes).
            data.extend((0..64 << 10).map(|_| rng.next() as u8));
        }
        let compressible_from = data.len();
        for _ in 0..rng.below(12) + 1 {
            let len = rng.below(5000) + 1;
            match rng.below(3) {
                0 => data.extend(std::iter::repeat_n(rng.next() as u8, len)),
                1 => data.extend((0..len).flat_map(|i| (i as f64 * 0.001).to_le_bytes())),
                _ => data.extend((0..len).map(|_| rng.next() as u8)),
            }
        }
        let tail = vec![0x5a; 8192];
        data.extend_from_slice(&tail);
        let packed = lz_compress(&data);
        assert_eq!(
            lz_decompress(&packed, data.len()).unwrap(),
            data,
            "case {case}"
        );
        // The constant tail still collapses after whatever preceded it.
        let worst = compressible_from + (data.len() - compressible_from - tail.len()) * 9 / 8;
        assert!(
            packed.len() < worst + tail.len() / 8 + 512,
            "case {case}: {} bytes packed to {}",
            data.len(),
            packed.len()
        );
    }
}

/// A meta frame carrying the same label dimension twice is rejected as a
/// typed container error: silently keeping either entry would let two
/// writers disagree about a dimension's quantity labels without anyone
/// noticing. Built by splicing a duplicate into a clean encode so the test
/// tracks the real layout.
#[test]
fn duplicate_label_dimensions_fail_meta_decode() {
    let shape = Shape::of(&[("row", 3), ("col", 2)]);
    let mut meta = sb_data::VariableMeta::new("v", shape, DType::F64);
    meta.labels
        .insert(0, vec!["a".into(), "b".into(), "c".into()]);
    let mut clean = Vec::new();
    sb_data::wire::encode_meta(&mut clean, &meta).unwrap();
    let mut sane: &[u8] = &clean;
    assert_eq!(sb_data::wire::decode_meta(&mut sane).unwrap(), meta);

    // Locate the label section: it starts at the u32 header count, which
    // sits right after name/dtype/dims. Re-encode a label-less twin to
    // find that offset without hardcoding layout arithmetic.
    let mut bare = Vec::new();
    let bare_meta = sb_data::VariableMeta::new("v", meta.shape.clone(), DType::F64);
    sb_data::wire::encode_meta(&mut bare, &bare_meta).unwrap();
    let labels_at = bare.len() - 8; // strip its empty nheaders + nattrs
    let entry = &clean[labels_at + 4..clean.len() - 4]; // one label entry
    let mut dup = Vec::new();
    dup.extend_from_slice(&clean[..labels_at]);
    dup.extend_from_slice(&2u32.to_le_bytes());
    dup.extend_from_slice(entry);
    dup.extend_from_slice(entry);
    dup.extend_from_slice(&0u32.to_le_bytes());
    let mut slice: &[u8] = &dup;
    let err = sb_data::wire::decode_meta(&mut slice).unwrap_err();
    assert!(
        err.to_string().contains("duplicate label"),
        "wrong error: {err}"
    );
}

/// Collectives agree with serial folds for any rank count.
#[test]
fn collectives_agree_with_serial_folds_across_rank_counts() {
    for nranks in 1..=8usize {
        let out = sb_comm::launch(nranks, |comm| {
            let v = (comm.rank() * 7 + 3) as i64;
            let sum = comm.allreduce(v, |a, b| a + b);
            let min = comm.allreduce(v, sb_comm::ops::min);
            let gathered = comm.allgather(v);
            (sum, min, gathered)
        })
        .unwrap();
        let values: Vec<i64> = (0..nranks).map(|r| (r * 7 + 3) as i64).collect();
        let expect_sum: i64 = values.iter().sum();
        let expect_min = *values.iter().min().unwrap();
        for (sum, min, gathered) in out {
            assert_eq!(sum, expect_sum, "nranks={nranks}");
            assert_eq!(min, expect_min);
            assert_eq!(gathered, values);
        }
    }
}

// ---- streamed step bodies --------------------------------------------------

/// One generated `W_STEP` / `REPLY_STEP` body and what its receiver has
/// already applied.
struct StepBody {
    bytes: Vec<u8>,
    interned: bool,
    /// Definitions the receiver applied before this step.
    prior_defs: Vec<u8>,
    /// Body ranges a corruption may hit that are not raw payload bytes.
    headers: Vec<std::ops::Range<usize>>,
}

/// A chunk of `dtype` over a box of a 1–2-d shape: the whole shape, a row
/// slab of it (what a relay answers a box with), or any box. Payloads are
/// noise, or runs LZ shrinks; a few exceed the encoder's 48 KiB sample.
fn step_chunk(rng: &mut StdRng, name: &str, dtype: DType, small: bool) -> sb_data::Chunk {
    let rows = 1 + below(rng, if small { 12 } else { 7000 });
    let cols = 1 + below(rng, 3);
    let shape = if below(rng, 2) == 0 {
        Shape::of(&[("row", rows * cols)])
    } else {
        Shape::of(&[("row", rows), ("col", cols)])
    };
    let mut offset = Vec::new();
    let mut count = Vec::new();
    let kind = below(rng, 3);
    for d in 0..shape.ndims() {
        let size = shape.size(d);
        let (off, n) = match (kind, d) {
            (0, _) => (0, size),
            (1, 0) => {
                let off = below(rng, size);
                (off, 1 + below(rng, size - off))
            }
            (1, _) => (0, size),
            _ => {
                let off = below(rng, size);
                (off, 1 + below(rng, size - off))
            }
        };
        offset.push(off);
        count.push(n);
    }
    let region = Region::new(offset, count);
    let run = below(rng, 2) == 0;
    let values: Vec<f64> = (0..region.len())
        .map(|i| match run {
            true => (i / 64) as f64,
            false => (rng.next_u64() % 1_000_000) as f64 - 5e5,
        })
        .collect();
    let mut meta = sb_data::VariableMeta::new(name, shape, dtype);
    meta.attrs
        .insert("units".into(), sb_data::AttrValue::Text("lj".into()));
    sb_data::Chunk::new(meta, region, Buffer::from_f64_vec(dtype, values)).unwrap()
}

/// A step body of 1–4 chunks of random dtypes, in the v1 (self-described)
/// or v2 (interned) chunk grammar; under v2 each definition is new in this
/// body or already applied, and each payload raw or LZ.
fn step_body(rng: &mut StdRng, small: bool) -> StepBody {
    use sb_data::cursor::put_u32;
    use sb_data::wire::{
        encode_chunk_head, encode_chunk_interned_head, Compression, MetaInternTable,
    };
    let dtypes = [
        DType::F32,
        DType::F64,
        DType::I32,
        DType::I64,
        DType::U32,
        DType::U64,
    ];
    let interned = below(rng, 2) == 0;
    let chunks: Vec<sb_data::Chunk> = (0..1 + below(rng, 4))
        .map(|i| {
            let dtype = dtypes[below(rng, 6)];
            step_chunk(rng, &format!("v{i}"), dtype, small)
        })
        .collect();
    let mut table = MetaInternTable::new();
    let ids: Vec<u32> = chunks
        .iter()
        .map(|c| table.intern(&c.meta).unwrap())
        .collect();
    // The receiver applied the first `known` definitions with an earlier step.
    let known = below(rng, table.len() as usize + 1) as u32;
    let mut prior_defs = Vec::new();
    table.append_defs_since(0, &mut prior_defs);
    let mut prior = Vec::new();
    let mut all = &prior_defs[..];
    let mut scratch = sb_data::wire::MetaDefs::new();
    for _ in 0..known {
        let before = all.len();
        scratch.decode_def(&mut all).unwrap();
        prior.extend_from_slice(
            &prior_defs[prior_defs.len() - before..prior_defs.len() - all.len()],
        );
    }

    let mut bytes = Vec::new();
    if interned {
        let mut defs = Vec::new();
        put_u32(&mut bytes, table.append_defs_since(known, &mut defs));
        bytes.extend(defs);
    }
    put_u32(&mut bytes, chunks.len() as u32);
    // The counts and definitions, then each chunk's header.
    let mut headers = Vec::new();
    headers.push(0..bytes.len());
    for (chunk, &id) in chunks.iter().zip(&ids) {
        let from = bytes.len();
        let raw = if interned {
            let codec = [Compression::None, Compression::Lz][below(rng, 2)];
            !encode_chunk_interned_head(&mut bytes, chunk, id, codec)
                .unwrap()
                .compressed()
        } else {
            encode_chunk_head(&mut bytes, chunk).unwrap();
            true
        };
        headers.push(from..bytes.len());
        if raw {
            chunk.data.append_le_bytes(&mut bytes);
        }
    }
    StepBody {
        bytes,
        interned,
        prior_defs: if interned { prior } else { Vec::new() },
        headers,
    }
}

/// What a body decodes to, as comparable values: per chunk its name,
/// region, payload bytes and body range, or the error's text; and how many
/// definitions the receiver holds after it.
type Decoded = (
    Result<Vec<(String, Region, Vec<u8>, std::ops::Range<usize>)>, String>,
    u32,
);

fn receiver_defs(body: &StepBody) -> sb_data::wire::MetaDefs {
    let mut defs = sb_data::wire::MetaDefs::new();
    let mut cur = &body.prior_defs[..];
    while !cur.is_empty() {
        defs.decode_def(&mut cur).unwrap();
    }
    defs
}

fn comparable(
    chunks: Vec<(sb_data::Chunk, std::ops::Range<usize>)>,
) -> Vec<(String, Region, Vec<u8>, std::ops::Range<usize>)> {
    chunks
        .into_iter()
        .map(|(c, range)| {
            (
                c.meta.name.clone(),
                c.region.clone(),
                c.data.to_le_bytes(),
                range,
            )
        })
        .collect()
}

/// The body decoded by the whole-input functions, item after item.
fn decode_whole(body: &StepBody, bytes: &[u8]) -> Decoded {
    use sb_data::cursor::get_u32;
    use sb_data::wire::{decode_chunk, decode_chunk_interned};
    let mut defs = receiver_defs(body);
    let mut cur = bytes;
    let mut decode = || -> sb_data::DataResult<_> {
        if body.interned {
            for _ in 0..get_u32(&mut cur, "def count")? {
                defs.decode_def(&mut cur)?;
            }
        }
        let mut chunks = Vec::new();
        for _ in 0..get_u32(&mut cur, "chunk count")? {
            let at = bytes.len() - cur.len();
            let chunk = match body.interned {
                true => decode_chunk_interned(&mut cur, &defs)?,
                false => decode_chunk(&mut cur)?,
            };
            chunks.push((chunk, at..bytes.len() - cur.len()));
        }
        Ok(chunks)
    };
    let out = decode().map(comparable).map_err(|e| e.to_string());
    (out, defs.len())
}

/// The body fed to a [`StepDecoder`] as the prefixes ending at `cuts`.
fn decode_split(body: &StepBody, bytes: &[u8], cuts: &[usize]) -> Decoded {
    use sb_data::wire::{ChunkGrammar, StepDecoder};
    let mut defs = receiver_defs(body);
    let grammar = match body.interned {
        true => ChunkGrammar::Interned(&mut defs),
        false => ChunkGrammar::Described,
    };
    let mut decoder = StepDecoder::new(grammar, 0, 1 << 16);
    for &cut in cuts {
        decoder.arrived(&bytes[..cut]);
    }
    let out = decoder
        .finish(bytes)
        .map(comparable)
        .map_err(|e| e.to_string());
    (out, defs.len())
}

/// `n` sorted cut points in `1..len`.
fn random_cuts(rng: &mut StdRng, len: usize, n: usize) -> Vec<usize> {
    if len < 2 {
        return Vec::new();
    }
    let mut cuts: Vec<usize> = (0..n).map(|_| 1 + below(rng, len - 1)).collect();
    cuts.sort_unstable();
    cuts
}

/// A step body decodes to the same chunks — bitwise — and the same
/// definitions however it is split while it arrives: whole, one byte at a
/// time, or at random points; and every truncation and every corrupted
/// header byte ends in the same outcome, error text included, as the
/// whole-input decoders give. `SB_CHAOS_SEED` reseeds the sweep.
#[test]
fn split_invariance_of_streamed_step_bodies() {
    let seed = chaos_seed(0x5711);
    for case in 0..48u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let small = case % 4 != 3;
        let body = step_body(&mut rng, small);
        let bytes = &body.bytes;
        let whole = decode_whole(&body, bytes);
        assert!(whole.0.is_ok(), "case {case}: {:?}", whole.0);
        let one_by_one: Vec<usize> = (1..bytes.len()).collect();
        let feedings = [
            Vec::new(),
            one_by_one,
            random_cuts(&mut rng, bytes.len(), 3),
            random_cuts(&mut rng, bytes.len(), 40),
        ];
        for cuts in &feedings {
            assert!(
                decode_split(&body, bytes, cuts) == whole,
                "case {case}: cuts {cuts:?}"
            );
        }
        if !small {
            continue;
        }
        for cut in 0..bytes.len() {
            let cut_body = &bytes[..cut];
            let want = decode_whole(&body, cut_body);
            assert!(want.0.is_err(), "case {case}: cut at {cut} decoded");
            let cuts = random_cuts(&mut rng, cut, 4);
            assert_eq!(
                decode_split(&body, cut_body, &cuts),
                want,
                "case {case}: cut {cut}"
            );
            assert_eq!(
                decode_split(&body, cut_body, &[]),
                want,
                "case {case}: cut {cut}"
            );
        }
        for at in body.headers.iter().flat_map(|r| r.clone()) {
            for flip in [0xffu8, 0x01, 0x80] {
                let mut bad = bytes.clone();
                bad[at] ^= flip;
                let want = decode_whole(&body, &bad);
                for cuts in [
                    random_cuts(&mut rng, bad.len(), 6),
                    (1..bad.len()).step_by(7).collect(),
                ] {
                    assert_eq!(
                        decode_split(&body, &bad, &cuts),
                        want,
                        "case {case}: byte {at} ^ {flip:#x}, cuts {cuts:?}"
                    );
                }
            }
        }
    }
}

// ---- the signature is the step's contract ----------------------------------

use std::collections::BTreeMap;
use std::sync::Arc;

use sb_data::{Chunk, VariableMeta};
use sb_stream::{StepStatus, StreamHub, WriterOptions};
use smartblock::analysis::{ArraySpec, Extent, StreamSpec};
use smartblock::{
    AllInOne, BinaryOp, Combine, Component, DimReduce, Histogram, Magnitude, Predicate, Select,
    TemporalMean, Threshold,
};

/// A meta of `ndims` 0–3 and extents 0–5, each dimension labelled
/// `q0, q1, …` or not, of an `f64` or `i32` array.
fn random_meta(rng: &mut StdRng, name: &str) -> VariableMeta {
    let ndims = below(rng, 4);
    let dims: Vec<(String, usize)> = (0..ndims)
        .map(|d| (format!("d{d}"), below(rng, 6)))
        .collect();
    let pairs: Vec<(&str, usize)> = dims.iter().map(|(n, e)| (n.as_str(), *e)).collect();
    let dtype = [DType::F64, DType::I32][below(rng, 2)];
    let mut meta = VariableMeta::new(name, Shape::of(&pairs), dtype);
    for (d, &(_, extent)) in pairs.iter().enumerate() {
        if below(rng, 2) == 0 {
            meta.labels
                .insert(d, (0..extent).map(|i| format!("q{i}")).collect());
        }
    }
    meta
}

/// Names to keep: `q0`, maybe `q1`, and now and then `zz`, so a header
/// may or may not carry them all.
fn random_keep(rng: &mut StdRng) -> Vec<String> {
    let mut keep = vec!["q0".to_string()];
    if below(rng, 2) == 0 {
        keep.push("q1".into());
    }
    if below(rng, 4) == 0 {
        keep.push("zz".into());
    }
    keep
}

/// Converted component number `kind`, configured from `rng`, reading `x`
/// on `in0.fp` (and, for the join, `in1.fp`) and writing `out.fp`. An axis
/// it names is one of the `ndims` the input has, or one past them.
fn converted_component(rng: &mut StdRng, kind: usize, ndims: usize) -> Arc<dyn Component> {
    match kind {
        0 => Arc::new(Magnitude::new(("in0.fp", "x"), ("out.fp", "y"))),
        1 => Arc::new(Select::new(
            ("in0.fp", "x"),
            below(rng, ndims + 1),
            random_keep(rng),
            ("out.fp", "y"),
        )),
        2 => Arc::new(DimReduce::new(
            ("in0.fp", "x"),
            below(rng, ndims + 1),
            below(rng, ndims + 1),
            ("out.fp", "y"),
        )),
        3 => Arc::new(Combine::new(
            ("in0.fp", "x"),
            BinaryOp::Add,
            ("in1.fp", "x"),
            ("out.fp", "y"),
        )),
        4 => Arc::new(TemporalMean::new(("in0.fp", "x"), 2, ("out.fp", "y"))),
        5 => Arc::new(
            Histogram::new(("in0.fp", "x"), 1 + below(rng, 6)).with_output_stream("out.fp"),
        ),
        6 => Arc::new(AllInOne::new(
            ("in0.fp", "x"),
            random_keep(rng),
            1 + below(rng, 6),
        )),
        _ => Arc::new(Threshold::new(
            ("in0.fp", "x"),
            Predicate::GreaterThan(0.5),
            ("out.fp", "y"),
        )),
    }
}

/// Whether `meta` is what `spec` says, attrs aside: same dimension names,
/// the fixed extents, dtype and labels.
fn fits(spec: &ArraySpec, meta: &VariableMeta) -> bool {
    let of = ArraySpec::of(meta);
    of.dims.len() == spec.dims.len()
        && of.dims.iter().zip(&spec.dims).all(|(got, want)| {
            got.name == want.name && (want.extent == Extent::Dynamic || got.extent == want.extent)
        })
        && of.dtype == spec.dtype
        && of.labels == spec.labels
}

/// For seeded random metas, every converted component at 1–3 ranks: the
/// transfer on `ArraySpec::of(meta)` accepts iff one step of `run`
/// succeeds; each published meta is the one the transfer's spec describes,
/// a Histogram's with more bins than elements (advisory SB007) included;
/// and the ranks' read regions tile each read exactly once.
/// `SB_CHAOS_SEED` reseeds the sweep.
#[test]
fn contract_agreement_between_the_analyser_and_the_step_loop() {
    let seed = chaos_seed(0x5711);
    let mut degenerate_compared = 0;
    for case in 0..480u64 {
        let mut rng = StdRng::seed_from_u64(seed ^ case.wrapping_mul(0xA24B_AED4_963E_E407));
        let kind = case as usize % 8;
        let nranks = 1 + below(&mut rng, 3);
        let left = random_meta(&mut rng, "x");
        // The join sees the same meta half of the time, so both its
        // agreeing and its disagreeing shapes are drawn.
        let right = if below(&mut rng, 2) == 0 {
            left.clone()
        } else {
            random_meta(&mut rng, "x")
        };
        let component = converted_component(&mut rng, kind, left.shape.ndims());
        let row = format!(
            "case {case}: {} at {nranks} ranks over {left:?}",
            component.label()
        );
        let metas = if kind == 3 {
            vec![left, right]
        } else {
            vec![left]
        };

        // What the analyser says of these metas.
        let signature = component.signature();
        let specs: Vec<StreamSpec> = metas
            .iter()
            .map(|m| StreamSpec::known_one("x", ArraySpec::of(m)))
            .collect();
        let transfer = signature
            .transfer
            .as_ref()
            .expect("converted components declare one");
        let verdict = transfer(&specs);
        let accepted = verdict.is_ok();
        let advice = signature.advisory.as_ref().and_then(|check| check(&specs));

        // The ranks' boxes of each read tile it exactly once.
        for (read, meta) in signature.reads.iter().zip(&metas) {
            let boxes: Vec<Region> = (0..nranks)
                .filter_map(|rank| read.partition.region(&meta.shape, nranks, rank))
                .collect();
            let covered: usize = boxes.iter().map(Region::len).sum();
            assert_eq!(covered, meta.shape.total_len(), "{row}: boxes {boxes:?}");
            for (i, a) in boxes.iter().enumerate() {
                a.validate(&meta.shape).unwrap();
                for b in &boxes[i + 1..] {
                    let overlap = a.intersect(b).map_or(0, |r| r.len());
                    assert!(a.ndims() == 0 || overlap == 0, "{row}: {a} meets {b}");
                }
            }
            assert!(
                meta.shape.ndims() > 0 || boxes.len() == 1,
                "{row}: {boxes:?}"
            );
        }

        // One step of `run`.
        let hub = StreamHub::new();
        hub.set_writer_options("out.fp", WriterOptions::buffered(2));
        let mut payload_bytes = 0u64;
        for (i, meta) in metas.iter().enumerate() {
            let len = meta.shape.total_len();
            let data = match meta.dtype {
                DType::I32 => {
                    Buffer::I32((0..len).map(|_| below(&mut rng, 5) as i32 - 2).collect())
                }
                _ => Buffer::F64((0..len).map(|_| rng.gen_range(-2.0..2.0)).collect()),
            };
            let mut var = Variable::new("x", meta.shape.clone(), data).unwrap();
            var.labels = meta.labels.clone();
            payload_bytes += var.byte_len() as u64;
            let mut w = hub.open_writer(&format!("in{i}.fp"), 0, 1, WriterOptions::buffered(2));
            w.begin_step().unwrap();
            w.put(Chunk::whole(var));
            w.end_step().unwrap();
            w.close();
        }
        let run_hub = Arc::clone(&hub);
        let run_component = Arc::clone(&component);
        let results = sb_comm::LaunchHandle::spawn("cut", nranks, move |comm| {
            run_component.run(&comm, &run_hub)
        })
        .unwrap()
        .join()
        .unwrap();
        let ran = results.iter().all(Result::is_ok);
        assert_eq!(
            accepted, ran,
            "{row}: transfer {verdict:?}, run {results:?}"
        );
        if !ran {
            continue;
        }
        let bytes_in: u64 = results.iter().map(|r| r.as_ref().unwrap().bytes_in).sum();
        assert_eq!(bytes_in, payload_bytes, "{row}: every element read once");

        // What the step published, against what the transfer derived.
        let out_specs = verdict.unwrap();
        if kind == 5 && advice.is_some() {
            degenerate_compared += 1;
        }
        for (stream, spec) in component.output_streams().iter().zip(&out_specs) {
            let StreamSpec::Known(arrays) = spec else {
                continue;
            };
            let mut reader = hub.open_reader(stream, 0, 1);
            assert!(
                matches!(reader.begin_step(), Ok(StepStatus::Ready(_))),
                "{row}"
            );
            let published: BTreeMap<String, VariableMeta> = reader
                .variables()
                .into_iter()
                .map(|name| {
                    let var = reader
                        .get_whole(&name)
                        .unwrap_or_else(|e| panic!("{row}: {e}"));
                    (name, VariableMeta::describing(&var))
                })
                .collect();
            assert!(published.keys().eq(arrays.keys()), "{row}: {published:?}");
            for (name, meta) in &published {
                assert!(
                    fits(&arrays[name], meta),
                    "{row}: {meta:?} vs {:?}",
                    arrays[name]
                );
            }
            reader.end_step();
        }
    }
    assert!(
        degenerate_compared > 0,
        "no Histogram with more bins than elements drawn"
    );
}

/// SB007 is advisory: a Histogram with more bins than its input has
/// elements still runs to completion.
#[test]
fn contract_agreement_runs_a_histogram_with_degenerate_bins() {
    let hub = StreamHub::new();
    let mut w = hub.open_writer("in0.fp", 0, 1, WriterOptions::buffered(2));
    w.begin_step().unwrap();
    let var = Variable::new(
        "x",
        Shape::linear("n", 4),
        Buffer::F64(vec![1.0, 2.0, 3.0, 4.0]),
    );
    w.put(Chunk::whole(var.unwrap()));
    w.end_step().unwrap();
    w.close();
    let histogram = Histogram::new(("in0.fp", "x"), 8);
    let results = histogram.results_handle();
    let run_hub = Arc::clone(&hub);
    let ran =
        sb_comm::LaunchHandle::spawn("histogram", 2, move |comm| histogram.run(&comm, &run_hub))
            .unwrap()
            .join()
            .unwrap();
    assert!(ran.iter().all(Result::is_ok), "{ran:?}");
    let results = sb_data::lock(&results);
    assert_eq!(results.len(), 1);
    assert_eq!(results[0].total(), 4);
}
