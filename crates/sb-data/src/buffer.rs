//! Typed linear storage: the payload of every variable and chunk.
//!
//! Compute kernels in SmartBlock operate in `f64`; the buffer keeps the
//! element type the producer declared (self-description) and converts at the
//! edges. Integer types round-trip losslessly for the magnitudes simulations
//! actually emit (|v| < 2^53).

use std::borrow::Cow;
use std::ops::Range;
use std::sync::{Arc, Weak};

use crate::error::{DataError, DataResult};

/// Element type of a buffer, carried as stream metadata.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DType {
    /// 32-bit IEEE float.
    F32,
    /// 64-bit IEEE float.
    F64,
    /// 32-bit signed integer.
    I32,
    /// 64-bit signed integer.
    I64,
    /// 32-bit unsigned integer.
    U32,
    /// 64-bit unsigned integer.
    U64,
}

impl DType {
    /// Size of one element in bytes.
    pub fn elem_bytes(self) -> usize {
        match self {
            DType::F32 | DType::I32 | DType::U32 => 4,
            DType::F64 | DType::I64 | DType::U64 => 8,
        }
    }

    /// The canonical lowercase name ("f64", "i32", …), as specs print it.
    pub fn name(self) -> &'static str {
        match self {
            DType::F32 => "f32",
            DType::F64 => "f64",
            DType::I32 => "i32",
            DType::I64 => "i64",
            DType::U32 => "u32",
            DType::U64 => "u64",
        }
    }

    /// Stable on-disk tag for the binary container.
    pub(crate) fn tag(self) -> u8 {
        match self {
            DType::F32 => 0,
            DType::F64 => 1,
            DType::I32 => 2,
            DType::I64 => 3,
            DType::U32 => 4,
            DType::U64 => 5,
        }
    }

    /// Inverse of [`DType::tag`].
    pub(crate) fn from_tag(tag: u8) -> DataResult<DType> {
        Ok(match tag {
            0 => DType::F32,
            1 => DType::F64,
            2 => DType::I32,
            3 => DType::I64,
            4 => DType::U32,
            5 => DType::U64,
            other => {
                return Err(DataError::Container {
                    detail: format!("unknown dtype tag {other}"),
                })
            }
        })
    }
}

/// A typed, owned, linear data buffer.
#[derive(Debug, Clone, PartialEq)]
pub enum Buffer {
    /// 32-bit floats.
    F32(Vec<f32>),
    /// 64-bit floats.
    F64(Vec<f64>),
    /// 32-bit signed integers.
    I32(Vec<i32>),
    /// 64-bit signed integers.
    I64(Vec<i64>),
    /// 32-bit unsigned integers.
    U32(Vec<u32>),
    /// 64-bit unsigned integers.
    U64(Vec<u64>),
}

macro_rules! for_each_variant {
    ($self:expr, $v:ident => $body:expr) => {
        match $self {
            Buffer::F32($v) => $body,
            Buffer::F64($v) => $body,
            Buffer::I32($v) => $body,
            Buffer::I64($v) => $body,
            Buffer::U32($v) => $body,
            Buffer::U64($v) => $body,
        }
    };
}

impl Buffer {
    /// Number of elements.
    pub fn len(&self) -> usize {
        for_each_variant!(self, v => v.len())
    }

    /// True when the buffer holds no elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Element type.
    pub fn dtype(&self) -> DType {
        match self {
            Buffer::F32(_) => DType::F32,
            Buffer::F64(_) => DType::F64,
            Buffer::I32(_) => DType::I32,
            Buffer::I64(_) => DType::I64,
            Buffer::U32(_) => DType::U32,
            Buffer::U64(_) => DType::U64,
        }
    }

    /// Total payload size in bytes (what the throughput metrics count).
    pub fn byte_len(&self) -> usize {
        self.len() * self.dtype().elem_bytes()
    }

    /// A zero-filled buffer of `len` elements of `dtype`.
    pub fn zeros(dtype: DType, len: usize) -> Buffer {
        match dtype {
            DType::F32 => Buffer::F32(vec![0.0; len]),
            DType::F64 => Buffer::F64(vec![0.0; len]),
            DType::I32 => Buffer::I32(vec![0; len]),
            DType::I64 => Buffer::I64(vec![0; len]),
            DType::U32 => Buffer::U32(vec![0; len]),
            DType::U64 => Buffer::U64(vec![0; len]),
        }
    }

    /// Element `i` widened to `f64`.
    ///
    /// Panics if `i` is out of range, like slice indexing.
    #[inline]
    pub fn get_f64(&self, i: usize) -> f64 {
        match self {
            Buffer::F64(v) => v[i],
            Buffer::F32(v) => v[i] as f64,
            Buffer::I32(v) => v[i] as f64,
            Buffer::I64(v) => v[i] as f64,
            Buffer::U32(v) => v[i] as f64,
            Buffer::U64(v) => v[i] as f64,
        }
    }

    /// The whole buffer widened to `f64`, allocating a fresh vector.
    pub fn to_f64_vec(&self) -> Vec<f64> {
        macro_rules! widen {
            ($v:expr) => {
                $v.iter().map(|&x| x as f64).collect()
            };
        }
        match self {
            Buffer::F64(v) => v.clone(),
            Buffer::F32(v) => widen!(v),
            Buffer::I32(v) => widen!(v),
            Buffer::I64(v) => widen!(v),
            Buffer::U32(v) => widen!(v),
            Buffer::U64(v) => widen!(v),
        }
    }

    /// Consumes the buffer into `f64` values, moving (not copying) the
    /// storage when it is already `F64` — the right call when the caller
    /// owns the variable, which every component step loop does.
    pub fn into_f64_vec(self) -> Vec<f64> {
        match self {
            Buffer::F64(v) => v,
            other => other.to_f64_vec(),
        }
    }

    /// Borrows the underlying `f64` storage when the buffer is already
    /// `F64`, avoiding the copy [`Buffer::to_f64_vec`] would make.
    pub fn as_f64_slice(&self) -> Option<&[f64]> {
        match self {
            Buffer::F64(v) => Some(v),
            _ => None,
        }
    }

    /// The payload as `f64` values for a kernel that only reads them:
    /// borrowed when the buffer is already `F64`, widened once otherwise.
    pub fn to_f64_cow(&self) -> Cow<'_, [f64]> {
        match self {
            Buffer::F64(v) => Cow::Borrowed(v),
            other => Cow::Owned(other.to_f64_vec()),
        }
    }

    /// Builds a buffer of `dtype` from `f64` values, narrowing as needed
    /// (`as` casts; saturating for floats-to-int per Rust semantics).
    pub fn from_f64_vec(dtype: DType, values: Vec<f64>) -> Buffer {
        match dtype {
            DType::F32 => Buffer::F32(values.into_iter().map(|x| x as f32).collect()),
            DType::F64 => Buffer::F64(values),
            DType::I32 => Buffer::I32(values.into_iter().map(|x| x as i32).collect()),
            DType::I64 => Buffer::I64(values.into_iter().map(|x| x as i64).collect()),
            DType::U32 => Buffer::U32(values.into_iter().map(|x| x as u32).collect()),
            DType::U64 => Buffer::U64(values.into_iter().map(|x| x as u64).collect()),
        }
    }

    /// Copies `count` elements starting at `src_off` in `src` into `self`
    /// starting at `dst_off`. Both buffers must share a dtype.
    pub fn copy_from(
        &mut self,
        dst_off: usize,
        src: &Buffer,
        src_off: usize,
        count: usize,
    ) -> DataResult<()> {
        if self.dtype() != src.dtype() {
            return Err(DataError::DTypeMismatch {
                expected: self.dtype(),
                found: src.dtype(),
            });
        }
        if src_off + count > src.len() || dst_off + count > self.len() {
            return Err(DataError::RegionOutOfBounds {
                detail: format!(
                    "copy of {count} elems (src {src_off}/{}, dst {dst_off}/{})",
                    src.len(),
                    self.len()
                ),
            });
        }
        macro_rules! copy {
            ($d:ident, $s:ident) => {
                $d[dst_off..dst_off + count].copy_from_slice(&$s[src_off..src_off + count])
            };
        }
        match (self, src) {
            (Buffer::F32(d), Buffer::F32(s)) => copy!(d, s),
            (Buffer::F64(d), Buffer::F64(s)) => copy!(d, s),
            (Buffer::I32(d), Buffer::I32(s)) => copy!(d, s),
            (Buffer::I64(d), Buffer::I64(s)) => copy!(d, s),
            (Buffer::U32(d), Buffer::U32(s)) => copy!(d, s),
            (Buffer::U64(d), Buffer::U64(s)) => copy!(d, s),
            _ => unreachable!("dtype equality checked above"),
        }
        Ok(())
    }

    /// Gathers rows along a middle dimension: viewing the buffer as a
    /// row-major `[pre][d][post]` array, produces `[pre][indices][post]`
    /// with the selected rows in the order given.
    ///
    /// This is the typed fast path of the Select kernel, in fresh storage:
    /// [`Buffer::gather_dim_into`] with none handed.
    ///
    /// Panics if the buffer length is not `pre * d * post` or an index is
    /// out of range, like slice indexing.
    pub fn gather_dim(&self, pre: usize, d: usize, post: usize, indices: &[usize]) -> Buffer {
        self.gather_dim_into(pre, d, post, indices, None)
    }

    /// [`Buffer::gather_dim`] written into `storage`, a buffer its caller
    /// no longer needs: its contents are overwritten and its capacity kept,
    /// so a step loop that hands back last step's output touches no fresh
    /// page. Storage of another dtype is dropped; none, or too little, is
    /// allocated once. No path fills the output before writing it.
    ///
    /// Indices are validated once; then each `[d * post]` source row yields
    /// one output row of `W = indices.len() * post` elements, in one of
    /// three ways:
    /// * every row kept in order: the rows are adjacent, so the whole
    ///   buffer is one copy;
    /// * `W` at most 8 (Select's vx, vy, vz; GTCP's one pressure column):
    ///   each output row is a `[T; W]` built from a table of `W` source
    ///   offsets, whatever the order, gaps or repeats;
    /// * wider rows: adjacent indices are coalesced into runs of the source
    ///   row, and every row is copied run by run.
    ///
    /// Panics as [`Buffer::gather_dim`] does.
    pub fn gather_dim_into(
        &self,
        pre: usize,
        d: usize,
        post: usize,
        indices: &[usize],
        storage: Option<Buffer>,
    ) -> Buffer {
        assert_eq!(self.len(), pre * d * post, "gather_dim shape mismatch");
        if let Some(i) = indices.iter().find(|&&i| i >= d) {
            panic!("gather_dim index {i} out of range for extent {d}");
        }
        macro_rules! gather {
            ($v:expr, $variant:ident) => {{
                let out = match storage {
                    Some(Buffer::$variant(out)) => out,
                    _ => Vec::new(),
                };
                Buffer::$variant(gather_rows($v, d, post, indices, out))
            }};
        }
        match self {
            Buffer::F32(v) => gather!(v, F32),
            Buffer::F64(v) => gather!(v, F64),
            Buffer::I32(v) => gather!(v, I32),
            Buffer::I64(v) => gather!(v, I64),
            Buffer::U32(v) => gather!(v, U32),
            Buffer::U64(v) => gather!(v, U64),
        }
    }

    /// Appends the payload to `out` as little-endian bytes (the container
    /// and wire format) — the one LE emitter every encoder shares.
    ///
    /// The destination is reserved once and never zero-filled. Elements are
    /// converted a block at a time through a small stack buffer (fixed-width
    /// array stores, which the compiler lowers to block copies on
    /// little-endian targets); the block stays in L1, so each payload byte
    /// crosses memory once on its way into `out`.
    pub fn append_le_bytes(&self, out: &mut Vec<u8>) {
        self.append_le_range(0..self.len(), out);
    }

    /// Appends elements `range` of the payload to `out` as little-endian
    /// bytes — [`Buffer::append_le_bytes`] over a sub-range, for encoders
    /// that look at part of a payload before committing to all of it, and
    /// for senders that convert a payload one cache-sized piece at a time.
    ///
    /// Panics if `range` is out of bounds, like slice indexing.
    pub fn append_le_range(&self, range: Range<usize>, out: &mut Vec<u8>) {
        const BLOCK: usize = 4096;
        out.reserve(range.len() * self.dtype().elem_bytes());
        macro_rules! emit {
            ($v:expr, $w:expr) => {{
                let mut block = [0u8; BLOCK];
                for run in $v[range].chunks(BLOCK / $w) {
                    let (dst, _) = block.as_chunks_mut::<$w>();
                    for (d, x) in dst.iter_mut().zip(run) {
                        *d = x.to_le_bytes();
                    }
                    out.extend_from_slice(&block[..run.len() * $w]);
                }
            }};
        }
        match self {
            Buffer::F32(v) => emit!(v, 4),
            Buffer::F64(v) => emit!(v, 8),
            Buffer::I32(v) => emit!(v, 4),
            Buffer::I64(v) => emit!(v, 8),
            Buffer::U32(v) => emit!(v, 4),
            Buffer::U64(v) => emit!(v, 8),
        }
    }

    /// The payload as a fresh little-endian byte vector.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.append_le_bytes(&mut out);
        out
    }

    /// Deserializes a payload of `len` elements of `dtype` from
    /// little-endian bytes, converting in bulk per variant (fixed-width
    /// array loads, no per-element fallible conversions).
    pub fn from_le_bytes(dtype: DType, len: usize, bytes: &[u8]) -> DataResult<Buffer> {
        let need = len
            .checked_mul(dtype.elem_bytes())
            .ok_or_else(|| DataError::Container {
                detail: format!("element count {len} overflows the byte length"),
            })?;
        if bytes.len() < need {
            return Err(DataError::Container {
                detail: format!("payload truncated: need {need} bytes, have {}", bytes.len()),
            });
        }
        let mut out = Buffer::with_capacity(dtype, 0);
        out.extend_from_le_bytes(&bytes[..need]);
        Ok(out)
    }

    /// Appends the whole elements the little-endian `bytes` encode, a
    /// trailing partial element ignored, reserving exactly what they need
    /// beyond the spare capacity — the one LE parser: a payload that
    /// arrives in pieces is converted piece by piece, and
    /// [`Buffer::from_le_bytes`] is the one-piece case.
    pub(crate) fn extend_from_le_bytes(&mut self, bytes: &[u8]) {
        macro_rules! parse {
            ($v:expr, $t:ty, $w:expr) => {{
                let (src, _) = bytes.as_chunks::<$w>();
                $v.reserve_exact(src.len());
                $v.extend(src.iter().map(|c| <$t>::from_le_bytes(*c)));
            }};
        }
        match self {
            Buffer::F32(v) => parse!(v, f32, 4),
            Buffer::F64(v) => parse!(v, f64, 8),
            Buffer::I32(v) => parse!(v, i32, 4),
            Buffer::I64(v) => parse!(v, i64, 8),
            Buffer::U32(v) => parse!(v, u32, 4),
            Buffer::U64(v) => parse!(v, u64, 8),
        }
    }

    /// Elements the buffer can hold without reallocating.
    pub(crate) fn capacity(&self) -> usize {
        for_each_variant!(self, v => v.capacity())
    }

    /// Reserves room for exactly `additional` more elements.
    pub(crate) fn reserve_exact(&mut self, additional: usize) {
        for_each_variant!(self, v => v.reserve_exact(additional))
    }

    /// An empty buffer of `dtype` with room for `capacity` elements —
    /// the starting point for assembling output by [`Buffer::append_from`]
    /// without paying a zero-fill first.
    pub fn with_capacity(dtype: DType, capacity: usize) -> Buffer {
        match dtype {
            DType::F32 => Buffer::F32(Vec::with_capacity(capacity)),
            DType::F64 => Buffer::F64(Vec::with_capacity(capacity)),
            DType::I32 => Buffer::I32(Vec::with_capacity(capacity)),
            DType::I64 => Buffer::I64(Vec::with_capacity(capacity)),
            DType::U32 => Buffer::U32(Vec::with_capacity(capacity)),
            DType::U64 => Buffer::U64(Vec::with_capacity(capacity)),
        }
    }

    /// Appends `count` elements starting at `src_off` in `src` to the end
    /// of `self`. Both buffers must share a dtype.
    ///
    /// With [`Buffer::with_capacity`] this assembles an exactly-tiled
    /// reader box as one run of block copies, skipping the zero-fill that
    /// [`Buffer::zeros`] + scatter writes would pay.
    pub fn append_from(&mut self, src: &Buffer, src_off: usize, count: usize) -> DataResult<()> {
        if self.dtype() != src.dtype() {
            return Err(DataError::DTypeMismatch {
                expected: self.dtype(),
                found: src.dtype(),
            });
        }
        if src_off + count > src.len() {
            return Err(DataError::RegionOutOfBounds {
                detail: format!(
                    "append of {count} elems at src offset {src_off} exceeds source length {}",
                    src.len()
                ),
            });
        }
        macro_rules! append {
            ($d:ident, $s:ident) => {
                $d.extend_from_slice(&$s[src_off..src_off + count])
            };
        }
        match (self, src) {
            (Buffer::F32(d), Buffer::F32(s)) => append!(d, s),
            (Buffer::F64(d), Buffer::F64(s)) => append!(d, s),
            (Buffer::I32(d), Buffer::I32(s)) => append!(d, s),
            (Buffer::I64(d), Buffer::I64(s)) => append!(d, s),
            (Buffer::U32(d), Buffer::U32(s)) => append!(d, s),
            (Buffer::U64(d), Buffer::U64(s)) => append!(d, s),
            _ => unreachable!("dtype equality checked above"),
        }
        Ok(())
    }
}

/// The widest output row [`Buffer::gather_dim_into`] builds from a table of
/// source offsets; wider rows are copied run by run.
const TABLE_WIDTH: usize = 8;

/// [`Buffer::gather_dim_into`] over a typed `[pre][d][post]` slice: `out`
/// is cleared and every path appends to it, so its capacity is reused and
/// no element is written twice.
fn gather_rows<T: Copy>(
    src: &[T],
    d: usize,
    post: usize,
    indices: &[usize],
    mut out: Vec<T>,
) -> Vec<T> {
    out.clear();
    if indices.iter().copied().eq(0..d) {
        out.extend_from_slice(src);
        return out;
    }
    let row = d * post;
    let width = indices.len() * post;
    if width > TABLE_WIDTH {
        gather_runs(src, row, &coalesce_runs(indices, post), width, &mut out);
        return out;
    }
    let offsets: Vec<usize> = indices
        .iter()
        .flat_map(|&i| i * post..(i + 1) * post)
        .collect();
    match width {
        0 => {}
        1 => gather_table::<T, 1>(src, row, &offsets, &mut out),
        2 => gather_table::<T, 2>(src, row, &offsets, &mut out),
        3 => gather_table::<T, 3>(src, row, &offsets, &mut out),
        4 => gather_table::<T, 4>(src, row, &offsets, &mut out),
        5 => gather_table::<T, 5>(src, row, &offsets, &mut out),
        6 => gather_table::<T, 6>(src, row, &offsets, &mut out),
        7 => gather_table::<T, 7>(src, row, &offsets, &mut out),
        8 => gather_table::<T, 8>(src, row, &offsets, &mut out),
        _ => unreachable!("wider rows are copied run by run"),
    }
    out
}

/// Appends, for every `row`-element row of `src`, the `W`-element row
/// whose element `k` is the source row's element `offsets[k]`. With `W`
/// known to the compiler each output row is a few register moves and one
/// store, and the iterator's exact length reserves `out` once.
fn gather_table<T: Copy, const W: usize>(
    src: &[T],
    row: usize,
    offsets: &[usize],
    out: &mut Vec<T>,
) {
    let table: [usize; W] = offsets.try_into().expect("caller matched the row width");
    out.extend(
        src.chunks_exact(row)
            .flat_map(|r| std::array::from_fn::<T, W, _>(|k| r[table[k]])),
    );
}

/// Coalesces row indices of a `[d][post]` source row into `(start, len)`
/// element runs: consecutive indices `i, i + 1` are adjacent in memory, so
/// they extend one run instead of opening another.
fn coalesce_runs(indices: &[usize], post: usize) -> Vec<(usize, usize)> {
    let mut runs: Vec<(usize, usize)> = Vec::new();
    for &i in indices {
        match runs.last_mut() {
            Some((start, len)) if *start + *len == i * post => *len += post,
            _ => runs.push((i * post, post)),
        }
    }
    runs
}

/// Appends `runs` of every `row`-element row of `src`, in order, to `out`:
/// `width` elements per row.
fn gather_runs<T: Copy>(
    src: &[T],
    row: usize,
    runs: &[(usize, usize)],
    width: usize,
    out: &mut Vec<T>,
) {
    out.reserve(src.len() / row * width);
    for src_row in src.chunks_exact(row) {
        for &(start, len) in runs {
            out.extend_from_slice(&src_row[start..start + len]);
        }
    }
}

/// A reference-counted, immutable-by-default payload: the unit of sharing
/// on the zero-copy data plane.
///
/// A writer hands its owned [`Buffer`] to the stream once; the step slot,
/// every subscribed reader group, and every downstream forward then share
/// that single allocation by `Arc` clone. Mutation goes through
/// [`SharedBuffer::make_mut`], which is copy-on-write: free while the rank
/// holds the only reference (the common per-step kernel case), a deep copy
/// only when the payload is genuinely shared.
///
/// Derefs to [`Buffer`], so all read-side accessors (`len`, `get_f64`,
/// `as_f64_slice`, …) apply directly.
#[derive(Debug, Clone)]
pub struct SharedBuffer(Arc<Buffer>);

impl SharedBuffer {
    /// Wraps an owned buffer (no copy).
    pub fn new(buffer: Buffer) -> SharedBuffer {
        SharedBuffer(Arc::new(buffer))
    }

    /// Consumes the payload into `f64` values, moving (not copying) the
    /// storage when it is uniquely held and already `F64`.
    pub fn into_f64_vec(self) -> Vec<f64> {
        match Arc::try_unwrap(self.0) {
            Ok(b) => b.into_f64_vec(),
            Err(shared) => shared.to_f64_vec(),
        }
    }

    /// The payload itself, when this is its only handle; otherwise the
    /// handle back. What a writer uses to take back storage every holder
    /// it handed the payload to has dropped.
    pub fn try_unwrap(this: SharedBuffer) -> Result<Buffer, SharedBuffer> {
        Arc::try_unwrap(this.0).map_err(SharedBuffer)
    }

    /// Mutable access, copy-on-write: no copy while uniquely held.
    pub fn make_mut(&mut self) -> &mut Buffer {
        Arc::make_mut(&mut self.0)
    }

    /// True when both handles share one allocation — what the zero-copy
    /// tests assert instead of comparing contents.
    pub fn shares_allocation(a: &SharedBuffer, b: &SharedBuffer) -> bool {
        Arc::ptr_eq(&a.0, &b.0)
    }

    /// A token naming this allocation without keeping its payload alive.
    pub fn allocation_id(&self) -> AllocationId {
        AllocationId(Arc::downgrade(&self.0))
    }
}

/// The identity of one [`SharedBuffer`] allocation. Holding it does not pin
/// the payload, yet it can never name a later allocation by accident: the
/// weak count keeps the address reserved after the payload is freed.
#[derive(Debug, Clone)]
pub struct AllocationId(Weak<Buffer>);

impl AllocationId {
    /// True when `buffer` is a handle to the allocation this id was taken
    /// from.
    pub fn names(&self, buffer: &SharedBuffer) -> bool {
        std::ptr::eq(self.0.as_ptr(), Arc::as_ptr(&buffer.0))
    }
}

impl std::ops::Deref for SharedBuffer {
    type Target = Buffer;

    fn deref(&self) -> &Buffer {
        &self.0
    }
}

impl From<Buffer> for SharedBuffer {
    fn from(b: Buffer) -> SharedBuffer {
        SharedBuffer::new(b)
    }
}

impl PartialEq for SharedBuffer {
    fn eq(&self, other: &SharedBuffer) -> bool {
        Arc::ptr_eq(&self.0, &other.0) || *self.0 == *other.0
    }
}

impl PartialEq<Buffer> for SharedBuffer {
    fn eq(&self, other: &Buffer) -> bool {
        *self.0 == *other
    }
}

impl PartialEq<SharedBuffer> for Buffer {
    fn eq(&self, other: &SharedBuffer) -> bool {
        *self == *other.0
    }
}

impl From<Vec<f64>> for Buffer {
    fn from(v: Vec<f64>) -> Self {
        Buffer::F64(v)
    }
}

impl From<Vec<f32>> for Buffer {
    fn from(v: Vec<f32>) -> Self {
        Buffer::F32(v)
    }
}

impl From<Vec<i64>> for Buffer {
    fn from(v: Vec<i64>) -> Self {
        Buffer::I64(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dtype_names_round_trip() {
        let all = [
            DType::F32,
            DType::F64,
            DType::I32,
            DType::I64,
            DType::U32,
            DType::U64,
        ];
        for dt in all {
            assert_eq!(all.iter().filter(|d| d.name() == dt.name()).count(), 1);
            assert_eq!(DType::from_tag(dt.tag()).unwrap(), dt);
        }
        assert!(DType::from_tag(99).is_err());
    }

    #[test]
    fn zeros_len_and_bytes() {
        let b = Buffer::zeros(DType::F32, 10);
        assert_eq!(b.len(), 10);
        assert_eq!(b.byte_len(), 40);
        assert!(!b.is_empty());
        assert!(Buffer::zeros(DType::I64, 0).is_empty());
    }

    #[test]
    fn f64_round_trip_is_lossless_for_f64() {
        let b = Buffer::F64(vec![1.5, -2.25, 1e300]);
        assert_eq!(b.to_f64_vec(), vec![1.5, -2.25, 1e300]);
        assert_eq!(b.as_f64_slice().unwrap(), &[1.5, -2.25, 1e300]);
        let back = Buffer::from_f64_vec(DType::F64, b.to_f64_vec());
        assert_eq!(back, b);
    }

    #[test]
    fn integer_widening_and_narrowing() {
        let b = Buffer::I64(vec![-5, 0, 1 << 40]);
        assert_eq!(b.get_f64(0), -5.0);
        assert_eq!(b.get_f64(2), (1u64 << 40) as f64);
        assert!(b.as_f64_slice().is_none());
        let narrowed = Buffer::from_f64_vec(DType::I32, vec![3.7, -2.2]);
        assert_eq!(narrowed, Buffer::I32(vec![3, -2]));
    }

    #[test]
    fn copy_from_happy_path() {
        let src = Buffer::F64(vec![1.0, 2.0, 3.0, 4.0]);
        let mut dst = Buffer::zeros(DType::F64, 4);
        dst.copy_from(1, &src, 2, 2).unwrap();
        assert_eq!(dst, Buffer::F64(vec![0.0, 3.0, 4.0, 0.0]));
    }

    #[test]
    fn copy_from_rejects_dtype_mismatch_and_overrun() {
        let src = Buffer::F32(vec![1.0]);
        let mut dst = Buffer::zeros(DType::F64, 4);
        assert!(matches!(
            dst.copy_from(0, &src, 0, 1),
            Err(DataError::DTypeMismatch { .. })
        ));
        let src = Buffer::F64(vec![1.0]);
        assert!(matches!(
            dst.copy_from(3, &src, 0, 2),
            Err(DataError::RegionOutOfBounds { .. })
        ));
    }

    #[test]
    fn gather_dim_selects_rows_in_order() {
        // 2 x 3 x 2 array, values 0..12; keep middle rows [2, 0].
        let b = Buffer::I64((0..12).collect());
        let out = b.gather_dim(2, 3, 2, &[2, 0]);
        assert_eq!(out, Buffer::I64(vec![4, 5, 0, 1, 10, 11, 6, 7]));
        // Empty selection.
        assert_eq!(b.gather_dim(2, 3, 2, &[]).len(), 0);
    }

    #[test]
    fn gather_dim_rows_either_side_of_the_table_width_match_per_element() {
        // Output rows of 8 elements (built from an offset table) and of 9
        // (copied run by run), in order, reversed, with gaps and repeats.
        let (pre, d) = (3, 7);
        let cases: [(usize, &[usize]); 6] = [
            (1, &[0, 1, 2, 3, 4, 5, 6, 6]),
            (1, &[6, 5, 4, 3, 2, 1, 0, 2, 2]),
            (2, &[5, 0, 3, 3]),
            (3, &[6, 1, 2]),
            (4, &[1, 2]),
            (9, &[4]),
        ];
        let all = [
            DType::F32,
            DType::F64,
            DType::I32,
            DType::I64,
            DType::U32,
            DType::U64,
        ];
        for (post, indices) in cases {
            let width = indices.len() * post;
            assert!(width == 8 || width == 9, "{width}");
            let values: Vec<f64> = (0..pre * d * post).map(|i| i as f64).collect();
            let expected: Vec<f64> = (0..pre)
                .flat_map(|p| indices.iter().map(move |&i| (p, i)))
                .flat_map(|(p, i)| (0..post).map(move |q| ((p * d + i) * post + q) as f64))
                .collect();
            for dtype in all {
                let out =
                    Buffer::from_f64_vec(dtype, values.clone()).gather_dim(pre, d, post, indices);
                assert_eq!(out.dtype(), dtype);
                assert_eq!(
                    out.to_f64_vec(),
                    expected,
                    "{dtype:?} post {post} rows {indices:?}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn gather_dim_checks_indices() {
        Buffer::F64(vec![0.0; 6]).gather_dim(1, 3, 2, &[3]);
    }

    #[test]
    fn le_bytes_round_trip_all_dtypes() {
        let cases = vec![
            Buffer::F32(vec![1.5, -0.25]),
            Buffer::F64(vec![std::f64::consts::PI, -1e-200]),
            Buffer::I32(vec![i32::MIN, -1, i32::MAX]),
            Buffer::I64(vec![i64::MIN, 0, i64::MAX]),
            Buffer::U32(vec![0, u32::MAX]),
            Buffer::U64(vec![u64::MAX, 7]),
        ];
        for b in cases {
            let bytes = b.to_le_bytes();
            let back = Buffer::from_le_bytes(b.dtype(), b.len(), &bytes).unwrap();
            assert_eq!(back, b);
        }
    }

    #[test]
    fn append_le_bytes_appends_across_block_boundaries() {
        // Lengths straddling the 4096-byte staging block (512 f64 / 1024
        // u32 per block), appended after bytes already in the destination.
        for n in [0usize, 1, 511, 512, 513, 1024, 1025, 3000] {
            let wide = Buffer::F64((0..n).map(|i| i as f64 * 0.5 - 7.0).collect());
            let narrow = Buffer::U32((0..n as u32).map(|i| i.wrapping_mul(2654435761)).collect());
            for b in [wide, narrow] {
                let mut out = vec![0xaa, 0xbb];
                b.append_le_bytes(&mut out);
                assert_eq!(&out[..2], &[0xaa, 0xbb]);
                assert_eq!(out.len(), 2 + b.byte_len());
                let back = Buffer::from_le_bytes(b.dtype(), b.len(), &out[2..]).unwrap();
                assert_eq!(back, b, "n = {n}");
            }
        }
    }

    #[test]
    fn append_le_range_emits_that_slice_of_the_payload() {
        let wide = Buffer::F64((0..1500).map(|i| i as f64 - 0.25).collect());
        let narrow = Buffer::I32((0..1500).map(|i| i * -7).collect());
        for b in [wide, narrow] {
            let w = b.dtype().elem_bytes();
            let all = b.to_le_bytes();
            for range in [0..0, 0..1, 3..700, 511..1025, 1499..1500, 0..1500] {
                let mut out = vec![0xcc];
                b.append_le_range(range.clone(), &mut out);
                assert_eq!(out[1..], all[range.start * w..range.end * w], "{range:?}");
            }
        }
    }

    #[test]
    fn from_le_bytes_rejects_truncation() {
        let b = Buffer::F64(vec![1.0, 2.0]);
        let bytes = b.to_le_bytes();
        assert!(Buffer::from_le_bytes(DType::F64, 2, &bytes[..15]).is_err());
    }
}
