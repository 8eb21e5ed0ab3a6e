//! Wire frames for chunks in flight — the frame codec of the TCP transport.
//!
//! Streaming transports move writer-side *chunks*: the metadata of the
//! global variable, the bounding box one rank contributes, and the raw
//! payload covering that box. This module encodes exactly that triple with
//! the [`crate::cursor`] primitives (length-prefixed strings, little-endian
//! integers) and [`Buffer::append_le_bytes`] payloads. The file container
//! (`container`) frames each variable with the same [`encode_meta`], so a
//! step is described byte-identically whether it crosses a thread boundary,
//! a socket or a file.
//!
//! ```text
//! meta   := str name | u8 dtype | u16 ndims | { str dim_name | u64 size }*
//!           | u32 nheaders | { u16 dim | u32 n | str* }*
//!           | u32 nattrs | { str key | u8 kind | str value }*
//! region := u16 ndims | { u64 offset | u64 count }*
//! chunk  := meta | region | u64 nelems | raw little-endian payload
//! str    := u32 byte_len | utf-8 bytes
//! ```
//!
//! Protocol v2 of the TCP transport stops re-sending `meta` every step:
//! the sender interns each distinct [`VariableMeta`] into a
//! [`MetaInternTable`] and ships a numbered *definition* once, after which
//! chunks reference it by id ([`encode_chunk_interned`]); the receiver
//! replays definitions into [`MetaDefs`] in the same order. Interned chunks
//! may also carry their payload compressed (see [`Compression`] and
//! [`crate::compress`]):
//!
//! ```text
//! def    := u32 meta_id | meta                      (ids are sequential)
//! ichunk := u32 meta_id | region | u64 nelems | u8 codec | payload
//! payload(raw) := raw little-endian bytes
//! payload(lz)  := u64 compressed_len | lz block
//! ```
//!
//! Decoding is total: truncated or corrupt input yields a
//! [`DataError::Container`] (or another typed `DataError` from the chunk
//! validators), never a panic and never an unbounded allocation — vector
//! capacities are clamped by what the bytes actually remaining could
//! possibly encode. Encoding is total over *valid* data but fallible:
//! counts that would silently truncate in a `u16`/`u32` field (a 65536-dim
//! shape, a 4 GiB string) come back as a `DataError` instead of a frame the
//! hardened decoder then misparses.

use std::collections::{BTreeMap, HashMap};

use crate::buffer::{Buffer, DType};
use crate::chunk::{Chunk, VariableMeta};
use crate::compress::{lz_compress_into, lz_decompress};
use crate::cursor::{
    fits, get_str, get_u16, get_u32, get_u64, get_u8, put_str, put_u16, put_u32, put_u64, put_u8,
    take,
};
use crate::dims::{Dim, Shape};
use crate::error::{DataError, DataResult};
use crate::region::Region;
use crate::variable::AttrValue;

/// Clamps an untrusted element count to what the remaining bytes could
/// possibly encode, so a corrupt header cannot force a huge pre-allocation.
///
/// The clamp divides by the smallest *encoded* size of one entry, not by
/// one byte: a decoded `Dim` or `String` occupies 24–48 heap bytes, so a
/// byte-count clamp would still let a short corrupt frame demand an
/// allocation tens of times larger than the input it arrived in.
pub(crate) fn bounded(n: usize, remaining: usize, min_entry_bytes: usize) -> usize {
    n.min(remaining / min_entry_bytes.max(1))
}

/// Smallest encoded dimension entry: an empty name (4-byte length prefix)
/// plus the u64 size.
const MIN_DIM_BYTES: usize = 12;
/// Smallest encoded label name: the 4-byte length prefix of "".
const MIN_STR_BYTES: usize = 4;

/// Appends the encoded metadata of a variable to `buf`.
pub fn encode_meta(buf: &mut Vec<u8>, meta: &VariableMeta) -> DataResult<()> {
    put_str(buf, &meta.name)?;
    put_u8(buf, meta.dtype.tag());
    put_u16(buf, fits(meta.shape.ndims(), "dimension count")?);
    for d in meta.shape.dims() {
        put_str(buf, &d.name)?;
        put_u64(buf, d.size as u64);
    }
    put_u32(buf, fits(meta.labels.len(), "label header count")?);
    for (&dim, names) in &meta.labels {
        put_u16(buf, fits(dim, "label dimension")?);
        put_u32(buf, fits(names.len(), "label count")?);
        for n in names {
            put_str(buf, n)?;
        }
    }
    put_u32(buf, fits(meta.attrs.len(), "attr count")?);
    for (k, a) in &meta.attrs {
        put_str(buf, k)?;
        let (kind, text) = match a {
            AttrValue::Text(s) => (0u8, s.clone()),
            AttrValue::Int(i) => (1u8, i.to_string()),
            AttrValue::Float(x) => (2u8, format!("{x:?}")),
        };
        put_u8(buf, kind);
        put_str(buf, &text)?;
    }
    Ok(())
}

/// Decodes variable metadata, advancing `buf` past it.
pub fn decode_meta(buf: &mut &[u8]) -> DataResult<VariableMeta> {
    let name = get_str(buf, "variable name")?;
    let dtype = DType::from_tag(get_u8(buf, "dtype")?)?;
    let ndims = get_u16(buf, "dimension count")? as usize;
    let mut dims = Vec::with_capacity(bounded(ndims, buf.len(), MIN_DIM_BYTES));
    for _ in 0..ndims {
        let dname = get_str(buf, "dimension name")?;
        dims.push(Dim::new(dname, get_u64(buf, "dimension size")? as usize));
    }
    let shape = Shape::new(dims);
    let nheaders = get_u32(buf, "header count")? as usize;
    let mut labels = BTreeMap::new();
    for _ in 0..nheaders {
        let dim = get_u16(buf, "header dimension")? as usize;
        let n = get_u32(buf, "label count")? as usize;
        let mut names = Vec::with_capacity(bounded(n, buf.len(), MIN_STR_BYTES));
        for _ in 0..n {
            names.push(get_str(buf, "label")?);
        }
        // Encoding iterates a map, so a valid frame names each dimension at
        // most once; accepting a duplicate here would silently drop the
        // first entry and break decode∘encode = id.
        if labels.insert(dim, names).is_some() {
            return Err(DataError::Container {
                detail: format!("duplicate label header for dimension {dim}"),
            });
        }
    }
    let nattrs = get_u32(buf, "attr count")? as usize;
    let mut attrs = BTreeMap::new();
    for _ in 0..nattrs {
        let key = get_str(buf, "attr key")?;
        let kind = get_u8(buf, "attr kind")?;
        let text = get_str(buf, "attr value")?;
        let value = match kind {
            0 => AttrValue::Text(text),
            1 => AttrValue::Int(text.parse().map_err(|_| DataError::Container {
                detail: format!("bad int attr {text:?}"),
            })?),
            2 => AttrValue::Float(text.parse().map_err(|_| DataError::Container {
                detail: format!("bad float attr {text:?}"),
            })?),
            k => {
                return Err(DataError::Container {
                    detail: format!("unknown attr kind {k}"),
                })
            }
        };
        if attrs.insert(key.clone(), value).is_some() {
            return Err(DataError::Container {
                detail: format!("duplicate attribute {key:?}"),
            });
        }
    }
    Ok(VariableMeta {
        name,
        shape,
        dtype,
        labels,
        attrs,
    })
}

/// Appends an encoded bounding box to `buf`.
pub fn encode_region(buf: &mut Vec<u8>, region: &Region) -> DataResult<()> {
    put_u16(buf, fits(region.ndims(), "region rank")?);
    for (&offset, &count) in region.offset().iter().zip(region.count()) {
        put_u64(buf, offset as u64);
        put_u64(buf, count as u64);
    }
    Ok(())
}

/// Decodes a bounding box, advancing `buf` past it.
pub fn decode_region(buf: &mut &[u8]) -> DataResult<Region> {
    let ndims = get_u16(buf, "region rank")? as usize;
    let cap = bounded(ndims, buf.len(), 16);
    let (mut offset, mut count) = (Vec::with_capacity(cap), Vec::with_capacity(cap));
    for _ in 0..ndims {
        offset.push(get_u64(buf, "region offset")? as usize);
        count.push(get_u64(buf, "region count")? as usize);
    }
    Ok(Region::new(offset, count))
}

/// Appends one encoded chunk — metadata, region, payload — to `buf`.
pub fn encode_chunk(buf: &mut Vec<u8>, chunk: &Chunk) -> DataResult<()> {
    buf.reserve(chunk.byte_len() + 128);
    encode_meta(buf, &chunk.meta)?;
    encode_region(buf, &chunk.region)?;
    put_u64(buf, chunk.data.len() as u64);
    chunk.data.append_le_bytes(buf);
    Ok(())
}

/// Validates the `nelems` field of a chunk header against its region and
/// dtype, returning the payload byte count a well-formed frame must carry.
pub(crate) fn validated_payload_bytes(
    meta: &VariableMeta,
    region: &Region,
    nelems: usize,
) -> DataResult<usize> {
    // region.len() multiplies extents unchecked; corrupt counts could
    // overflow, so fold with checked_mul before trusting the volume.
    let volume = region
        .count()
        .iter()
        .try_fold(1usize, |acc, &c| acc.checked_mul(c))
        .ok_or_else(|| DataError::Container {
            detail: format!("{:?}: region volume overflows usize", meta.name),
        })?;
    if nelems != volume {
        return Err(DataError::Container {
            detail: format!(
                "{:?}: payload count {nelems} != region volume {volume}",
                meta.name
            ),
        });
    }
    nelems
        .checked_mul(meta.dtype.elem_bytes())
        .ok_or_else(|| DataError::Container {
            detail: format!("{:?}: payload size overflows usize", meta.name),
        })
}

/// Decodes one chunk, advancing `buf` past it.
///
/// Runs the full [`Chunk::new`] validation (region-vs-shape, payload length,
/// dtype, header consistency), so a frame that decodes successfully is safe
/// to hand to the MxN assembly path.
pub fn decode_chunk(buf: &mut &[u8]) -> DataResult<Chunk> {
    let meta = decode_meta(buf)?;
    let region = decode_region(buf)?;
    let nelems = get_u64(buf, "element count")? as usize;
    let nbytes = validated_payload_bytes(&meta, &region, nelems)?;
    let data = Buffer::from_le_bytes(meta.dtype, nelems, take(buf, nbytes, "payload")?)?;
    Chunk::new(meta, region, data)
}

// ---------------------------------------------------------------------------
// Protocol v2: interned metadata and optional payload compression.
// ---------------------------------------------------------------------------

/// Payload codecs an interned chunk may carry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Compression {
    /// Raw little-endian payload bytes, exactly as protocol v1 frames them.
    #[default]
    None,
    /// The [`crate::compress`] LZ77 block codec, applied per chunk payload.
    Lz,
}

impl Compression {
    /// The one-byte wire tag.
    pub fn tag(self) -> u8 {
        match self {
            Compression::None => 0,
            Compression::Lz => 1,
        }
    }

    /// Parses a wire tag.
    pub fn from_tag(tag: u8) -> DataResult<Compression> {
        match tag {
            0 => Ok(Compression::None),
            1 => Ok(Compression::Lz),
            t => Err(DataError::Container {
                detail: format!("unknown compression codec {t}"),
            }),
        }
    }

    /// The human name used in flags, benchmarks, and reports.
    pub fn name(self) -> &'static str {
        match self {
            Compression::None => "none",
            Compression::Lz => "lz",
        }
    }
}

/// Sender-side interning table: assigns each distinct [`VariableMeta`] a
/// sequential u32 id and keeps its pre-encoded definition.
///
/// Ids are append-only and never redefined: when a variable's metadata
/// *changes* (a growing dimension, a new attribute) the changed meta gets a
/// fresh id, so any definition a receiver has already applied stays valid
/// forever. A receiver is up to date when it has applied every definition
/// below the table's [`len`](MetaInternTable::len) — which is what lets one
/// broker-side table serve many reader connections that joined at
/// different times.
#[derive(Debug, Default)]
pub struct MetaInternTable {
    by_name: HashMap<String, u32>,
    /// Indexed by id: the interned meta and its encoded `def` frame.
    entries: Vec<(VariableMeta, Vec<u8>)>,
}

impl MetaInternTable {
    /// An empty table.
    pub fn new() -> MetaInternTable {
        MetaInternTable::default()
    }

    /// The id for `meta`, interning it (or its changed successor) on first
    /// sight.
    pub fn intern(&mut self, meta: &VariableMeta) -> DataResult<u32> {
        if let Some(&id) = self.by_name.get(&meta.name) {
            if self.entries[id as usize].0 == *meta {
                return Ok(id);
            }
        }
        let id = fits(self.entries.len(), "meta intern id")?;
        let mut def = Vec::new();
        put_u32(&mut def, id);
        encode_meta(&mut def, meta)?;
        self.by_name.insert(meta.name.clone(), id);
        self.entries.push((meta.clone(), def));
        Ok(id)
    }

    /// The meta interned under `id`, if any — still valid after a later
    /// [`intern`](MetaInternTable::intern) redefined its name.
    pub fn meta(&self, id: u32) -> Option<&VariableMeta> {
        self.entries.get(id as usize).map(|(meta, _)| meta)
    }

    /// Number of definitions interned so far; ids run `0..len()`.
    pub fn len(&self) -> u32 {
        self.entries.len() as u32
    }

    /// True when nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Appends the encoded definitions with ids in `from..len()` to `buf`,
    /// returning how many were appended. This is the catch-up prelude for a
    /// receiver whose high-water mark is `from`.
    pub fn append_defs_since(&self, from: u32, buf: &mut Vec<u8>) -> u32 {
        let start = (from as usize).min(self.entries.len());
        for (_, def) in &self.entries[start..] {
            buf.extend_from_slice(def);
        }
        (self.entries.len() - start) as u32
    }
}

/// Receiver-side definition store: metas indexed by interned id.
#[derive(Debug, Default)]
pub struct MetaDefs {
    metas: Vec<VariableMeta>,
}

impl MetaDefs {
    /// An empty store.
    pub fn new() -> MetaDefs {
        MetaDefs::default()
    }

    /// Decodes one `def` frame, advancing `buf` past it. Definitions must
    /// arrive in id order with no gaps — anything else is a corrupt stream.
    pub fn decode_def(&mut self, buf: &mut &[u8]) -> DataResult<u32> {
        let id = get_u32(buf, "meta def id")?;
        if id as usize != self.metas.len() {
            return Err(DataError::Container {
                detail: format!(
                    "meta def id {id} out of order (expected {})",
                    self.metas.len()
                ),
            });
        }
        self.metas.push(decode_meta(buf)?);
        Ok(id)
    }

    /// Number of definitions applied so far.
    pub fn len(&self) -> u32 {
        self.metas.len() as u32
    }

    /// True when no definitions have been applied.
    pub fn is_empty(&self) -> bool {
        self.metas.is_empty()
    }

    /// The meta for an interned id.
    pub fn get(&self, id: u32) -> DataResult<&VariableMeta> {
        self.metas
            .get(id as usize)
            .ok_or_else(|| DataError::Container {
                detail: format!("chunk references unknown meta id {id}"),
            })
    }
}

/// What [`encode_chunk_interned`] put on the wire, for byte accounting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InternedEncode {
    /// Payload bytes before any compression.
    pub raw_payload: usize,
    /// Payload bytes actually framed (== `raw_payload` when stored raw).
    pub wire_payload: usize,
}

impl InternedEncode {
    /// True when compression was applied and won.
    pub fn compressed(&self) -> bool {
        self.wire_payload < self.raw_payload
    }
}

/// Payload bytes above which [`Compression::Lz`] decides from a sample.
///
/// Three element-aligned slices of `SAMPLE / 3` bytes — head, middle and
/// tail — are staged and compressed together (the sample fits the
/// compressor's 64 KiB window); a chunk whose sample does not shrink is
/// stored raw without staging or compressing the rest. Chunks of at most
/// `SAMPLE` bytes always try the whole payload.
const SAMPLE: usize = 48 << 10;

/// True when compressing `data` whole is worth trying: always for payloads
/// of at most [`SAMPLE`] bytes, otherwise only when its head, middle and
/// tail slices shrink under LZ.
fn lz_worth_trying(data: &Buffer) -> bool {
    let width = data.dtype().elem_bytes();
    let n = data.len();
    if n * width <= SAMPLE {
        return true;
    }
    let slice = SAMPLE / 3 / width;
    let mut sample = Vec::with_capacity(3 * slice * width);
    for start in [0, (n - slice) / 2, n - slice] {
        data.append_le_range(start..start + slice, &mut sample);
    }
    let mut packed = Vec::with_capacity(sample.len() + sample.len() / 8);
    lz_compress_into(&sample, &mut packed);
    packed.len() < sample.len()
}

/// Appends one interned chunk — meta id, region, payload — to `buf`.
///
/// `meta_id` must come from [`MetaInternTable::intern`] on the same
/// connection's table, and the matching definition must reach the receiver
/// no later than this chunk. With [`Compression::Lz`] the payload is
/// compressed per chunk and kept only if it actually shrank; incompressible
/// chunks fall back to raw storage, tagged as such. Above `SAMPLE` bytes
/// a sample decides first, and a chunk whose sample does not shrink is
/// emitted exactly as [`Compression::None`] would emit it, in one pass.
pub fn encode_chunk_interned(
    buf: &mut Vec<u8>,
    chunk: &Chunk,
    meta_id: u32,
    compression: Compression,
) -> DataResult<InternedEncode> {
    let raw_payload = chunk.byte_len();
    buf.reserve(raw_payload + 64);
    put_u32(buf, meta_id);
    encode_region(buf, &chunk.region)?;
    put_u64(buf, chunk.data.len() as u64);
    let codec_at = buf.len();
    if compression == Compression::Lz && lz_worth_trying(&chunk.data) {
        // The compressor needs the payload as bytes, so this path stages it
        // once; the block itself is written straight into the frame behind
        // a length placeholder, and rolled back if it did not shrink.
        let raw = chunk.data.to_le_bytes();
        put_u8(buf, Compression::Lz.tag());
        put_u64(buf, 0);
        let block_at = buf.len();
        lz_compress_into(&raw, buf);
        let packed = buf.len() - block_at;
        if packed + 8 < raw_payload {
            buf[block_at - 8..block_at].copy_from_slice(&(packed as u64).to_le_bytes());
            return Ok(InternedEncode {
                raw_payload,
                wire_payload: packed + 8,
            });
        }
        buf.truncate(codec_at);
        put_u8(buf, Compression::None.tag());
        buf.extend_from_slice(&raw);
    } else {
        put_u8(buf, Compression::None.tag());
        chunk.data.append_le_bytes(buf);
    }
    Ok(InternedEncode {
        raw_payload,
        wire_payload: raw_payload,
    })
}

/// Decodes one interned chunk against the definitions applied so far,
/// advancing `buf` past it. Runs the full [`Chunk::new`] validation, like
/// [`decode_chunk`].
pub fn decode_chunk_interned(buf: &mut &[u8], defs: &MetaDefs) -> DataResult<Chunk> {
    let meta = defs.get(get_u32(buf, "meta id")?)?.clone();
    let region = decode_region(buf)?;
    let nelems = get_u64(buf, "element count")? as usize;
    let nbytes = validated_payload_bytes(&meta, &region, nelems)?;
    let data = match Compression::from_tag(get_u8(buf, "payload codec")?)? {
        Compression::None => {
            Buffer::from_le_bytes(meta.dtype, nelems, take(buf, nbytes, "payload")?)?
        }
        Compression::Lz => {
            let clen = get_u64(buf, "compressed length")? as usize;
            let raw = lz_decompress(take(buf, clen, "compressed payload")?, nbytes)?;
            Buffer::from_le_bytes(meta.dtype, nelems, &raw)?
        }
    };
    Chunk::new(meta, region, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress::lz_compress;

    fn sample_chunk() -> Chunk {
        let mut meta = VariableMeta::new(
            "atoms",
            Shape::of(&[("particles", 4), ("props", 3)]),
            DType::F64,
        );
        meta.labels
            .insert(1, vec!["vx".into(), "vy".into(), "vz".into()]);
        meta.attrs
            .insert("units".into(), AttrValue::Text("lj".into()));
        meta.attrs.insert("interval".into(), AttrValue::Int(100));
        meta.attrs.insert("dt".into(), AttrValue::Float(0.005));
        Chunk::new(
            meta,
            Region::new(vec![1, 0], vec![2, 3]),
            Buffer::F64(vec![1.0, 2.0, f64::NAN, -0.0, 5.0, 6.5]),
        )
        .unwrap()
    }

    #[test]
    fn chunk_round_trips_bit_exactly() {
        let chunk = sample_chunk();
        let mut buf = Vec::new();
        encode_chunk(&mut buf, &chunk).unwrap();
        let mut slice: &[u8] = &buf;
        let back = decode_chunk(&mut slice).unwrap();
        assert!(slice.is_empty());
        assert_eq!(back.meta, chunk.meta);
        assert_eq!(back.region, chunk.region);
        // PartialEq on NaN payloads is false; compare raw bytes instead.
        assert_eq!(back.data.to_le_bytes(), chunk.data.to_le_bytes());
    }

    #[test]
    fn every_truncation_point_errors_cleanly() {
        let chunk = sample_chunk();
        let mut buf = Vec::new();
        encode_chunk(&mut buf, &chunk).unwrap();
        for cut in 0..buf.len() {
            let mut slice: &[u8] = &buf[..cut];
            assert!(
                decode_chunk(&mut slice).is_err(),
                "cut at {cut} of {} decoded",
                buf.len()
            );
        }
    }

    #[test]
    fn corrupt_header_errors_not_panics() {
        let chunk = sample_chunk();
        let mut clean = Vec::new();
        encode_chunk(&mut clean, &chunk).unwrap();
        // Flip each header byte in turn (leave the payload tail alone: raw
        // float bytes are all valid). Decoding must never panic; it either
        // errors or yields some validated chunk.
        let header_len = clean.len() - chunk.byte_len();
        for i in 0..header_len {
            for flip in [0xffu8, 0x01] {
                let mut bad = clean.clone();
                bad[i] ^= flip;
                let mut slice: &[u8] = &bad;
                let _ = decode_chunk(&mut slice);
            }
        }
    }

    #[test]
    fn corrupt_counts_cannot_overallocate() {
        // A frame whose header claims u16::MAX dimensions but carries only
        // a handful of bytes: the pre-allocation must be clamped by what
        // those bytes could encode (12 bytes per dim minimum), not by the
        // raw byte count — decoded `Dim`s occupy 24-48 heap bytes each.
        let mut buf = Vec::new();
        put_str(&mut buf, "v").unwrap();
        put_u8(&mut buf, DType::F64.tag());
        put_u16(&mut buf, u16::MAX);
        buf.extend_from_slice(&[0u8; 40]); // far too short for 65535 dims
        let remaining = buf.len();
        let mut slice: &[u8] = &buf;
        assert!(decode_meta(&mut slice).is_err());
        assert!(
            bounded(u16::MAX as usize, remaining, MIN_DIM_BYTES) <= remaining / MIN_DIM_BYTES,
            "clamp must divide by the encoded entry size"
        );
        // Same for a label header claiming u32::MAX names.
        assert_eq!(bounded(u32::MAX as usize, 40, MIN_STR_BYTES), 10);
    }

    #[test]
    fn oversized_counts_fail_to_encode() {
        // 65536 dimensions cannot ride a u16 field; the encoder must error
        // rather than truncate to 0 and emit a frame the decoder misreads.
        let dims: Vec<Dim> = (0..65536).map(|i| Dim::new(format!("d{i}"), 1)).collect();
        let meta = VariableMeta::new("wide", Shape::new(dims), DType::F64);
        let mut buf = Vec::new();
        assert!(encode_meta(&mut buf, &meta).is_err());

        let region = Region::new(vec![0; 65536], vec![1; 65536]);
        let mut buf = Vec::new();
        assert!(encode_region(&mut buf, &region).is_err());

        // A label keyed past u16::MAX dimensions is equally unencodable.
        let mut meta = sample_chunk().meta;
        meta.labels.insert(70000, vec!["x".into()]);
        let mut buf = Vec::new();
        assert!(encode_meta(&mut buf, &meta).is_err());
    }

    #[test]
    fn duplicate_label_headers_are_rejected() {
        // Hand-build a frame whose label section names dimension 1 twice;
        // `decode_meta` used to let the second entry silently overwrite the
        // first, making decode non-injective with encode.
        let meta = sample_chunk().meta;
        let mut buf = Vec::new();
        put_str(&mut buf, &meta.name).unwrap();
        put_u8(&mut buf, meta.dtype.tag());
        put_u16(&mut buf, 2);
        for d in meta.shape.dims() {
            put_str(&mut buf, &d.name).unwrap();
            put_u64(&mut buf, d.size as u64);
        }
        put_u32(&mut buf, 2); // two headers, same dimension
        for _ in 0..2 {
            put_u16(&mut buf, 1);
            put_u32(&mut buf, 1);
            put_str(&mut buf, "vx").unwrap();
        }
        put_u32(&mut buf, 0);
        let mut slice: &[u8] = &buf;
        let err = decode_meta(&mut slice).unwrap_err();
        assert!(
            matches!(&err, DataError::Container { detail } if detail.contains("duplicate label")),
            "{err:?}"
        );
    }

    #[test]
    fn mismatched_volume_is_rejected() {
        let chunk = sample_chunk();
        let mut buf = Vec::new();
        encode_meta(&mut buf, &chunk.meta).unwrap();
        // Region claiming a larger box than the payload that follows.
        encode_region(&mut buf, &Region::new(vec![0, 0], vec![4, 3])).unwrap();
        put_u64(&mut buf, 6);
        buf.extend_from_slice(&chunk.data.to_le_bytes());
        let mut slice: &[u8] = &buf;
        assert!(decode_chunk(&mut slice).is_err());
    }

    #[test]
    fn region_round_trip() {
        let r = Region::new(vec![3, 0, 7], vec![2, 5, 1]);
        let mut buf = Vec::new();
        encode_region(&mut buf, &r).unwrap();
        let mut slice: &[u8] = &buf;
        assert_eq!(decode_region(&mut slice).unwrap(), r);
        assert!(slice.is_empty());
    }

    #[test]
    fn interned_chunks_round_trip_without_resending_meta() {
        let chunk = sample_chunk();
        let mut table = MetaInternTable::new();
        let mut defs = MetaDefs::new();
        let mut frame = Vec::new();

        let id = table.intern(&chunk.meta).unwrap();
        assert_eq!(id, 0);
        assert_eq!(table.intern(&chunk.meta).unwrap(), 0, "stable id");
        let mut def_bytes = Vec::new();
        assert_eq!(table.append_defs_since(0, &mut def_bytes), 1);
        let mut slice: &[u8] = &def_bytes;
        defs.decode_def(&mut slice).unwrap();
        assert!(slice.is_empty());

        for codec in [Compression::None, Compression::Lz] {
            frame.clear();
            encode_chunk_interned(&mut frame, &chunk, id, codec).unwrap();
            let mut slice: &[u8] = &frame;
            let back = decode_chunk_interned(&mut slice, &defs).unwrap();
            assert!(slice.is_empty());
            assert_eq!(back.meta, chunk.meta);
            assert_eq!(back.region, chunk.region);
            assert_eq!(back.data.to_le_bytes(), chunk.data.to_le_bytes());
        }
    }

    #[test]
    fn changed_meta_gets_a_fresh_id_never_a_redefinition() {
        let chunk = sample_chunk();
        let mut table = MetaInternTable::new();
        let id0 = table.intern(&chunk.meta).unwrap();
        let mut grown = chunk.meta.clone();
        grown.attrs.insert("step".into(), AttrValue::Int(7));
        let id1 = table.intern(&grown).unwrap();
        assert_ne!(id0, id1);
        assert_eq!(table.len(), 2);
        // A receiver that already applied id0 catches up with just id1.
        let mut defs = MetaDefs::new();
        let mut all = Vec::new();
        table.append_defs_since(0, &mut all);
        let mut slice: &[u8] = &all;
        defs.decode_def(&mut slice).unwrap();
        defs.decode_def(&mut slice).unwrap();
        assert_eq!(defs.get(id1).unwrap(), &grown);
        assert_eq!(defs.get(id0).unwrap(), &chunk.meta);
    }

    #[test]
    fn out_of_order_defs_and_unknown_ids_are_rejected() {
        let chunk = sample_chunk();
        let mut table = MetaInternTable::new();
        table.intern(&chunk.meta).unwrap();
        let mut def = Vec::new();
        table.append_defs_since(0, &mut def);
        // Skipping id 0 (forging id 7) must not be applied.
        let mut forged = def.clone();
        forged[0] = 7;
        let mut defs = MetaDefs::new();
        let mut slice: &[u8] = &forged;
        assert!(defs.decode_def(&mut slice).is_err());
        // A chunk naming an id never defined is rejected at decode.
        let mut frame = Vec::new();
        encode_chunk_interned(&mut frame, &chunk, 3, Compression::None).unwrap();
        let mut slice: &[u8] = &frame;
        assert!(decode_chunk_interned(&mut slice, &defs).is_err());
    }

    #[test]
    fn interned_truncations_and_corruption_never_panic() {
        let chunk = sample_chunk();
        let mut table = MetaInternTable::new();
        let id = table.intern(&chunk.meta).unwrap();
        let mut defs = MetaDefs::new();
        let mut def = Vec::new();
        table.append_defs_since(0, &mut def);
        let mut slice: &[u8] = &def;
        defs.decode_def(&mut slice).unwrap();

        for codec in [Compression::None, Compression::Lz] {
            let mut frame = Vec::new();
            encode_chunk_interned(&mut frame, &chunk, id, codec).unwrap();
            for cut in 0..frame.len() {
                let mut slice: &[u8] = &frame[..cut];
                assert!(decode_chunk_interned(&mut slice, &defs).is_err());
            }
            for i in 0..frame.len() {
                for flip in [0xffu8, 0x01] {
                    let mut bad = frame.clone();
                    bad[i] ^= flip;
                    let mut slice: &[u8] = &bad;
                    let _ = decode_chunk_interned(&mut slice, &defs);
                }
            }
        }
    }

    #[test]
    fn incompressible_payloads_fall_back_to_raw_storage() {
        // A noise payload (xorshift bit patterns) cannot shrink; the
        // encoder must store it raw rather than grow the frame.
        let mut x = 0x243f_6a88_85a3_08d3u64;
        let noise: Vec<f64> = (0..16)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f64::from_bits(x)
            })
            .collect();
        let meta = VariableMeta::new("noise", Shape::of(&[("x", 16)]), DType::F64);
        let chunk = Chunk::new(meta, Region::new(vec![0], vec![16]), Buffer::F64(noise)).unwrap();
        let mut frame = Vec::new();
        let enc = encode_chunk_interned(&mut frame, &chunk, 0, Compression::Lz).unwrap();
        assert_eq!(enc.raw_payload, enc.wire_payload);
        assert!(!enc.compressed());

        // A constant 4096-element payload must compress hard.
        let meta = VariableMeta::new("flat", Shape::of(&[("x", 4096)]), DType::F64);
        let big = Chunk::new(
            meta,
            Region::new(vec![0], vec![4096]),
            Buffer::F64(vec![1.0; 4096]),
        )
        .unwrap();
        let mut frame = Vec::new();
        let enc = encode_chunk_interned(&mut frame, &big, 0, Compression::Lz).unwrap();
        assert!(enc.compressed());
        assert!(enc.wire_payload < enc.raw_payload / 50);
    }

    /// A 1-D f64 chunk over `values`.
    fn f64_chunk(values: Vec<f64>) -> Chunk {
        let n = values.len();
        let meta = VariableMeta::new("x", Shape::of(&[("x", n)]), DType::F64);
        Chunk::new(meta, Region::new(vec![0], vec![n]), Buffer::F64(values)).unwrap()
    }

    /// `n` xorshift bit patterns: payload bytes no LZ can shrink.
    fn noise(n: usize, mut x: u64) -> Vec<f64> {
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                f64::from_bits(x)
            })
            .collect()
    }

    fn encode(chunk: &Chunk, codec: Compression) -> (Vec<u8>, InternedEncode) {
        let mut frame = Vec::new();
        let enc = encode_chunk_interned(&mut frame, chunk, 0, codec).unwrap();
        (frame, enc)
    }

    /// The frame the encoder produced before the sample decision existed:
    /// the whole payload compressed, kept only if the block shrank.
    fn whole_payload_frame(chunk: &Chunk) -> Vec<u8> {
        let (raw_frame, _) = encode(chunk, Compression::None);
        let raw = chunk.data.to_le_bytes();
        let block = lz_compress(&raw);
        if block.len() + 8 >= raw.len() {
            return raw_frame;
        }
        let mut frame = raw_frame[..raw_frame.len() - raw.len() - 1].to_vec();
        frame.push(Compression::Lz.tag());
        frame.extend_from_slice(&(block.len() as u64).to_le_bytes());
        frame.extend_from_slice(&block);
        frame
    }

    #[test]
    fn incompressible_chunk_above_sample_is_framed_exactly_as_none() {
        let chunk = f64_chunk(noise(4 * SAMPLE / 8 + 3, 0x9e37_79b9));
        let (lz, enc) = encode(&chunk, Compression::Lz);
        assert!(!enc.compressed());
        assert_eq!(enc.wire_payload, chunk.byte_len());
        assert_eq!(lz, encode(&chunk, Compression::None).0);
    }

    #[test]
    fn compressible_chunk_above_sample_keeps_the_whole_payload_block() {
        let chunk = f64_chunk((0..SAMPLE).map(|i| (i % 97) as f64).collect());
        let (lz, enc) = encode(&chunk, Compression::Lz);
        assert!(enc.compressed());
        assert_eq!(lz, whole_payload_frame(&chunk));
        let block = lz_compress(&chunk.data.to_le_bytes());
        assert_eq!(&lz[lz.len() - block.len()..], &block[..]);
        assert_eq!(enc.wire_payload, block.len() + 8);
    }

    #[test]
    fn the_sample_spans_the_payload_not_just_its_head() {
        // Noise everywhere the head slice looks; the compressible part sits
        // only in the tail, or only in the middle.
        let n = SAMPLE; // f64 elements: eight times SAMPLE bytes
        let mut zero_tail = noise(n, 0x51);
        zero_tail[n * 3 / 4..].fill(0.0);
        let mut flat_middle = noise(n, 0x52);
        flat_middle[n * 3 / 8..n * 5 / 8].fill(2.5);
        for values in [zero_tail, flat_middle] {
            let chunk = f64_chunk(values);
            let (lz, enc) = encode(&chunk, Compression::Lz);
            assert!(enc.compressed());
            assert_eq!(lz, whole_payload_frame(&chunk));
        }
    }

    #[test]
    fn chunks_up_to_sample_try_the_whole_payload() {
        // At and below SAMPLE bytes there is no sample: a payload that is
        // noise but for a short constant run still gets the whole attempt,
        // whatever it decides.
        for n in [SAMPLE / 8, SAMPLE / 8 - 1, 1000, 1] {
            let mut values = noise(n, n as u64 | 1);
            let run = n / 4;
            values[n - run..].fill(-1.0);
            let chunk = f64_chunk(values);
            assert_eq!(
                encode(&chunk, Compression::Lz).0,
                whole_payload_frame(&chunk),
                "n = {n}"
            );
        }
    }
}
