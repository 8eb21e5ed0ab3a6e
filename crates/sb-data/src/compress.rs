//! A dependency-free LZ77 block codec for wire payloads.
//!
//! The TCP transport's protocol v2 can compress each chunk payload before
//! framing it (`sb_stream::tcp::TcpOptions::with_compression`). A
//! byte-oriented LZ with a 64 KiB window wins on integer columns and
//! constant fields, but little on raw floats: a LAMMPS frame (ID and Type
//! columns beside f64 velocities) shrinks by a ratio of 1.33, and GROMACS
//! coordinates not at all (0.996), so those are stored raw. The wire layer
//! decides per chunk from a bounded head/middle/tail sample before it
//! compresses a large payload whole (`sb_data::wire::encode_chunk_interned`).
//!
//! The format is the classic token stream of LZ4-style codecs:
//!
//! ```text
//! block    := sequence* | final_literals
//! sequence := token | lit_ext* | literal bytes | u16-LE offset | match_ext*
//! token    := (literal_len: high nibble) | (match_len - 4: low nibble)
//! ```
//!
//! A nibble of 15 spills into extension bytes (each `0xff` adds 255, the
//! first other byte terminates). Matches are at least [`MIN_MATCH`] bytes
//! and reference up to [`MAX_OFFSET`] bytes back; a match may overlap its
//! own output (offset < length), which is how runs compress. The final
//! sequence carries literals only — the input simply ends after them.
//!
//! Decoding is total: corrupt input yields a [`DataError::Container`],
//! never a panic, and the output allocation is bounded both by the caller's
//! `expected_len` (which the wire layer derives from the chunk header) and
//! by [`MAX_EXPANSION`] times the block's own length, so a forged header
//! cannot make a short block reserve more than the bytes that arrived could
//! decode to.

use crate::error::{DataError, DataResult};

/// Shortest encodable match.
const MIN_MATCH: usize = 4;
/// Farthest back a match may reach (u16 offset, 0 is invalid).
const MAX_OFFSET: usize = u16::MAX as usize;
/// Log2 of the compressor's hash-table size.
const HASH_BITS: u32 = 14;
/// Log2 of the consecutive misses that buy one more byte of stride (the
/// LZ4 skip trigger): positions are probed one by one for the first 64
/// misses, every second one for the next 64, and so on.
const SKIP_TRIGGER: u32 = 6;

/// Most output bytes one block byte can stand for: a `0xff` match-length
/// extension byte adds 255 (a token, the densest other byte, at most
/// 15 literals it does not hold itself plus a 19-byte match).
const MAX_EXPANSION: usize = 255;

/// Multiplicative hash of a 4-byte prefix into the match table.
#[inline]
fn hash4(v: u32) -> usize {
    (v.wrapping_mul(0x9e37_79b1) >> (32 - HASH_BITS)) as usize
}

#[inline]
fn load4(input: &[u8], i: usize) -> u32 {
    u32::from_le_bytes([input[i], input[i + 1], input[i + 2], input[i + 3]])
}

/// Length of the common prefix of `input[a..]` and `input[b..]`, capped so
/// the match never runs past the end of input. Compares a word at a time.
fn common_prefix(input: &[u8], a: usize, b: usize) -> usize {
    let max = input.len() - b;
    let mut k = 0;
    while k + 8 <= max {
        let x = u64::from_le_bytes(input[a + k..a + k + 8].try_into().expect("8-byte window"));
        let y = u64::from_le_bytes(input[b + k..b + k + 8].try_into().expect("8-byte window"));
        if x != y {
            return k + ((x ^ y).trailing_zeros() / 8) as usize;
        }
        k += 8;
    }
    while k < max && input[a + k] == input[b + k] {
        k += 1;
    }
    k
}

/// Appends a nibble-spilled length extension (LZ4 convention).
fn put_ext(out: &mut Vec<u8>, mut v: usize) {
    while v >= 255 {
        out.push(0xff);
        v -= 255;
    }
    out.push(v as u8);
}

/// Emits one sequence: `literals`, then optionally a match of `mlen` bytes
/// at `offset` back.
fn put_sequence(out: &mut Vec<u8>, literals: &[u8], m: Option<(usize, usize)>) {
    let lit = literals.len();
    let mnib = m.map_or(0, |(mlen, _)| (mlen - MIN_MATCH).min(15));
    out.push(((lit.min(15) as u8) << 4) | mnib as u8);
    if lit >= 15 {
        put_ext(out, lit - 15);
    }
    out.extend_from_slice(literals);
    if let Some((mlen, offset)) = m {
        out.extend_from_slice(&(offset as u16).to_le_bytes());
        if mlen - MIN_MATCH >= 15 {
            put_ext(out, mlen - MIN_MATCH - 15);
        }
    }
}

/// Compresses `input` into a fresh buffer.
///
/// Always succeeds; incompressible input comes back slightly larger (one
/// token per 15-byte literal run). Callers that care — the wire layer does —
/// compare lengths and keep the raw bytes instead.
pub fn lz_compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 4 + 16);
    lz_compress_into(input, &mut out);
    out
}

/// Compresses `input`, appending the block to `out` — the wire layer
/// compresses straight into the frame it is building.
///
/// The matcher gives up gracefully on incompressible input: the probe
/// stride grows with the run of consecutive misses (`1 + (misses >> 6)`, the
/// LZ4 rule) and resets on every match, so noise costs a fraction of a
/// probe per byte while structured payloads, whose matches keep the stride
/// at one, compress exactly as before. The block format is untouched.
pub fn lz_compress_into(input: &[u8], out: &mut Vec<u8>) {
    let n = input.len();
    if n < MIN_MATCH + 1 {
        put_sequence(out, input, None);
        return;
    }
    // Position+1 of the latest occurrence of each hashed 4-byte prefix;
    // 0 means empty, so the table needs no initialization sentinel logic.
    let mut table = vec![0u32; 1 << HASH_BITS];
    let mut i = 0;
    let mut lit_start = 0;
    let mut misses = 0usize;
    // Leave the last few bytes for the final literal run so match
    // extension never needs a bounds branch per byte.
    while i + MIN_MATCH <= n {
        let h = hash4(load4(input, i));
        let cand = table[h] as usize;
        if let Some(slot) = table_slot(i) {
            table[h] = slot;
        }
        if cand > 0 {
            let c = cand - 1;
            if i - c <= MAX_OFFSET && load4(input, c) == load4(input, i) {
                let mlen = MIN_MATCH + common_prefix(input, c + MIN_MATCH, i + MIN_MATCH);
                put_sequence(out, &input[lit_start..i], Some((mlen, i - c)));
                i += mlen;
                lit_start = i;
                misses = 0;
                continue;
            }
        }
        i += 1 + (misses >> SKIP_TRIGGER);
        misses += 1;
    }
    put_sequence(out, &input[lit_start..], None);
}

/// The hash-table slot encoding for a match candidate at byte position `i`,
/// or `None` when the position is not representable.
///
/// Slots store `i + 1` in a `u32` (0 is the empty sentinel), so the last
/// indexable position is `u32::MAX - 1`. Past that a plain `as u32` cast
/// would silently wrap and alias a low position — a later probe would then
/// "match" against unrelated bytes ~4 GiB away and corrupt the stream. Not
/// storing the slot instead degrades inputs beyond 4 GiB to literal runs,
/// which stay byte-exact.
#[inline]
fn table_slot(i: usize) -> Option<u32> {
    u32::try_from(i.checked_add(1)?).ok()
}

/// Reads a nibble-spilled length extension.
fn get_ext(input: &[u8], i: &mut usize, base: usize) -> DataResult<usize> {
    let mut v = base;
    loop {
        let b = *input.get(*i).ok_or_else(|| corrupt("length extension"))?;
        *i += 1;
        v += b as usize;
        if b != 0xff {
            return Ok(v);
        }
    }
}

fn corrupt(what: &str) -> DataError {
    DataError::Container {
        detail: format!("corrupt compressed block: {what}"),
    }
}

/// Decompresses a block produced by [`lz_compress`].
///
/// `expected_len` is the exact decompressed size the caller already knows
/// from validated framing; it bounds the output allocation, and any block
/// that decodes to a different length is rejected — before anything is
/// allocated when the block is too short to possibly reach it.
pub fn lz_decompress(input: &[u8], expected_len: usize) -> DataResult<Vec<u8>> {
    // `expected_len` comes from a chunk header, which a peer can forge
    // together with the block: a few bytes naming a terabyte must fail
    // here, not in the allocator.
    if expected_len / MAX_EXPANSION > input.len() {
        return Err(corrupt("block too short for expected length"));
    }
    let mut out: Vec<u8> = Vec::with_capacity(expected_len);
    let mut i = 0;
    loop {
        let token = *input.get(i).ok_or_else(|| corrupt("missing token"))?;
        i += 1;
        let mut lit = (token >> 4) as usize;
        if lit == 15 {
            lit = get_ext(input, &mut i, 15)?;
        }
        if input.len() - i < lit {
            return Err(corrupt("literal run past end of block"));
        }
        if out.len() + lit > expected_len {
            return Err(corrupt("literal run past expected length"));
        }
        out.extend_from_slice(&input[i..i + lit]);
        i += lit;
        if i == input.len() {
            break; // the final sequence is literals-only
        }
        if input.len() - i < 2 {
            return Err(corrupt("missing match offset"));
        }
        let offset = u16::from_le_bytes([input[i], input[i + 1]]) as usize;
        i += 2;
        if offset == 0 || offset > out.len() {
            return Err(corrupt("match offset before start of output"));
        }
        let mut mlen = MIN_MATCH + (token & 0x0f) as usize;
        if token & 0x0f == 15 {
            mlen = get_ext(input, &mut i, mlen)?;
        }
        if out.len() + mlen > expected_len {
            return Err(corrupt("match run past expected length"));
        }
        // Overlapping matches (offset < length) replicate recent output;
        // copy in doubling runs so constant payloads decode word-fast.
        let start = out.len() - offset;
        let mut remaining = mlen;
        while remaining > 0 {
            let avail = out.len() - start;
            let take = remaining.min(avail);
            out.extend_from_within(start..start + take);
            remaining -= take;
        }
    }
    if out.len() != expected_len {
        return Err(corrupt("block shorter than expected length"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> Vec<u8> {
        let packed = lz_compress(data);
        lz_decompress(&packed, data.len()).expect("round trip")
    }

    #[test]
    fn empty_and_tiny_inputs_round_trip() {
        for data in [&b""[..], b"a", b"ab", b"abc", b"abcd", b"abcde"] {
            assert_eq!(round_trip(data), data);
        }
    }

    #[test]
    fn constant_payload_collapses() {
        let ones: Vec<u8> = 1.0f64.to_le_bytes().repeat(64 * 1024 / 8);
        let packed = lz_compress(&ones);
        assert!(
            packed.len() < ones.len() / 50,
            "constant payload compressed to {} of {}",
            packed.len(),
            ones.len()
        );
        assert_eq!(lz_decompress(&packed, ones.len()).unwrap(), ones);
    }

    #[test]
    fn structured_and_random_ish_payloads_round_trip() {
        // Smooth gradient (compressible exponent bytes), then a splitmix
        // stream (incompressible) — both must round-trip bit-exactly.
        let gradient: Vec<u8> = (0..8192)
            .flat_map(|i| ((i as f64) * 0.001).to_le_bytes())
            .collect();
        assert_eq!(round_trip(&gradient), gradient);

        let mut x = 0x9e3779b97f4a7c15u64;
        let noise: Vec<u8> = (0..8192)
            .flat_map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x.to_le_bytes()
            })
            .collect();
        let packed = lz_compress(&noise);
        assert_eq!(lz_decompress(&packed, noise.len()).unwrap(), noise);
    }

    #[test]
    fn long_literal_and_match_extensions_round_trip() {
        // >15 literals forces the literal extension; a 5000-byte run forces
        // multi-byte match extensions and the overlapping-copy path.
        let mut data = Vec::new();
        data.extend((0u16..300).flat_map(|v| v.to_le_bytes()));
        data.extend(std::iter::repeat_n(0x42u8, 5000));
        assert_eq!(round_trip(&data), data);
    }

    #[test]
    fn corrupt_blocks_error_never_panic() {
        let data: Vec<u8> = 7.5f64.to_le_bytes().repeat(512);
        let clean = lz_compress(&data);
        for cut in 0..clean.len() {
            let _ = lz_decompress(&clean[..cut], data.len());
        }
        for i in 0..clean.len() {
            for flip in [0xffu8, 0x01] {
                let mut bad = clean.clone();
                bad[i] ^= flip;
                let _ = lz_decompress(&bad, data.len());
            }
        }
        // Wrong expected length is rejected, not padded or truncated.
        assert!(lz_decompress(&clean, data.len() + 1).is_err());
        assert!(lz_decompress(&clean, data.len().saturating_sub(1)).is_err());
    }

    #[test]
    fn table_slot_guards_the_4gib_boundary() {
        // Regression for the silent `(i + 1) as u32` wrap: past the last
        // representable position the slot must be withheld (literal-run
        // fallback), never aliased onto a low position. Exercised by
        // injecting the boundary indices directly — no 4 GiB allocation.
        assert_eq!(table_slot(0), Some(1));
        assert_eq!(table_slot(u32::MAX as usize - 1), Some(u32::MAX));
        // i + 1 == 2^32: the old cast produced 0 — the *empty* sentinel —
        // erasing a real candidate; now it is simply not stored.
        assert_eq!(table_slot(u32::MAX as usize), None);
        // i + 1 == 2^32 + 5: the old cast produced 5, a match candidate at
        // byte 4 — unrelated data ~4 GiB away. Must not be representable.
        assert_eq!(table_slot(u32::MAX as usize + 5), None);
        assert_eq!(table_slot(usize::MAX), None);
    }

    #[test]
    fn adversarial_lengths_cannot_overallocate() {
        // A token claiming a huge literal/match run must fail the bounds
        // check, not allocate: expected_len caps the output buffer.
        let bad = [0xf0u8, 0xff, 0xff, 0xff, 0xff, 0x10];
        assert!(lz_decompress(&bad, 16).is_err());
        let bad_match = [0x0fu8, 0x01, 0x00, 0xff, 0xff, 0x00];
        assert!(lz_decompress(&bad_match, 8).is_err());
    }
}
