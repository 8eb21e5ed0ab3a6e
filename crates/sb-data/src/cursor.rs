//! The one little-endian byte cursor every frame and file parser reads
//! through, and the putters that write what it reads.
//!
//! A getter consumes from the front of a `&mut &[u8]` and never panics:
//! input that ends mid-field is a [`DataError::Container`] naming the field,
//! so a parser's `?` is its whole bounds check. On the encoding side, a
//! count too wide for its wire field is a [`DataError::Container`] as well
//! ([`fits`]) rather than a silently truncating cast.

use crate::error::{DataError, DataResult};

/// The error for input that ends mid-`field`.
pub fn truncated(field: &str) -> DataError {
    DataError::Container {
        detail: format!("truncated while reading {field}"),
    }
}

/// `n` narrowed to the integer type of its wire `field` — the one gate
/// every encoded count and string length passes.
pub fn fits<T: TryFrom<usize>>(n: usize, field: &str) -> DataResult<T> {
    T::try_from(n).map_err(|_| DataError::Container {
        detail: format!(
            "{field} {n} does not fit the {} wire field",
            std::any::type_name::<T>()
        ),
    })
}

/// Consumes the next `n` bytes.
pub fn take<'a>(buf: &mut &'a [u8], n: usize, field: &str) -> DataResult<&'a [u8]> {
    let (head, rest) = buf.split_at_checked(n).ok_or_else(|| truncated(field))?;
    *buf = rest;
    Ok(head)
}

fn array<const N: usize>(buf: &mut &[u8], field: &str) -> DataResult<[u8; N]> {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .ok_or_else(|| truncated(field))?;
    *buf = rest;
    Ok(*head)
}

/// Consumes one byte.
pub fn get_u8(buf: &mut &[u8], field: &str) -> DataResult<u8> {
    array(buf, field).map(u8::from_le_bytes)
}

/// Consumes a little-endian `u16`.
pub fn get_u16(buf: &mut &[u8], field: &str) -> DataResult<u16> {
    array(buf, field).map(u16::from_le_bytes)
}

/// Consumes a little-endian `u32`.
pub fn get_u32(buf: &mut &[u8], field: &str) -> DataResult<u32> {
    array(buf, field).map(u32::from_le_bytes)
}

/// Consumes a little-endian `u64`.
pub fn get_u64(buf: &mut &[u8], field: &str) -> DataResult<u64> {
    array(buf, field).map(u64::from_le_bytes)
}

/// Consumes a length-prefixed UTF-8 string.
pub fn get_str(buf: &mut &[u8], field: &str) -> DataResult<String> {
    let len = get_u32(buf, field)? as usize;
    let bytes = take(buf, len, field)?;
    std::str::from_utf8(bytes)
        .map(str::to_owned)
        .map_err(|_| DataError::Container {
            detail: format!("invalid utf-8 in {field}"),
        })
}

/// Appends one byte.
pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a length-prefixed UTF-8 string: `u32 byte_len | utf-8 bytes`.
pub fn put_str(buf: &mut Vec<u8>, s: &str) -> DataResult<()> {
    put_u32(buf, fits(s.len(), "string length")?);
    buf.extend_from_slice(s.as_bytes());
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Each getter in the order [`valid`] was written, the field name it is
    /// asked to report, and what it reads back.
    type Getter = fn(&mut &[u8]) -> DataResult<String>;

    fn getters() -> [(&'static str, Getter, &'static str); 5] {
        [
            (
                "a byte",
                |b| get_u8(b, "a byte").map(|v| v.to_string()),
                "171",
            ),
            (
                "a u16",
                |b| get_u16(b, "a u16").map(|v| v.to_string()),
                "4660",
            ),
            (
                "a u32",
                |b| get_u32(b, "a u32").map(|v| v.to_string()),
                "3735928559",
            ),
            (
                "a u64",
                |b| get_u64(b, "a u64").map(|v| v.to_string()),
                "81985529216486895",
            ),
            ("a string", |b| get_str(b, "a string"), "tail"),
        ]
    }

    fn valid() -> Vec<u8> {
        let mut buf = Vec::new();
        put_u8(&mut buf, 0xAB);
        put_u16(&mut buf, 0x1234);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, 0x0123_4567_89AB_CDEF);
        put_str(&mut buf, "tail").unwrap();
        buf
    }

    #[test]
    fn every_getter_names_its_field_on_every_truncation() {
        let buf = valid();
        // Round trip: every getter reads back what its putter wrote, and
        // the cursor ends exactly at the end.
        let mut cur: &[u8] = &buf;
        for (_, get, want) in getters() {
            assert_eq!(get(&mut cur).unwrap(), want);
        }
        assert!(cur.is_empty());

        // Cut the buffer at every length: the getters before the cut read
        // their values, and the one the cut lands in reports its own field.
        for cut in 0..buf.len() {
            let mut cur: &[u8] = &buf[..cut];
            let failed = getters()
                .into_iter()
                .find_map(|(field, get, want)| match get(&mut cur) {
                    Ok(got) => {
                        assert_eq!(got, want, "cut {cut}");
                        None
                    }
                    Err(e) => Some((field, e)),
                });
            let (field, err) = failed.unwrap_or_else(|| panic!("cut {cut} read everything"));
            assert_eq!(err, truncated(field), "cut {cut}");
        }

        // A string whose bytes are not UTF-8 is a typed error too.
        let mut bad = buf[..buf.len() - 4].to_vec();
        bad.extend_from_slice(&[0xff, 0xfe, 0xfd, 0xfc]);
        let mut cur: &[u8] = &bad[15..];
        let err = get_str(&mut cur, "a string").unwrap_err();
        assert!(
            err.to_string().contains("invalid utf-8 in a string"),
            "{err}"
        );
    }
}
