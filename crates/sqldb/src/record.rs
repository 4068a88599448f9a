//! Row serialisation: SQLite-style serial types with varint framing.
//!
//! A record is `[header_len varint][serial_type varint ...][body bytes]`.
//! Serial types: 0 = NULL, 1 = 8-byte big-endian int, 7 = 8-byte float,
//! `2n+12` = blob of n bytes, `2n+13` = text of n bytes.

use crate::value::SqlValue;
use crate::{DbError, DbResult};

/// Append a varint (SQLite's 1–9 byte big-endian-ish encoding is replaced
/// by standard LEB128 for simplicity; the framing property is identical).
pub fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Read a varint; returns (value, bytes consumed).
pub fn read_varint(data: &[u8]) -> DbResult<(u64, usize)> {
    let mut v = 0u64;
    let mut shift = 0;
    for (i, &b) in data.iter().enumerate() {
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok((v, i + 1));
        }
        shift += 7;
        if shift >= 64 {
            break;
        }
    }
    Err(DbError::Storage("truncated varint".into()))
}

/// Serialise a row of values.
#[must_use]
pub fn encode_record(values: &[SqlValue]) -> Vec<u8> {
    let mut types = Vec::with_capacity(values.len() * 2);
    let mut body = Vec::new();
    for v in values {
        match v {
            SqlValue::Null => write_varint(&mut types, 0),
            SqlValue::Int(x) => {
                write_varint(&mut types, 1);
                body.extend_from_slice(&x.to_be_bytes());
            }
            SqlValue::Real(x) => {
                write_varint(&mut types, 7);
                body.extend_from_slice(&x.to_be_bytes());
            }
            SqlValue::Blob(b) => {
                write_varint(&mut types, 12 + 2 * b.len() as u64);
                body.extend_from_slice(b);
            }
            SqlValue::Text(t) => {
                write_varint(&mut types, 13 + 2 * t.len() as u64);
                body.extend_from_slice(t.as_bytes());
            }
        }
    }
    let mut out = Vec::with_capacity(types.len() + body.len() + 4);
    write_varint(&mut out, types.len() as u64);
    out.extend_from_slice(&types);
    out.extend_from_slice(&body);
    out
}

/// Deserialise a record.
///
/// The lengths come from page bytes the host may have forged, so every
/// offset is computed checked: one past `usize` is an overrun like any
/// other, never a wrapped offset.
pub fn decode_record(data: &[u8]) -> DbResult<Vec<SqlValue>> {
    /// The end of the `len` bytes at `start`, if they lie inside `data`.
    fn span_end(data: &[u8], start: usize, len: u64) -> Option<usize> {
        usize::try_from(len)
            .ok()
            .and_then(|len| start.checked_add(len))
            .filter(|&end| end <= data.len())
    }
    let (types_len, mut pos) = read_varint(data)?;
    let types_end = span_end(data, pos, types_len)
        .ok_or_else(|| DbError::Storage("record header overruns".into()))?;
    let mut serials = Vec::new();
    while pos < types_end {
        let (t, n) = read_varint(&data[pos..])?;
        serials.push(t);
        pos += n;
    }
    let mut body = types_end;
    let mut out = Vec::with_capacity(serials.len());
    for t in serials {
        let (len, what) = match t {
            0 => {
                out.push(SqlValue::Null);
                continue;
            }
            1 => (8, "int"),
            7 => (8, "real"),
            t if t >= 12 && t % 2 == 0 => ((t - 12) / 2, "blob"),
            t if t >= 13 => ((t - 13) / 2, "text"),
            other => return Err(DbError::Storage(format!("bad serial type {other}"))),
        };
        let end = span_end(data, body, len)
            .ok_or_else(|| DbError::Storage(format!("record {what} overruns")))?;
        let bytes = &data[body..end];
        body = end;
        out.push(match t {
            1 => SqlValue::Int(i64::from_be_bytes(bytes.try_into().expect("8"))),
            7 => SqlValue::Real(f64::from_be_bytes(bytes.try_into().expect("8"))),
            t if t % 2 == 0 => SqlValue::Blob(bytes.to_vec()),
            _ => SqlValue::Text(
                String::from_utf8(bytes.to_vec())
                    .map_err(|_| DbError::Storage("record text not UTF-8".into()))?,
            ),
        });
    }
    Ok(out)
}

/// Encode an index key: the indexed values followed by the rowid, in a
/// byte encoding whose lexicographic order equals value order.
#[must_use]
pub fn encode_index_key(values: &[SqlValue], rowid: i64) -> Vec<u8> {
    let mut out = Vec::new();
    for v in values {
        match v {
            SqlValue::Null => out.push(0x00),
            SqlValue::Int(x) => {
                out.push(0x01);
                // Order-preserving: flip the sign bit.
                out.extend_from_slice(&(*x as u64 ^ (1 << 63)).to_be_bytes());
            }
            SqlValue::Real(x) => {
                out.push(0x01); // numeric class shares a tag for affinity
                let bits = x.to_bits();
                let ordered = if *x >= 0.0 {
                    bits ^ (1 << 63)
                } else {
                    !bits
                };
                // Compare against integers by mapping ints to the same
                // space: we instead store both as f64-ordered when mixed.
                // For index purposes ints are stored exactly; the planner
                // only uses indexes for same-class comparisons.
                out.extend_from_slice(&ordered.to_be_bytes());
            }
            SqlValue::Text(t) => {
                out.push(0x02);
                out.extend_from_slice(t.as_bytes());
                out.push(0x00); // terminator (text never contains NUL here)
            }
            SqlValue::Blob(b) => {
                out.push(0x03);
                write_varint(&mut out, b.len() as u64);
                out.extend_from_slice(b);
            }
        }
    }
    out.push(0xFF); // rowid separator keeps prefix-order
    out.extend_from_slice(&(rowid as u64 ^ (1 << 63)).to_be_bytes());
    out
}

/// Extract the rowid back out of an index key.
pub fn index_key_rowid(key: &[u8]) -> DbResult<i64> {
    if key.len() < 9 {
        return Err(DbError::Storage("index key too short".into()));
    }
    let raw = u64::from_be_bytes(key[key.len() - 8..].try_into().expect("8"));
    Ok((raw ^ (1 << 63)) as i64)
}

/// The value-prefix part of an index key (everything before the rowid).
#[must_use]
pub fn index_key_prefix(key: &[u8]) -> &[u8] {
    &key[..key.len().saturating_sub(9)]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(vals: Vec<SqlValue>) {
        let enc = encode_record(&vals);
        let dec = decode_record(&enc).unwrap();
        assert_eq!(dec.len(), vals.len());
        for (a, b) in vals.iter().zip(dec.iter()) {
            match (a, b) {
                (SqlValue::Real(x), SqlValue::Real(y)) => {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
                _ => assert_eq!(a, b),
            }
        }
    }

    #[test]
    fn record_roundtrips() {
        roundtrip(vec![]);
        roundtrip(vec![SqlValue::Null]);
        roundtrip(vec![
            SqlValue::Int(0),
            SqlValue::Int(i64::MIN),
            SqlValue::Int(i64::MAX),
            SqlValue::Real(-1.5e300),
            SqlValue::Text(String::new()),
            SqlValue::Text("héllo".into()),
            SqlValue::Blob(vec![0, 1, 2, 255]),
            SqlValue::Null,
        ]);
        roundtrip(vec![SqlValue::Blob(vec![7u8; 5000])]);
    }

    #[test]
    fn corrupt_record_rejected() {
        let enc = encode_record(&[SqlValue::Int(5), SqlValue::Text("abc".into())]);
        for cut in 1..enc.len() {
            // Truncations must error, never panic.
            let _ = decode_record(&enc[..cut]);
        }
        assert!(decode_record(&[0x05]).is_err());
    }

    /// A forged header length or body length near `u64::MAX` is a
    /// storage error: the offset it would add runs past `usize`, and a
    /// wrapped offset would slice out of order (or, in a debug build,
    /// overflow).
    #[test]
    fn forged_record_lengths_are_storage_errors() {
        let varint = |v: u64| {
            let mut out = Vec::new();
            write_varint(&mut out, v);
            out
        };
        let mut forged = Vec::new();
        // Header lengths that overflow `pos + len`.
        for len in [u64::MAX, u64::MAX - 1, usize::MAX as u64 - 1, 1 << 63] {
            forged.push([varint(len), vec![0; 4]].concat());
        }
        // Blob and text lengths that overflow `body + len`, after a
        // header of one or two serial types.
        for t in [u64::MAX - 1, u64::MAX, u64::MAX - 3, (1 << 63) + 12, (1 << 63) + 13] {
            let types = varint(t);
            forged.push([varint(types.len() as u64), types.clone(), vec![7; 3]].concat());
            let types = [varint(1), varint(t)].concat();
            forged.push([varint(types.len() as u64), types, vec![7; 9]].concat());
        }
        for rec in &forged {
            assert!(
                matches!(decode_record(rec), Err(DbError::Storage(_))),
                "{rec:02x?}"
            );
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            write_varint(&mut buf, v);
            let (back, n) = read_varint(&buf).unwrap();
            assert_eq!(back, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn index_key_order_matches_value_order_ints() {
        let mut keys: Vec<(i64, Vec<u8>)> = [-100i64, -1, 0, 1, 99, 1_000_000]
            .iter()
            .map(|&v| (v, encode_index_key(&[SqlValue::Int(v)], 1)))
            .collect();
        let sorted_by_key = {
            let mut k = keys.clone();
            k.sort_by(|a, b| a.1.cmp(&b.1));
            k
        };
        keys.sort_by_key(|(v, _)| *v);
        assert_eq!(keys, sorted_by_key);
    }

    #[test]
    fn index_key_order_matches_value_order_text() {
        let words = ["", "a", "ab", "b", "ba"];
        let keys: Vec<Vec<u8>> = words
            .iter()
            .map(|w| encode_index_key(&[SqlValue::Text((*w).into())], 1))
            .collect();
        for w in keys.windows(2) {
            assert!(w[0] < w[1]);
        }
    }

    #[test]
    fn rowid_recoverable() {
        for rowid in [i64::MIN, -1, 0, 1, i64::MAX] {
            let k = encode_index_key(&[SqlValue::Text("x".into())], rowid);
            assert_eq!(index_key_rowid(&k).unwrap(), rowid);
        }
    }

    #[test]
    fn same_value_different_rowid_ordered() {
        let k1 = encode_index_key(&[SqlValue::Int(5)], 10);
        let k2 = encode_index_key(&[SqlValue::Int(5)], 20);
        assert!(k1 < k2);
        assert_eq!(index_key_prefix(&k1), index_key_prefix(&k2));
    }
}
