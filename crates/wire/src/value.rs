//! The API-agnostic argument value model.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::{get_len, get_varint, put_varint};
use crate::{Result, WireError};

/// A single marshaled argument or return value.
///
/// `Value` is the common currency between the guest library, the hypervisor
/// router and the API server. The CAvA-generated descriptor on each side maps
/// between native API types and `Value`s; the wire layer itself attaches no
/// API semantics beyond the shape of the data.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Absence of a value (e.g. `void` return).
    Unit,
    /// A null pointer argument. Distinct from an empty buffer: OpenCL-style
    /// APIs frequently distinguish `NULL` from a zero-length array.
    Null,
    /// Boolean scalar.
    Bool(bool),
    /// Signed 32-bit scalar (covers C `int` and most status codes).
    I32(i32),
    /// Signed 64-bit scalar.
    I64(i64),
    /// Unsigned 32-bit scalar.
    U32(u32),
    /// Unsigned 64-bit scalar (also used for `size_t`).
    U64(u64),
    /// 32-bit float scalar.
    F32(f32),
    /// 64-bit float scalar.
    F64(f64),
    /// An opaque accelerator object handle, already translated to the wire
    /// handle namespace by the endpoint that produced it.
    Handle(u64),
    /// Raw buffer contents (input or output data), cheaply cloneable.
    Bytes(Bytes),
    /// A NUL-free UTF-8 string (e.g. program source, option strings).
    Str(String),
    /// A homogeneous or heterogeneous list of values (arrays of handles,
    /// nested structures).
    List(Vec<Value>),
    /// A buffer payload elided by the content-addressed transfer cache: the
    /// receiver rematerializes the bytes from its mirror cache keyed by
    /// `digest` (FNV-1a 64-bit over the payload). `len` is the payload
    /// length, kept so size accounting works without the bytes present. If
    /// the receiver's cache misses, it NACKs with
    /// `ReplyStatus::CacheMiss` and the sender retransmits the full buffer.
    CachedBytes {
        /// FNV-1a 64-bit digest of the elided payload.
        digest: u64,
        /// Length in bytes of the elided payload.
        len: u64,
    },
}

mod tag {
    pub const UNIT: u8 = 0x00;
    pub const NULL: u8 = 0x01;
    pub const BOOL_FALSE: u8 = 0x02;
    pub const BOOL_TRUE: u8 = 0x03;
    pub const I32: u8 = 0x04;
    pub const I64: u8 = 0x05;
    pub const U32: u8 = 0x06;
    pub const U64: u8 = 0x07;
    pub const F32: u8 = 0x08;
    pub const F64: u8 = 0x09;
    pub const HANDLE: u8 = 0x0a;
    pub const BYTES: u8 = 0x0b;
    pub const STR: u8 = 0x0c;
    pub const LIST: u8 = 0x0d;
    pub const CACHED_BYTES: u8 = 0x0e;
    /// A `Bytes` payload passed by reference: only its length is in the
    /// frame; the buffer itself rides in the transport's descriptor table.
    pub const BYTES_REF: u8 = 0x0f;
}

/// Buffers a by-reference frame's descriptors consume, in frame order.
/// `None` is the plain codec, which rejects the by-reference tag.
pub(crate) type Refs<'a> = Option<&'a mut std::vec::IntoIter<Bytes>>;

impl Value {
    /// Encodes `self`, appending to `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        self.encode_with(buf, None);
    }

    /// Encodes `self`; with `refs`, every `Bytes` is written as a
    /// by-reference descriptor and its handle appended to `refs` instead.
    pub(crate) fn encode_with(&self, buf: &mut BytesMut, mut refs: Option<&mut Vec<Bytes>>) {
        match self {
            Value::Unit => buf.put_u8(tag::UNIT),
            Value::Null => buf.put_u8(tag::NULL),
            Value::Bool(false) => buf.put_u8(tag::BOOL_FALSE),
            Value::Bool(true) => buf.put_u8(tag::BOOL_TRUE),
            Value::I32(v) => {
                buf.put_u8(tag::I32);
                buf.put_i32_le(*v);
            }
            Value::I64(v) => {
                buf.put_u8(tag::I64);
                buf.put_i64_le(*v);
            }
            Value::U32(v) => {
                buf.put_u8(tag::U32);
                buf.put_u32_le(*v);
            }
            Value::U64(v) => {
                buf.put_u8(tag::U64);
                buf.put_u64_le(*v);
            }
            Value::F32(v) => {
                buf.put_u8(tag::F32);
                buf.put_f32_le(*v);
            }
            Value::F64(v) => {
                buf.put_u8(tag::F64);
                buf.put_f64_le(*v);
            }
            Value::Handle(h) => {
                buf.put_u8(tag::HANDLE);
                put_varint(buf, *h);
            }
            Value::Bytes(b) => match refs {
                Some(refs) => {
                    buf.put_u8(tag::BYTES_REF);
                    put_varint(buf, b.len() as u64);
                    refs.push(b.clone());
                }
                None => {
                    buf.put_u8(tag::BYTES);
                    put_varint(buf, b.len() as u64);
                    buf.put_slice(b);
                }
            },
            Value::Str(s) => {
                buf.put_u8(tag::STR);
                put_varint(buf, s.len() as u64);
                buf.put_slice(s.as_bytes());
            }
            Value::List(items) => {
                buf.put_u8(tag::LIST);
                put_varint(buf, items.len() as u64);
                for item in items {
                    item.encode_with(buf, refs.as_deref_mut());
                }
            }
            Value::CachedBytes { digest, len } => {
                buf.put_u8(tag::CACHED_BYTES);
                buf.put_u64_le(*digest);
                put_varint(buf, *len);
            }
        }
    }

    /// Decodes a value from the front of `buf`.
    pub fn decode(buf: &mut Bytes) -> Result<Value> {
        Self::decode_with(buf, None)
    }

    /// Decodes a value; with `refs`, by-reference descriptors re-attach the
    /// next buffer, which must have exactly the descriptor's length.
    pub(crate) fn decode_with(buf: &mut Bytes, mut refs: Refs<'_>) -> Result<Value> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let t = buf.get_u8();
        Ok(match t {
            tag::UNIT => Value::Unit,
            tag::NULL => Value::Null,
            tag::BOOL_FALSE => Value::Bool(false),
            tag::BOOL_TRUE => Value::Bool(true),
            tag::I32 => Value::I32(need(buf, 4)?.get_i32_le()),
            tag::I64 => Value::I64(need(buf, 8)?.get_i64_le()),
            tag::U32 => Value::U32(need(buf, 4)?.get_u32_le()),
            tag::U64 => Value::U64(need(buf, 8)?.get_u64_le()),
            tag::F32 => Value::F32(need(buf, 4)?.get_f32_le()),
            tag::F64 => Value::F64(need(buf, 8)?.get_f64_le()),
            tag::HANDLE => Value::Handle(get_varint(buf)?),
            tag::BYTES => {
                let len = get_len(buf)?;
                if buf.remaining() < len {
                    return Err(WireError::UnexpectedEof);
                }
                Value::Bytes(buf.split_to(len))
            }
            tag::BYTES_REF => {
                let Some(refs) = refs else {
                    return Err(WireError::BadTag(t));
                };
                let len = get_len(buf)?;
                match refs.next() {
                    Some(b) if b.len() == len => Value::Bytes(b),
                    _ => return Err(WireError::DescriptorMismatch),
                }
            }
            tag::STR => {
                let len = get_len(buf)?;
                if buf.remaining() < len {
                    return Err(WireError::UnexpectedEof);
                }
                let raw = buf.split_to(len);
                Value::Str(String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)?)
            }
            tag::LIST => {
                let len = get_len(buf)?;
                // A list element takes at least one byte, so `len` can never
                // legitimately exceed the remaining input.
                if len > buf.remaining() {
                    return Err(WireError::UnexpectedEof);
                }
                let mut items = Vec::with_capacity(len);
                for _ in 0..len {
                    items.push(Value::decode_with(buf, refs.as_deref_mut())?);
                }
                Value::List(items)
            }
            tag::CACHED_BYTES => {
                let digest = need(buf, 8)?.get_u64_le();
                // The elided payload obeys the same length bound as an
                // in-line `Bytes`, even though the bytes are not present.
                let len = get_len(buf)? as u64;
                Value::CachedBytes { digest, len }
            }
            other => return Err(WireError::BadTag(other)),
        })
    }

    /// Number of payload bytes this value moves across the transport,
    /// counting buffer/string/list contents. Used by the router for
    /// bandwidth accounting. `CachedBytes` moves no payload — only its
    /// fixed-size digest — so it counts zero here; the bytes it stands in
    /// for are reported by [`Value::elided_bytes`].
    pub fn payload_bytes(&self) -> usize {
        match self {
            Value::Bytes(b) => b.len(),
            Value::Str(s) => s.len(),
            Value::List(items) => items.iter().map(Value::payload_bytes).sum(),
            _ => 0,
        }
    }

    /// Number of payload bytes this value *avoided* moving thanks to
    /// transfer-cache elision (the declared lengths of any `CachedBytes`
    /// inside, recursively).
    pub fn elided_bytes(&self) -> usize {
        match self {
            Value::CachedBytes { len, .. } => *len as usize,
            Value::List(items) => items.iter().map(Value::elided_bytes).sum(),
            _ => 0,
        }
    }

    /// Number of `CachedBytes` values inside `self`, recursively. Used by
    /// the router's cache-hit accounting.
    pub fn cached_count(&self) -> usize {
        match self {
            Value::CachedBytes { .. } => 1,
            Value::List(items) => items.iter().map(Value::cached_count).sum(),
            _ => 0,
        }
    }

    /// Interprets this value as an unsigned integer, if it has integral
    /// shape. Used by size-expression evaluation and handle translation.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Value::Bool(b) => Some(u64::from(*b)),
            Value::I32(v) if *v >= 0 => Some(*v as u64),
            Value::I64(v) if *v >= 0 => Some(*v as u64),
            Value::U32(v) => Some(u64::from(*v)),
            Value::U64(v) => Some(*v),
            Value::Handle(h) => Some(*h),
            _ => None,
        }
    }

    /// Interprets this value as a signed integer, if it has integral shape.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Bool(b) => Some(i64::from(*b)),
            Value::I32(v) => Some(i64::from(*v)),
            Value::I64(v) => Some(*v),
            Value::U32(v) => Some(i64::from(*v)),
            Value::U64(v) => i64::try_from(*v).ok(),
            Value::Handle(h) => i64::try_from(*h).ok(),
            _ => None,
        }
    }

    /// Returns the buffer contents if this is a `Bytes` value.
    pub fn as_bytes(&self) -> Option<&Bytes> {
        match self {
            Value::Bytes(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the string contents if this is a `Str` value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the handle value if this is a `Handle`.
    pub fn as_handle(&self) -> Option<u64> {
        match self {
            Value::Handle(h) => Some(*h),
            _ => None,
        }
    }

    /// Returns the list items if this is a `List`.
    pub fn as_list(&self) -> Option<&[Value]> {
        match self {
            Value::List(items) => Some(items),
            _ => None,
        }
    }

    /// True for `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }
}

/// Checks that at least `n` bytes remain, returning the buffer for chaining.
fn need(buf: &mut Bytes, n: usize) -> Result<&mut Bytes> {
    if buf.remaining() < n {
        Err(WireError::UnexpectedEof)
    } else {
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(v: &Value) -> Value {
        let mut buf = BytesMut::new();
        v.encode(&mut buf);
        let mut bytes = buf.freeze();
        let decoded = Value::decode(&mut bytes).expect("decode");
        assert!(bytes.is_empty(), "trailing bytes for {v:?}");
        decoded
    }

    #[test]
    fn scalars_round_trip() {
        for v in [
            Value::Unit,
            Value::Null,
            Value::Bool(true),
            Value::Bool(false),
            Value::I32(-7),
            Value::I32(i32::MIN),
            Value::I64(i64::MAX),
            Value::U32(0),
            Value::U64(u64::MAX),
            Value::F32(3.5),
            Value::F64(-0.0),
            Value::Handle(0xdead_beef),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn containers_round_trip() {
        let v = Value::List(vec![
            Value::Bytes(Bytes::from_static(b"hello")),
            Value::Str("world".into()),
            Value::List(vec![Value::Handle(1), Value::Null]),
        ]);
        assert_eq!(round_trip(&v), v);
    }

    #[test]
    fn empty_containers_round_trip() {
        assert_eq!(
            round_trip(&Value::Bytes(Bytes::new())),
            Value::Bytes(Bytes::new())
        );
        assert_eq!(
            round_trip(&Value::Str(String::new())),
            Value::Str(String::new())
        );
        assert_eq!(round_trip(&Value::List(vec![])), Value::List(vec![]));
    }

    #[test]
    fn decode_rejects_unknown_tag() {
        let mut bytes = Bytes::from_static(&[0x7f]);
        assert_eq!(Value::decode(&mut bytes), Err(WireError::BadTag(0x7f)));
    }

    #[test]
    fn decode_rejects_truncated_scalar() {
        let mut buf = BytesMut::new();
        Value::I64(42).encode(&mut buf);
        let mut truncated = buf.freeze().slice(0..5);
        assert_eq!(Value::decode(&mut truncated), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn decode_rejects_truncated_bytes() {
        let mut buf = BytesMut::new();
        Value::Bytes(Bytes::from_static(b"abcdef")).encode(&mut buf);
        let frozen = buf.freeze();
        let mut truncated = frozen.slice(0..frozen.len() - 1);
        assert_eq!(Value::decode(&mut truncated), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn decode_rejects_invalid_utf8() {
        let mut raw = BytesMut::new();
        raw.put_u8(0x0c); // STR tag
        raw.put_u8(2); // length 2
        raw.put_slice(&[0xff, 0xfe]);
        let mut bytes = raw.freeze();
        assert_eq!(Value::decode(&mut bytes), Err(WireError::BadUtf8));
    }

    #[test]
    fn decode_rejects_list_longer_than_input() {
        let mut raw = BytesMut::new();
        raw.put_u8(0x0d); // LIST tag
        raw.put_u8(0x7f); // claims 127 elements, but input ends here
        let mut bytes = raw.freeze();
        assert_eq!(Value::decode(&mut bytes), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn cached_bytes_round_trips() {
        for v in [
            Value::CachedBytes { digest: 0, len: 0 },
            Value::CachedBytes {
                digest: u64::MAX,
                len: 4096,
            },
            Value::List(vec![
                Value::CachedBytes {
                    digest: 0x1234_5678_9abc_def0,
                    len: 1,
                },
                Value::Bytes(Bytes::from_static(b"xy")),
            ]),
        ] {
            assert_eq!(round_trip(&v), v);
        }
    }

    #[test]
    fn decode_rejects_truncated_cached_bytes_digest() {
        let mut buf = BytesMut::new();
        Value::CachedBytes {
            digest: 0xaabb_ccdd_eeff_0011,
            len: 77,
        }
        .encode(&mut buf);
        // Cut into the fixed-width digest field.
        let mut truncated = buf.freeze().slice(0..5);
        assert_eq!(Value::decode(&mut truncated), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn decode_rejects_cached_bytes_missing_len() {
        let mut raw = BytesMut::new();
        raw.put_u8(0x0e); // CACHED_BYTES tag
        raw.put_u64_le(42); // digest present, len varint absent
        let mut bytes = raw.freeze();
        assert_eq!(Value::decode(&mut bytes), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn decode_rejects_cached_bytes_len_out_of_range() {
        let mut raw = BytesMut::new();
        raw.put_u8(0x0e); // CACHED_BYTES tag
        raw.put_u64_le(42);
        // A length far beyond MAX_LEN: corrupt frame, must be rejected even
        // though no payload bytes follow a CachedBytes.
        crate::codec::put_varint(&mut raw, u64::MAX);
        let mut bytes = raw.freeze();
        assert_eq!(
            Value::decode(&mut bytes),
            Err(WireError::LengthOutOfRange(u64::MAX))
        );
    }

    #[test]
    fn elided_accounting_is_disjoint_from_payload() {
        let v = Value::List(vec![
            Value::CachedBytes {
                digest: 7,
                len: 100,
            },
            Value::Bytes(Bytes::from_static(&[0u8; 40])),
            Value::List(vec![Value::CachedBytes { digest: 8, len: 5 }]),
        ]);
        assert_eq!(v.payload_bytes(), 40);
        assert_eq!(v.elided_bytes(), 105);
        assert_eq!(v.cached_count(), 2);
        assert_eq!(Value::U64(9).elided_bytes(), 0);
        assert_eq!(Value::U64(9).cached_count(), 0);
    }

    #[test]
    fn payload_bytes_counts_nested_contents() {
        let v = Value::List(vec![
            Value::Bytes(Bytes::from_static(&[0u8; 100])),
            Value::Str("abcd".into()),
            Value::U64(9),
            Value::List(vec![Value::Bytes(Bytes::from_static(&[0u8; 3]))]),
        ]);
        assert_eq!(v.payload_bytes(), 107);
    }

    #[test]
    fn numeric_views_behave() {
        assert_eq!(Value::I32(-1).as_u64(), None);
        assert_eq!(Value::I32(-1).as_i64(), Some(-1));
        assert_eq!(Value::U64(u64::MAX).as_i64(), None);
        assert_eq!(Value::Bool(true).as_u64(), Some(1));
        assert_eq!(Value::Handle(7).as_u64(), Some(7));
        assert_eq!(Value::Str("x".into()).as_u64(), None);
    }
}
