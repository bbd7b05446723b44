//! Wire format for AvA forwarded API calls.
//!
//! Every API invocation that crosses the guest/hypervisor/server boundary is
//! represented as a [`Message`] and serialized with a compact, self-describing
//! binary encoding. The format is deliberately independent of any particular
//! accelerator API: argument payloads are [`Value`]s, and the API-specific
//! meaning of each value (buffer, opaque handle, scalar, ...) is supplied by
//! the CAvA-generated descriptor on each side of the transport.
//!
//! The encoding is:
//!
//! * one tag byte per value, followed by a little-endian fixed-width payload
//!   for scalars;
//! * LEB128 variable-length integers for all lengths and counts;
//! * length-prefixed byte strings for buffers and strings.
//!
//! The format contains no pointers and no host-specific sizes, so it is safe
//! to exchange between guest and host address spaces, or across machines for
//! disaggregated accelerators.
//!
//! A transport whose two ends share memory uses the codec's by-reference
//! mode ([`Message::encode_indirect`] / [`Message::decode_indirect`]): buffer
//! contents stay out of the frame, which carries only a descriptor (tag and
//! length) per buffer, and the immutable buffers travel beside it. Plain
//! [`Message::decode`] rejects the descriptor tag, so a serializing
//! transport can never be handed a reference.
//!
//! Bulk payloads the AvA layers allocate (upload copies, readback outputs)
//! take their storage from a process-wide recycled store through
//! [`copy_payload`] and [`fill_payload`], so a transfer reuses memory an
//! earlier one page-faulted in instead of faulting in its own.

mod cache;
mod error;
mod message;
mod pool;
mod value;

pub use cache::{digest64, fnv1a64, DigestLru};
pub use error::WireError;
pub use message::{
    CallMode, CallReply, CallRequest, ControlMessage, Message, ReplyStatus, MAX_BATCH_CALLS,
};
pub use pool::{copy_payload, fill_payload, register_payload_pool};
pub use value::Value;

/// Result alias for wire-format operations.
pub type Result<T> = std::result::Result<T, WireError>;

/// Identifier of a forwarded function within an API descriptor.
pub type FnId = u32;

/// Identifier of an in-flight call, unique per guest endpoint.
pub type CallId = u64;

/// Identifier of a guest VM, assigned by the hypervisor.
pub type VmId = u32;

pub(crate) mod codec {
    //! Low-level primitives shared by value and message encoding.

    use bytes::{Buf, BufMut, BytesMut};

    use crate::WireError;

    /// Maximum length accepted for any single buffer/string/list while
    /// decoding. Guards against a corrupt or malicious length prefix
    /// causing an enormous allocation.
    pub const MAX_LEN: u64 = 1 << 32;

    /// Appends `v` as an unsigned LEB128 varint.
    pub fn put_varint(buf: &mut BytesMut, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                buf.put_u8(byte);
                return;
            }
            buf.put_u8(byte | 0x80);
        }
    }

    /// Reads an unsigned LEB128 varint.
    pub fn get_varint(buf: &mut impl Buf) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            if !buf.has_remaining() {
                return Err(WireError::UnexpectedEof);
            }
            let byte = buf.get_u8();
            if shift >= 64 || (shift == 63 && byte > 1) {
                return Err(WireError::VarintOverflow);
            }
            v |= u64::from(byte & 0x7f) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Reads a length prefix, validating it against [`MAX_LEN`].
    pub fn get_len(buf: &mut impl Buf) -> Result<usize, WireError> {
        let len = get_varint(buf)?;
        if len > MAX_LEN {
            return Err(WireError::LengthOutOfRange(len));
        }
        Ok(len as usize)
    }
}

#[cfg(test)]
mod codec_tests {
    use bytes::BytesMut;

    use super::codec::{get_varint, put_varint};

    #[test]
    fn varint_round_trips_boundaries() {
        for v in [
            0u64,
            1,
            127,
            128,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let mut slice = buf.freeze();
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty(), "trailing bytes after varint {v}");
        }
    }

    #[test]
    fn varint_rejects_overflow() {
        // Eleven continuation bytes encode more than 64 bits.
        let bytes = [0xffu8; 11];
        let mut slice = &bytes[..];
        assert!(get_varint(&mut slice).is_err());
    }

    #[test]
    fn varint_rejects_truncation() {
        let bytes = [0x80u8];
        let mut slice = &bytes[..];
        assert!(get_varint(&mut slice).is_err());
    }
}
