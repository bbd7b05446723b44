//! Errors produced while encoding or decoding wire messages.

use std::fmt;

/// Error decoding (or, rarely, encoding) a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended in the middle of a value or message.
    UnexpectedEof,
    /// A value tag byte was not recognized.
    BadTag(u8),
    /// A message kind byte was not recognized.
    BadMessageKind(u8),
    /// A varint encoded more than 64 bits.
    VarintOverflow,
    /// A length prefix exceeded the sanity limit.
    LengthOutOfRange(u64),
    /// A string payload was not valid UTF-8.
    BadUtf8,
    /// Bytes remained after a complete message was decoded.
    TrailingBytes(usize),
    /// An enum discriminant (e.g. call mode, reply status) was invalid.
    BadDiscriminant(&'static str, u64),
    /// A batch frame claimed more member calls than the protocol allows.
    BatchTooLarge(usize),
    /// A by-reference frame's descriptors did not match the buffers handed
    /// over with it (count, or any length).
    DescriptorMismatch,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnexpectedEof => write!(f, "unexpected end of input"),
            Self::BadTag(t) => write!(f, "unknown value tag {t:#04x}"),
            Self::BadMessageKind(k) => write!(f, "unknown message kind {k:#04x}"),
            Self::VarintOverflow => write!(f, "varint exceeds 64 bits"),
            Self::LengthOutOfRange(l) => write!(f, "length prefix {l} out of range"),
            Self::BadUtf8 => write!(f, "string payload is not valid UTF-8"),
            Self::TrailingBytes(n) => write!(f, "{n} trailing bytes after message"),
            Self::BadDiscriminant(what, v) => {
                write!(f, "invalid {what} discriminant {v}")
            }
            Self::BatchTooLarge(n) => {
                write!(f, "batch of {n} calls exceeds the per-frame cap")
            }
            Self::DescriptorMismatch => {
                write!(f, "payload descriptors do not match the attached buffers")
            }
        }
    }
}

impl std::error::Error for WireError {}
