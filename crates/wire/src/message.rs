//! Call/reply framing for forwarded API invocations.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::codec::{get_len, get_varint, put_varint};
use crate::value::Refs;
use crate::{CallId, FnId, Result, Value, WireError};

/// Whether the guest blocks on a call's reply.
///
/// `Async` calls are fire-and-forget: the guest library returns the API's
/// success value immediately and any error is delivered by a later
/// synchronous call (the fidelity loss discussed in §4.2 of the paper).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CallMode {
    /// Guest blocks until the reply arrives.
    Sync,
    /// Guest continues immediately; the reply (if any) is consumed by the
    /// runtime for deferred error delivery.
    Async,
}

/// Outcome classification of a forwarded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ReplyStatus {
    /// The API function executed (its own status code is in the return
    /// value; API-level errors still count as `Ok` at the transport level).
    Ok,
    /// The server could not execute the call (unknown function, marshaling
    /// mismatch, handle translation failure).
    TransportError,
    /// The call was rejected by the router's policy (rate limit exceeded,
    /// quota exhausted).
    PolicyRejected,
    /// The server could not rematerialize a `Value::CachedBytes` argument
    /// from its payload cache. The guest must retransmit the call with the
    /// full buffer contents; the call has not been executed.
    CacheMiss,
    /// The API server backing this VM is gone and could not be recovered.
    /// The call was not executed and must not be retried: the guest should
    /// surface a clean unavailability error instead of hanging.
    Unavailable,
    /// An allocation would push the VM past its device-memory quota. The
    /// call was not executed; the lane stays healthy and later calls within
    /// quota proceed normally. Not retryable: the guest must free memory
    /// (or the operator must raise the quota) before the same allocation
    /// can succeed.
    QuotaExceeded,
    /// The call was shed by overload protection (admission queue full,
    /// stale beyond its age limit, tenant circuit breaker open, or a
    /// brownout stage dropping low-priority traffic). The call was not
    /// executed. Not immediately retryable: the guest must back off
    /// before re-offering the work, or surface the rejection.
    Overloaded,
}

/// A forwarded API invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct CallRequest {
    /// Caller-assigned identifier used to match the reply.
    pub call_id: CallId,
    /// Function identifier within the API descriptor.
    pub fn_id: FnId,
    /// Blocking behaviour expected by the guest.
    pub mode: CallMode,
    /// Marshaled arguments, in declaration order. Output-only buffer
    /// parameters are marshaled as their length so the server can allocate.
    pub args: Vec<Value>,
    /// Remaining deadline budget, in microseconds, measured when the frame
    /// left the previous tier (0 = no deadline). Each tier that holds the
    /// call (router queue, server inbox) decrements by its own holding time
    /// and discards the call once the budget is exhausted, so doomed work
    /// is shed instead of executed.
    pub budget_us: u64,
}

/// The reply to a [`CallRequest`].
#[derive(Debug, Clone, PartialEq)]
pub struct CallReply {
    /// Mirrors the request's `call_id`.
    pub call_id: CallId,
    /// Transport-level status.
    pub status: ReplyStatus,
    /// The API function's return value.
    pub ret: Value,
    /// Values for output parameters as `(param index, value)` pairs.
    pub outputs: Vec<(u32, Value)>,
}

/// Out-of-band coordination between endpoints, router and server.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlMessage {
    /// Liveness probe.
    Ping(u64),
    /// Reply to a `Ping`, echoing its payload.
    Pong(u64),
    /// The sender is about to go away; flush and stop.
    Shutdown,
    /// Suspend processing of further calls (used before migration).
    Suspend,
    /// Resume processing after a `Suspend`.
    Resume,
    /// Free-form error report.
    Error(String),
    /// The transfer-cache epoch changed (reconnect or migration): both ends
    /// must drop their payload caches before processing further calls. The
    /// payload is the new epoch number, monotonically increasing.
    CacheEpoch(u64),
    /// Supervisor liveness probe carrying a sequence number. Unlike `Ping`,
    /// heartbeats are answered even while a server is suspended, so a
    /// migrating VM is not mistaken for a dead one.
    Heartbeat(u64),
    /// Reply to a `Heartbeat`, echoing its sequence number.
    HeartbeatAck(u64),
}

/// Top-level unit exchanged over a transport.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A single forwarded invocation.
    Call(CallRequest),
    /// A reply to a forwarded invocation.
    Reply(CallReply),
    /// Several invocations batched into one transport crossing
    /// (rCUDA-style API batching; §2 of the paper).
    Batch(Vec<CallRequest>),
    /// Out-of-band coordination.
    Control(ControlMessage),
}

/// Maximum member calls accepted in one [`Message::Batch`] frame.
///
/// The guest flush policy never builds batches anywhere near this large
/// (tens of calls at most); the cap exists so a corrupt or hostile count
/// prefix cannot drive an enormous `Vec` reservation or a quadratic decode
/// loop before the per-call decoders start failing on garbage.
pub const MAX_BATCH_CALLS: usize = 4096;

mod kind {
    pub const CALL: u8 = 0x10;
    pub const REPLY: u8 = 0x11;
    pub const BATCH: u8 = 0x12;
    pub const CONTROL: u8 = 0x13;
}

mod ctrl {
    pub const PING: u64 = 0;
    pub const PONG: u64 = 1;
    pub const SHUTDOWN: u64 = 2;
    pub const SUSPEND: u64 = 3;
    pub const RESUME: u64 = 4;
    pub const ERROR: u64 = 5;
    pub const CACHE_EPOCH: u64 = 6;
    pub const HEARTBEAT: u64 = 7;
    pub const HEARTBEAT_ACK: u64 = 8;
}

impl CallMode {
    fn encode_u64(self) -> u64 {
        match self {
            CallMode::Sync => 0,
            CallMode::Async => 1,
        }
    }

    fn decode_u64(v: u64) -> Result<Self> {
        match v {
            0 => Ok(CallMode::Sync),
            1 => Ok(CallMode::Async),
            other => Err(WireError::BadDiscriminant("call mode", other)),
        }
    }
}

impl ReplyStatus {
    fn encode_u64(self) -> u64 {
        match self {
            ReplyStatus::Ok => 0,
            ReplyStatus::TransportError => 1,
            ReplyStatus::PolicyRejected => 2,
            ReplyStatus::CacheMiss => 3,
            ReplyStatus::Unavailable => 4,
            ReplyStatus::QuotaExceeded => 5,
            ReplyStatus::Overloaded => 6,
        }
    }

    fn decode_u64(v: u64) -> Result<Self> {
        match v {
            0 => Ok(ReplyStatus::Ok),
            1 => Ok(ReplyStatus::TransportError),
            2 => Ok(ReplyStatus::PolicyRejected),
            3 => Ok(ReplyStatus::CacheMiss),
            4 => Ok(ReplyStatus::Unavailable),
            5 => Ok(ReplyStatus::QuotaExceeded),
            6 => Ok(ReplyStatus::Overloaded),
            other => Err(WireError::BadDiscriminant("reply status", other)),
        }
    }
}

impl CallRequest {
    fn encode_body(&self, buf: &mut BytesMut, mut refs: Option<&mut Vec<Bytes>>) {
        put_varint(buf, self.call_id);
        put_varint(buf, u64::from(self.fn_id));
        put_varint(buf, self.mode.encode_u64());
        put_varint(buf, self.budget_us);
        put_varint(buf, self.args.len() as u64);
        for arg in &self.args {
            arg.encode_with(buf, refs.as_deref_mut());
        }
    }

    fn decode_body(buf: &mut Bytes, mut refs: Refs<'_>) -> Result<Self> {
        let call_id = get_varint(buf)?;
        let fn_id = u32::try_from(get_varint(buf)?)
            .map_err(|_| WireError::BadDiscriminant("fn id", u64::MAX))?;
        let mode = CallMode::decode_u64(get_varint(buf)?)?;
        let budget_us = get_varint(buf)?;
        let argc = get_len(buf)?;
        if argc > buf.remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let mut args = Vec::with_capacity(argc);
        for _ in 0..argc {
            args.push(Value::decode_with(buf, refs.as_deref_mut())?);
        }
        Ok(CallRequest {
            call_id,
            fn_id,
            mode,
            args,
            budget_us,
        })
    }

    /// Total payload bytes moved guest-to-host by this request.
    pub fn payload_bytes(&self) -> usize {
        self.args.iter().map(Value::payload_bytes).sum()
    }

    /// Total payload bytes elided from this request by the transfer cache.
    pub fn elided_bytes(&self) -> usize {
        self.args.iter().map(Value::elided_bytes).sum()
    }

    /// Number of `CachedBytes` arguments in this request, recursively.
    pub fn cached_count(&self) -> usize {
        self.args.iter().map(Value::cached_count).sum()
    }
}

impl CallReply {
    fn encode_body(&self, buf: &mut BytesMut, mut refs: Option<&mut Vec<Bytes>>) {
        put_varint(buf, self.call_id);
        put_varint(buf, self.status.encode_u64());
        self.ret.encode_with(buf, refs.as_deref_mut());
        put_varint(buf, self.outputs.len() as u64);
        for (idx, value) in &self.outputs {
            put_varint(buf, u64::from(*idx));
            value.encode_with(buf, refs.as_deref_mut());
        }
    }

    fn decode_body(buf: &mut Bytes, mut refs: Refs<'_>) -> Result<Self> {
        let call_id = get_varint(buf)?;
        let status = ReplyStatus::decode_u64(get_varint(buf)?)?;
        let ret = Value::decode_with(buf, refs.as_deref_mut())?;
        let count = get_len(buf)?;
        if count > buf.remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let mut outputs = Vec::with_capacity(count);
        for _ in 0..count {
            let idx = u32::try_from(get_varint(buf)?)
                .map_err(|_| WireError::BadDiscriminant("output index", u64::MAX))?;
            outputs.push((idx, Value::decode_with(buf, refs.as_deref_mut())?));
        }
        Ok(CallReply {
            call_id,
            status,
            ret,
            outputs,
        })
    }

    /// Total payload bytes moved host-to-guest by this reply.
    pub fn payload_bytes(&self) -> usize {
        self.ret.payload_bytes()
            + self
                .outputs
                .iter()
                .map(|(_, v)| v.payload_bytes())
                .sum::<usize>()
    }

    /// Convenience constructor for a transport-level failure reply.
    pub fn transport_error(call_id: CallId) -> Self {
        CallReply {
            call_id,
            status: ReplyStatus::TransportError,
            ret: Value::Unit,
            outputs: Vec::new(),
        }
    }

    /// Convenience constructor for an overload-shed reply.
    pub fn overloaded(call_id: CallId) -> Self {
        CallReply {
            call_id,
            status: ReplyStatus::Overloaded,
            ret: Value::Unit,
            outputs: Vec::new(),
        }
    }
}

impl ControlMessage {
    fn encode_body(&self, buf: &mut BytesMut) {
        match self {
            ControlMessage::Ping(v) => {
                put_varint(buf, ctrl::PING);
                put_varint(buf, *v);
            }
            ControlMessage::Pong(v) => {
                put_varint(buf, ctrl::PONG);
                put_varint(buf, *v);
            }
            ControlMessage::Shutdown => put_varint(buf, ctrl::SHUTDOWN),
            ControlMessage::Suspend => put_varint(buf, ctrl::SUSPEND),
            ControlMessage::Resume => put_varint(buf, ctrl::RESUME),
            ControlMessage::Error(text) => {
                put_varint(buf, ctrl::ERROR);
                put_varint(buf, text.len() as u64);
                buf.put_slice(text.as_bytes());
            }
            ControlMessage::CacheEpoch(epoch) => {
                put_varint(buf, ctrl::CACHE_EPOCH);
                put_varint(buf, *epoch);
            }
            ControlMessage::Heartbeat(seq) => {
                put_varint(buf, ctrl::HEARTBEAT);
                put_varint(buf, *seq);
            }
            ControlMessage::HeartbeatAck(seq) => {
                put_varint(buf, ctrl::HEARTBEAT_ACK);
                put_varint(buf, *seq);
            }
        }
    }

    fn decode_body(buf: &mut Bytes) -> Result<Self> {
        Ok(match get_varint(buf)? {
            ctrl::PING => ControlMessage::Ping(get_varint(buf)?),
            ctrl::PONG => ControlMessage::Pong(get_varint(buf)?),
            ctrl::SHUTDOWN => ControlMessage::Shutdown,
            ctrl::SUSPEND => ControlMessage::Suspend,
            ctrl::RESUME => ControlMessage::Resume,
            ctrl::ERROR => {
                let len = get_len(buf)?;
                if buf.remaining() < len {
                    return Err(WireError::UnexpectedEof);
                }
                let raw = buf.split_to(len);
                ControlMessage::Error(
                    String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)?,
                )
            }
            ctrl::CACHE_EPOCH => ControlMessage::CacheEpoch(get_varint(buf)?),
            ctrl::HEARTBEAT => ControlMessage::Heartbeat(get_varint(buf)?),
            ctrl::HEARTBEAT_ACK => ControlMessage::HeartbeatAck(get_varint(buf)?),
            other => return Err(WireError::BadDiscriminant("control kind", other)),
        })
    }
}

impl Message {
    /// Serializes the message into a standalone byte string.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.encoded_size_hint());
        self.encode_into(&mut buf);
        buf.freeze()
    }

    /// A cheap upper-ballpark of the encoded size, used to reserve the
    /// output buffer in one shot. Large payloads dominate the frame, so
    /// sizing by payload bytes (plus a small per-call framing allowance)
    /// keeps `encode` from growing-and-copying the buffer — the last
    /// hidden memcpy on the serialization path for big transfers.
    pub fn encoded_size_hint(&self) -> usize {
        let calls = match self {
            Message::Batch(reqs) => reqs.len(),
            _ => 1,
        };
        64 + self.payload_bytes() + 64 * calls
    }

    /// Serializes the message, appending to `buf`.
    pub fn encode_into(&self, buf: &mut BytesMut) {
        self.encode_with(buf, None);
    }

    /// Serializes the message in by-reference mode, appending the frame to
    /// `buf`: every `Value::Bytes` (arguments, `List` and `Batch` members,
    /// reply `ret` and outputs) is written as a descriptor — tag and
    /// length — and its handle, a refcount clone rather than a copy, is
    /// appended to `refs` in frame order. This is the virtio
    /// indirect-descriptor mode for a transport whose two ends share
    /// memory: the frame means nothing without `refs`, and
    /// [`Message::decode`] rejects it. A payload-free message encodes
    /// exactly as [`Message::encode_into`] writes it.
    pub fn encode_indirect(&self, buf: &mut BytesMut, refs: &mut Vec<Bytes>) {
        self.encode_with(buf, Some(refs));
    }

    fn encode_with(&self, buf: &mut BytesMut, mut refs: Option<&mut Vec<Bytes>>) {
        match self {
            Message::Call(req) => {
                buf.put_u8(kind::CALL);
                req.encode_body(buf, refs);
            }
            Message::Reply(rep) => {
                buf.put_u8(kind::REPLY);
                rep.encode_body(buf, refs);
            }
            Message::Batch(reqs) => {
                buf.put_u8(kind::BATCH);
                put_varint(buf, reqs.len() as u64);
                for req in reqs {
                    req.encode_body(buf, refs.as_deref_mut());
                }
            }
            Message::Control(ctl) => {
                buf.put_u8(kind::CONTROL);
                ctl.encode_body(buf);
            }
        }
    }

    /// Decodes exactly one message, consuming the entire input.
    pub fn decode(bytes: Bytes) -> Result<Message> {
        Self::decode_exact(bytes, None)
    }

    /// Decodes a frame written by [`Message::encode_indirect`], re-attaching
    /// `refs` in order. The frame's descriptors must consume exactly
    /// `refs`, each with the length it records, or decoding fails with
    /// [`WireError::DescriptorMismatch`]: a frame is never paired with a
    /// wrong buffer.
    pub fn decode_indirect(frame: Bytes, refs: Vec<Bytes>) -> Result<Message> {
        let mut refs = refs.into_iter();
        let msg = Self::decode_exact(frame, Some(&mut refs))?;
        if refs.next().is_some() {
            return Err(WireError::DescriptorMismatch);
        }
        Ok(msg)
    }

    fn decode_exact(bytes: Bytes, refs: Refs<'_>) -> Result<Message> {
        let mut buf = bytes;
        let msg = Self::decode_with(&mut buf, refs)?;
        if buf.has_remaining() {
            return Err(WireError::TrailingBytes(buf.remaining()));
        }
        Ok(msg)
    }

    /// Decodes one message from the front of `buf`, leaving any remainder.
    pub fn decode_from(buf: &mut Bytes) -> Result<Message> {
        Self::decode_with(buf, None)
    }

    fn decode_with(buf: &mut Bytes, mut refs: Refs<'_>) -> Result<Message> {
        if !buf.has_remaining() {
            return Err(WireError::UnexpectedEof);
        }
        let k = buf.get_u8();
        Ok(match k {
            kind::CALL => Message::Call(CallRequest::decode_body(buf, refs)?),
            kind::REPLY => Message::Reply(CallReply::decode_body(buf, refs)?),
            kind::BATCH => {
                let count = get_len(buf)?;
                if count > MAX_BATCH_CALLS {
                    return Err(WireError::BatchTooLarge(count));
                }
                if count > buf.remaining() {
                    return Err(WireError::UnexpectedEof);
                }
                let mut reqs = Vec::with_capacity(count);
                for _ in 0..count {
                    reqs.push(CallRequest::decode_body(buf, refs.as_deref_mut())?);
                }
                Message::Batch(reqs)
            }
            kind::CONTROL => Message::Control(ControlMessage::decode_body(buf)?),
            other => return Err(WireError::BadMessageKind(other)),
        })
    }

    /// Payload bytes carried by this message (for bandwidth accounting).
    pub fn payload_bytes(&self) -> usize {
        match self {
            Message::Call(req) => req.payload_bytes(),
            Message::Reply(rep) => rep.payload_bytes(),
            Message::Batch(reqs) => reqs.iter().map(CallRequest::payload_bytes).sum(),
            Message::Control(_) => 0,
        }
    }

    /// Payload bytes this message elided via the transfer cache.
    pub fn elided_bytes(&self) -> usize {
        match self {
            Message::Call(req) => req.elided_bytes(),
            Message::Batch(reqs) => reqs.iter().map(CallRequest::elided_bytes).sum(),
            _ => 0,
        }
    }

    /// Number of `CachedBytes` arguments across this message's calls.
    pub fn cached_count(&self) -> usize {
        match self {
            Message::Call(req) => req.cached_count(),
            Message::Batch(reqs) => reqs.iter().map(CallRequest::cached_count).sum(),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg: &Message) -> Message {
        Message::decode(msg.encode()).expect("round trip")
    }

    fn sample_call(id: u64) -> CallRequest {
        CallRequest {
            call_id: id,
            fn_id: 17,
            mode: CallMode::Sync,
            args: vec![
                Value::Handle(3),
                Value::U64(4096),
                Value::Bytes(Bytes::from_static(&[1, 2, 3])),
                Value::Null,
            ],
            budget_us: 0,
        }
    }

    #[test]
    fn call_round_trips() {
        let msg = Message::Call(sample_call(99));
        assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn async_call_round_trips() {
        let mut req = sample_call(1);
        req.mode = CallMode::Async;
        let msg = Message::Call(req);
        assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn reply_round_trips() {
        let msg = Message::Reply(CallReply {
            call_id: 99,
            status: ReplyStatus::Ok,
            ret: Value::I32(0),
            outputs: vec![
                (2, Value::Bytes(Bytes::from_static(b"result"))),
                (5, Value::Handle(42)),
            ],
        });
        assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn policy_rejected_reply_round_trips() {
        let msg = Message::Reply(CallReply {
            call_id: 1,
            status: ReplyStatus::PolicyRejected,
            ret: Value::Unit,
            outputs: vec![],
        });
        assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn batch_round_trips() {
        let msg = Message::Batch(vec![sample_call(1), sample_call(2), sample_call(3)]);
        assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn empty_batch_round_trips() {
        let msg = Message::Batch(vec![]);
        assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn control_round_trips() {
        for ctl in [
            ControlMessage::Ping(7),
            ControlMessage::Pong(7),
            ControlMessage::Shutdown,
            ControlMessage::Suspend,
            ControlMessage::Resume,
            ControlMessage::Error("device lost".into()),
            ControlMessage::CacheEpoch(0),
            ControlMessage::CacheEpoch(u64::MAX),
            ControlMessage::Heartbeat(0),
            ControlMessage::Heartbeat(u64::MAX),
            ControlMessage::HeartbeatAck(3),
        ] {
            let msg = Message::Control(ctl);
            assert_eq!(round_trip(&msg), msg);
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        let mut buf = BytesMut::new();
        Message::Control(ControlMessage::Shutdown).encode_into(&mut buf);
        buf.put_u8(0xaa);
        assert_eq!(
            Message::decode(buf.freeze()),
            Err(WireError::TrailingBytes(1))
        );
    }

    #[test]
    fn decode_rejects_unknown_kind() {
        let bytes = Bytes::from_static(&[0xee]);
        assert_eq!(Message::decode(bytes), Err(WireError::BadMessageKind(0xee)));
    }

    #[test]
    fn decode_rejects_empty_input() {
        assert_eq!(Message::decode(Bytes::new()), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn decode_rejects_batch_count_overrun() {
        let mut buf = BytesMut::new();
        buf.put_u8(0x12); // BATCH
        buf.put_u8(0x05); // claims 5 calls, but nothing follows
        assert_eq!(Message::decode(buf.freeze()), Err(WireError::UnexpectedEof));
    }

    #[test]
    fn decode_rejects_batch_over_call_cap() {
        let mut buf = BytesMut::new();
        buf.put_u8(0x12); // BATCH
        put_varint(&mut buf, (MAX_BATCH_CALLS + 1) as u64);
        // Enough trailing bytes that the count passes the EOF guard; the
        // cap must reject the frame before any per-call decoding begins.
        buf.extend_from_slice(&vec![0u8; MAX_BATCH_CALLS + 2]);
        assert_eq!(
            Message::decode(buf.freeze()),
            Err(WireError::BatchTooLarge(MAX_BATCH_CALLS + 1))
        );
    }

    #[test]
    fn batch_at_call_cap_round_trips() {
        let calls: Vec<CallRequest> = (0..MAX_BATCH_CALLS as u64)
            .map(|id| CallRequest {
                call_id: id,
                fn_id: 1,
                mode: CallMode::Async,
                args: vec![],
                budget_us: 0,
            })
            .collect();
        let msg = Message::Batch(calls);
        assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn encode_reserves_for_large_payloads() {
        let payload = vec![0xabu8; 1 << 20];
        let msg = Message::Call(CallRequest {
            call_id: 1,
            fn_id: 2,
            mode: CallMode::Sync,
            args: vec![Value::Bytes(Bytes::from(payload))],
            budget_us: 0,
        });
        assert!(msg.encoded_size_hint() >= 1 << 20);
        assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn payload_accounting_spans_batches() {
        let msg = Message::Batch(vec![sample_call(1), sample_call(2)]);
        assert_eq!(msg.payload_bytes(), 6);
        assert_eq!(Message::Control(ControlMessage::Ping(0)).payload_bytes(), 0);
    }

    #[test]
    fn cache_miss_reply_round_trips() {
        let msg = Message::Reply(CallReply {
            call_id: 12,
            status: ReplyStatus::CacheMiss,
            ret: Value::Unit,
            outputs: vec![],
        });
        assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn elided_accounting_spans_batches() {
        let mut req = sample_call(1);
        req.args.push(Value::CachedBytes {
            digest: 0xfeed,
            len: 512,
        });
        let msg = Message::Batch(vec![req.clone(), sample_call(2)]);
        // Each sample_call carries 3 payload bytes; the cached arg adds none.
        assert_eq!(msg.payload_bytes(), 6);
        assert_eq!(msg.elided_bytes(), 512);
        assert_eq!(msg.cached_count(), 1);
        let single = Message::Call(req);
        assert_eq!(single.elided_bytes(), 512);
        assert_eq!(single.cached_count(), 1);
        assert_eq!(Message::Control(ControlMessage::Ping(0)).elided_bytes(), 0);
    }

    #[test]
    fn unavailable_reply_round_trips() {
        let msg = Message::Reply(CallReply {
            call_id: 77,
            status: ReplyStatus::Unavailable,
            ret: Value::Unit,
            outputs: vec![],
        });
        assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn quota_exceeded_reply_round_trips() {
        let msg = Message::Reply(CallReply {
            call_id: 78,
            status: ReplyStatus::QuotaExceeded,
            ret: Value::Unit,
            outputs: vec![],
        });
        assert_eq!(round_trip(&msg), msg);
    }

    #[test]
    fn overloaded_reply_round_trips() {
        let msg = Message::Reply(CallReply::overloaded(79));
        assert_eq!(round_trip(&msg), msg);
        if let Message::Reply(rep) = &msg {
            assert_eq!(rep.status, ReplyStatus::Overloaded);
        }
    }

    #[test]
    fn deadline_budget_round_trips() {
        for budget in [0u64, 1, 1_000, u64::MAX] {
            let mut req = sample_call(5);
            req.budget_us = budget;
            let msg = Message::Call(req);
            assert_eq!(round_trip(&msg), msg);
            let batch = Message::Batch(vec![sample_call(1), {
                let mut r = sample_call(2);
                r.budget_us = budget;
                r
            }]);
            assert_eq!(round_trip(&batch), batch);
        }
    }

    #[test]
    fn truncated_budget_fails_cleanly() {
        let mut req = sample_call(3);
        req.args.clear(); // budget varint is the tail of the frame
        req.budget_us = u64::MAX;
        let encoded = Message::Call(req).encode();
        // Chop the multi-byte budget varint in half.
        let truncated = encoded.slice(0..encoded.len() - 5);
        assert!(Message::decode(truncated).is_err());
    }

    #[test]
    fn truncated_heartbeat_fails_cleanly() {
        for ctl in [
            ControlMessage::Heartbeat(u64::MAX),
            ControlMessage::HeartbeatAck(u64::MAX),
        ] {
            let encoded = Message::Control(ctl).encode();
            // Chop the multi-byte varint sequence number in half.
            let truncated = encoded.slice(0..encoded.len() - 4);
            assert!(Message::decode(truncated).is_err());
        }
    }

    fn indirect(msg: &Message) -> (Bytes, Vec<Bytes>) {
        let mut buf = BytesMut::new();
        let mut refs = Vec::new();
        msg.encode_indirect(&mut buf, &mut refs);
        (buf.freeze(), refs)
    }

    #[test]
    fn indirect_frames_carry_descriptors_and_reattach_the_same_buffers() {
        let big = Bytes::from(vec![7u8; 4096]);
        let mut call = sample_call(1);
        call.args.push(Value::List(vec![
            Value::Bytes(big.clone()),
            Value::Bytes(Bytes::new()),
        ]));
        let msg = Message::Batch(vec![call, sample_call(2)]);
        let (frame, refs) = indirect(&msg);
        // sample_call's 3-byte buffer, then the list's two, then call 2's.
        assert_eq!(
            refs.iter().map(|b| b.len()).collect::<Vec<_>>(),
            [3, 4096, 0, 3]
        );
        assert!(frame.len() < 64, "payload bytes leaked into the frame");
        let decoded = Message::decode_indirect(frame, refs).unwrap();
        assert_eq!(decoded, msg);
        let Message::Batch(calls) = decoded else {
            unreachable!()
        };
        let list = calls[0].args[4].as_list().unwrap();
        assert_eq!(list[0].as_bytes().unwrap().as_ptr(), big.as_ptr());
    }

    #[test]
    fn payload_free_messages_encode_identically_in_both_modes() {
        let mut req = sample_call(3);
        req.args.retain(|v| v.as_bytes().is_none());
        req.args.push(Value::Str("kernel".into()));
        for msg in [
            Message::Call(req),
            Message::Control(ControlMessage::Ping(5)),
        ] {
            let (frame, refs) = indirect(&msg);
            assert!(refs.is_empty());
            assert_eq!(frame, msg.encode());
        }
    }

    #[test]
    fn plain_decode_rejects_by_reference_frames() {
        let (frame, _) = indirect(&Message::Call(sample_call(1)));
        assert_eq!(Message::decode(frame), Err(WireError::BadTag(0x0f)));
    }

    #[test]
    fn indirect_decode_rejects_descriptor_mismatch() {
        let msg = Message::Call(sample_call(1));
        let (frame, refs) = indirect(&msg);
        let too_few = Vec::new();
        let mut too_many = refs.clone();
        too_many.push(Bytes::from_static(b"extra"));
        let wrong_len = vec![Bytes::from_static(b"1234")];
        for bad in [too_few, too_many, wrong_len] {
            assert_eq!(
                Message::decode_indirect(frame.clone(), bad),
                Err(WireError::DescriptorMismatch)
            );
        }
        assert_eq!(Message::decode_indirect(frame, refs).unwrap(), msg);
    }

    #[test]
    fn decode_from_leaves_remainder() {
        let mut buf = BytesMut::new();
        Message::Call(sample_call(5)).encode_into(&mut buf);
        Message::Control(ControlMessage::Resume).encode_into(&mut buf);
        let mut bytes = buf.freeze();
        let first = Message::decode_from(&mut bytes).unwrap();
        assert!(matches!(first, Message::Call(_)));
        let second = Message::decode_from(&mut bytes).unwrap();
        assert_eq!(second, Message::Control(ControlMessage::Resume));
        assert!(bytes.is_empty());
    }
}
