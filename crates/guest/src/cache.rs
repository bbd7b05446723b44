//! Transfer-cache elision, guest side: a buffer whose digest the server
//! already holds crosses as `CachedBytes` (a `CacheMiss` NACK gets a full
//! resend from the window).

use ava_wire::{digest64, DigestLru, Value};

use crate::{GuestConfig, GuestCounters};

/// Digests of the eligible buffers already pushed over this connection.
pub(crate) struct TxCache {
    /// Zero capacity turns elision off.
    digests: DigestLru<()>,
    /// Smallest eligible buffer; must match the server.
    min_bytes: usize,
}

impl TxCache {
    pub(crate) fn new(config: &GuestConfig) -> Self {
        TxCache {
            digests: DigestLru::new(config.payload_cache_entries),
            min_bytes: config.payload_cache_min_bytes,
        }
    }

    /// Elides every eligible buffer in `args` the server already holds.
    /// Returns the wire-form arguments plus — whenever the cache is on —
    /// the full-payload arguments, kept so a `CacheMiss` NACK can be
    /// answered with a retransmission.
    pub(crate) fn prepare(
        &mut self,
        args: Vec<Value>,
        counters: &GuestCounters,
    ) -> (Vec<Value>, Option<Vec<Value>>) {
        if self.digests.capacity() == 0 {
            return (args, None);
        }
        let wire_args = args
            .iter()
            .map(|arg| match arg {
                Value::Bytes(b) if b.len() >= self.min_bytes => {
                    let digest = digest64(b);
                    if self.digests.get(digest).is_some() {
                        counters.payload_cache_hits.inc();
                        counters.bytes_elided.add(b.len() as u64);
                        Value::CachedBytes {
                            digest,
                            len: b.len() as u64,
                        }
                    } else {
                        self.digests.insert(digest, ());
                        arg.clone()
                    }
                }
                other => other.clone(),
            })
            .collect();
        (wire_args, Some(args))
    }

    /// Re-inserts the digests of every eligible buffer in `args` after a
    /// `CacheMiss` resend: the server inserts them on receipt, so doing the
    /// same here keeps the two caches mirrored.
    pub(crate) fn repair(&mut self, args: &[Value]) {
        for arg in args {
            match arg {
                Value::Bytes(b) if b.len() >= self.min_bytes => {
                    self.digests.insert(digest64(b), ())
                }
                _ => {}
            }
        }
    }

    /// Forgets every digest: the server's cache started over.
    pub(crate) fn clear(&mut self) {
        self.digests.clear();
    }
}
