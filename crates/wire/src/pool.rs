//! The recycled payload store: process-wide storage for bulk payloads.
//!
//! Each bulk transfer used to allocate its payload fresh — the guest's
//! upload copy, the server's readback buffer — and the kernel zero-fills
//! every page of a fresh allocation on first touch. The store keeps the
//! storage of payloads whose last [`Bytes`] view dropped and hands it to
//! the next payload of the same size class, so a transfer costs a memcpy
//! instead of a page fault per 4 KiB. It is the fixed, reused buffer set a
//! virtio ring posts, kept per process instead of per ring.
//!
//! Size classes are powers of two from [`MIN_POOLED_BYTES`] to
//! [`MAX_POOLED_BYTES`]; smaller payloads come from `malloc`'s own free
//! lists, which already reuse memory, and larger ones bypass the store.
//! At most [`RETAINED_CAP_BYTES`] of capacity waits in the store; a
//! buffer returning beyond that is freed. These are constants, not
//! knobs: they trade retained memory for faults, and no workload here
//! wants the trade tuned.
//!
//! A recycled buffer still holds its previous payload, so the store only
//! hands storage out through [`copy_payload`] and [`fill_payload`], which
//! expose a payload's bytes only once they are all its own.

use std::sync::{LazyLock, Mutex};

use ava_telemetry::{metric_set, MetricSet, Registry};
use bytes::Bytes;

/// Smallest payload served from the store.
const MIN_POOLED_BYTES: usize = 16 << 10;

/// Largest payload served from the store.
const MAX_POOLED_BYTES: usize = 64 << 20;

/// Most capacity the store keeps waiting for reuse, over all classes.
const RETAINED_CAP_BYTES: usize = 256 << 20;

const CLASSES: usize = (MAX_POOLED_BYTES / MIN_POOLED_BYTES).trailing_zeros() as usize + 1;

metric_set! {
    /// What the payload store has done, process-wide.
    struct PoolCells {
        /// Payloads served with recycled storage.
        hits: Counter,
        /// Poolable payloads that found their class empty and allocated.
        misses: Counter,
        /// Capacity waiting in the store for reuse.
        retained_bytes: Gauge,
    }
}

struct Store {
    /// Free buffers per class, most recently returned last. Every update
    /// keeps it valid (the vectors and `retained` change together, with
    /// no panic between), so a poisoned lock is recovered: `give` runs in
    /// `Drop`, which must not panic.
    classes: Mutex<Classes>,
    cells: PoolCells,
}

struct Classes {
    free: [Vec<Vec<u8>>; CLASSES],
    retained: usize,
}

static STORE: LazyLock<Store> = LazyLock::new(|| Store {
    classes: Mutex::new(Classes {
        free: std::array::from_fn(|_| Vec::new()),
        retained: 0,
    }),
    cells: PoolCells::default(),
});

/// The class whose buffers can hold `len` bytes, if `len` is poolable.
fn class_for_len(len: usize) -> Option<usize> {
    (MIN_POOLED_BYTES..=MAX_POOLED_BYTES)
        .contains(&len)
        .then(|| len.next_power_of_two().trailing_zeros() - MIN_POOLED_BYTES.trailing_zeros())
        .map(|c| c as usize)
}

/// The largest class a buffer of `capacity` bytes can serve.
fn class_for_capacity(capacity: usize) -> Option<usize> {
    (capacity >= MIN_POOLED_BYTES).then(|| {
        let c = capacity.ilog2() - MIN_POOLED_BYTES.trailing_zeros();
        (c as usize).min(CLASSES - 1)
    })
}

/// Storage for a `len`-byte payload: recycled (holding some earlier
/// payload's bytes, at whatever length it had) or freshly allocated.
fn take(len: usize) -> Option<Vec<u8>> {
    let class = class_for_len(len)?;
    let store = &*STORE;
    let recycled = {
        let mut classes = store.classes.lock().unwrap_or_else(|p| p.into_inner());
        let buf = classes.free[class].pop();
        if let Some(buf) = &buf {
            classes.retained -= buf.capacity();
            store.cells.retained_bytes.set(classes.retained as f64);
        }
        buf
    };
    Some(match recycled {
        Some(buf) => {
            store.cells.hits.inc();
            buf
        }
        None => {
            store.cells.misses.inc();
            Vec::with_capacity(MIN_POOLED_BYTES << class)
        }
    })
}

/// Returns `buf` to the store, or frees it when the store is full.
fn give(buf: Vec<u8>) {
    let Some(class) = class_for_capacity(buf.capacity()) else {
        return;
    };
    let store = &*STORE;
    let mut classes = store.classes.lock().unwrap_or_else(|p| p.into_inner());
    if classes.retained + buf.capacity() > RETAINED_CAP_BYTES {
        drop(classes);
        return; // `buf` is freed outside the lock.
    }
    classes.retained += buf.capacity();
    store.cells.retained_bytes.set(classes.retained as f64);
    classes.free[class].push(buf);
}

/// A payload's storage while [`Bytes`] views of it live; the last view's
/// drop returns it to the store.
struct Recycled(Vec<u8>);

impl AsRef<[u8]> for Recycled {
    fn as_ref(&self) -> &[u8] {
        &self.0
    }
}

impl Drop for Recycled {
    fn drop(&mut self) {
        give(std::mem::take(&mut self.0));
    }
}

/// A payload holding a copy of `src`, in recycled storage when `src` is
/// large enough to be worth it.
pub fn copy_payload(src: &[u8]) -> Bytes {
    match take(src.len()) {
        Some(mut buf) => {
            buf.clear();
            buf.extend_from_slice(src);
            Bytes::from_owner(Recycled(buf))
        }
        None => Bytes::from(src.to_vec()),
    }
}

/// A `len`-byte payload written by `fill`, which must overwrite all of the
/// slice it is given when it returns `Ok`. The slice may hold an earlier
/// payload's bytes; they are not zeroed first. When `fill` fails, the
/// storage goes back to the store unseen.
pub fn fill_payload<T, E>(
    len: usize,
    fill: impl FnOnce(&mut [u8]) -> Result<T, E>,
) -> Result<(Bytes, T), E> {
    let Some(mut buf) = take(len) else {
        let mut data = vec![0u8; len];
        let value = fill(&mut data)?;
        return Ok((Bytes::from(data), value));
    };
    // Only bytes no payload has held yet are zeroed.
    buf.resize(len, 0);
    let mut recycled = Recycled(buf);
    let value = fill(&mut recycled.0)?;
    Ok((Bytes::from_owner(recycled), value))
}

/// Registers the store's cells under `payload_pool.*`. The store is
/// process-wide, so every registry this is called with reads the same
/// cells.
pub fn register_payload_pool(registry: &Registry) {
    STORE.cells.register(registry, "payload_pool");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_cover_the_poolable_range() {
        assert_eq!(class_for_len(MIN_POOLED_BYTES - 1), None);
        assert_eq!(class_for_len(MIN_POOLED_BYTES), Some(0));
        assert_eq!(class_for_len(MIN_POOLED_BYTES + 1), Some(1));
        assert_eq!(class_for_len(16 << 20), Some(10));
        assert_eq!(class_for_len(MAX_POOLED_BYTES), Some(CLASSES - 1));
        assert_eq!(class_for_len(MAX_POOLED_BYTES + 1), None);
        for len in [MIN_POOLED_BYTES, 100 << 10, 16 << 20, MAX_POOLED_BYTES] {
            let class = class_for_len(len).unwrap();
            let capacity = MIN_POOLED_BYTES << class;
            assert!(capacity >= len);
            assert_eq!(class_for_capacity(capacity), Some(class));
            // A buffer with spare capacity still serves its own class.
            assert_eq!(class_for_capacity(capacity + 1), Some(class));
        }
        assert_eq!(class_for_capacity(MIN_POOLED_BYTES - 1), None);
    }

    #[test]
    fn payloads_below_the_smallest_class_round_trip() {
        assert_eq!(&copy_payload(b"small")[..], b"small");
        let (b, ()) = fill_payload(8, |d| {
            d.copy_from_slice(b"eight..!");
            Ok::<_, ()>(())
        })
        .unwrap();
        assert_eq!(&b[..], b"eight..!");
    }

    // The store is process-wide and the other tests in this binary may
    // use it concurrently, so these only assert what no interleaving can
    // change: the bytes a payload exposes.

    #[test]
    fn copies_and_fills_expose_only_their_own_bytes() {
        for round in 0..4u8 {
            for len in [MIN_POOLED_BYTES, 40 << 10, 64 << 10] {
                let src = vec![round ^ 0x5a; len];
                let copy = copy_payload(&src);
                assert_eq!(&copy[..], &src[..]);
                drop(copy);
                let (filled, n) = fill_payload(len - 7, |d| {
                    d.fill(round);
                    Ok::<_, ()>(d.len())
                })
                .unwrap();
                assert_eq!(n, len - 7);
                assert!(filled.iter().all(|&b| b == round));
            }
        }
    }

    #[test]
    fn a_failed_fill_yields_nothing() {
        let r: Result<(Bytes, ()), &str> = fill_payload(32 << 10, |d| {
            d[0] = 1;
            Err("device error")
        });
        assert_eq!(r.unwrap_err(), "device error");
    }

    #[test]
    fn views_of_a_payload_keep_its_storage_out_of_the_store() {
        let a = copy_payload(&[1u8; 20 << 10]);
        let tail = a.slice(10 << 10..);
        drop(a);
        // Whatever reuses storage now cannot be `tail`'s.
        let b = copy_payload(&[2u8; 20 << 10]);
        assert!(tail.iter().all(|&x| x == 1));
        assert!(b.iter().all(|&x| x == 2));
    }
}
