//! Offline compatibility shim for the `bytes` API subset this workspace
//! uses: [`Bytes`] (cheaply cloneable shared byte slices), [`BytesMut`]
//! (growable build buffer), and the [`Buf`]/[`BufMut`] cursor traits with
//! the little-endian accessors the wire codec needs.
//!
//! See `compat/README.md` for why these shims exist. Semantics
//! match the real crate for the covered surface: `Bytes::clone`, `slice`,
//! and `split_to` are O(1) views over shared storage, which
//! [`Bytes::from_owner`] lets any byte container provide; `Buf` getters
//! panic on underflow (callers bounds-check with `remaining()` first).

use std::ops::{Bound, RangeBounds};
use std::ptr::NonNull;
use std::sync::Arc;

/// A cheaply cloneable, contiguous, immutable slice of bytes.
///
/// A view is a pointer and a length into memory that its shared storage
/// keeps alive, so `Deref` reads no storage at all.
pub struct Bytes {
    ptr: NonNull<u8>,
    len: usize,
    /// `None` for empty and `'static` views, which own nothing.
    storage: Option<Arc<Storage>>,
}

/// The memory behind every view of one [`Bytes`]: a vector it took over,
/// or a [`Bytes::from_owner`] owner, dropped with the last view.
/// Neither is read after construction: views hold their own pointer.
enum Storage {
    Vec { _data: Vec<u8> },
    Owner { _owner: Box<dyn Send> },
}

// SAFETY: views read their bytes through their own pointer and never
// through a `&Storage`; sharing a `Storage` across threads therefore only
// ever lets the last view drop it, which `Send` already permits.
unsafe impl Sync for Storage {}

// SAFETY: the bytes a view points at are immutable and kept alive by its
// `Storage`, which is `Send + Sync`; a `'static` view points at static
// memory.
unsafe impl Send for Bytes {}
// SAFETY: as for `Send`: shared access only ever reads immutable bytes.
unsafe impl Sync for Bytes {}

impl Clone for Bytes {
    fn clone(&self) -> Self {
        Bytes {
            ptr: self.ptr,
            len: self.len,
            storage: self.storage.clone(),
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes {
            ptr: NonNull::dangling(),
            len: 0,
            storage: None,
        }
    }
}

impl Bytes {
    /// An empty `Bytes`.
    pub fn new() -> Self {
        Bytes::default()
    }

    /// A view of static memory; allocates nothing.
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes {
            ptr: NonNull::from(data).cast(),
            len: data.len(),
            storage: None,
        }
    }

    /// A view of the bytes `owner` holds, without copying them. `owner` is
    /// dropped exactly once, when the last view of it (every `clone`,
    /// `slice` and `split_to` included) drops. Mirrors `bytes` 1.9.
    ///
    /// `owner.as_ref()` is read once, here, and must keep pointing at the
    /// same bytes for as long as `owner` lives, as the real crate assumes.
    pub fn from_owner<T>(owner: T) -> Self
    where
        T: AsRef<[u8]> + Send + 'static,
    {
        // Box first, so bytes stored inside `T` itself stop moving.
        let owner = Box::new(owner);
        let data = (*owner).as_ref();
        let (ptr, len) = (NonNull::from(data).cast(), data.len());
        Bytes {
            ptr,
            len,
            storage: Some(Arc::new(Storage::Owner { _owner: owner })),
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view of `self`; shares storage.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let lo = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let hi = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            lo <= hi && hi <= self.len(),
            "slice range {lo}..{hi} out of bounds for length {}",
            self.len()
        );
        let mut view = self.clone();
        view.skip(lo);
        view.len = hi - lo;
        view
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len(), "split_to({at}) out of bounds");
        let mut head = self.clone();
        head.len = at;
        self.skip(at);
        head
    }

    /// Drops the first `cnt` bytes from the view.
    fn skip(&mut self, cnt: usize) {
        assert!(cnt <= self.len, "advance({cnt}) out of bounds");
        // SAFETY: `cnt <= len` (asserted), so the result stays inside (or
        // one past the end of) the memory this view covers.
        self.ptr = unsafe { self.ptr.add(cnt) };
        self.len -= cnt;
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr..ptr + len` lies in immutable memory that `storage`
        // (or `'static`) keeps alive for as long as `self` exists.
        unsafe { std::slice::from_raw_parts(self.ptr.as_ptr(), self.len) }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(data: Vec<u8>) -> Self {
        if data.is_empty() {
            return Bytes::new();
        }
        // The vector's heap buffer does not move with the vector.
        let ptr = NonNull::from(data.as_slice()).cast();
        let len = data.len();
        Bytes {
            ptr,
            len,
            storage: Some(Arc::new(Storage::Vec { _data: data })),
        }
    }
}

impl From<&[u8]> for Bytes {
    fn from(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl std::borrow::Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}

impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Bytes) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Bytes) -> std::cmp::Ordering {
        self.as_slice().cmp(other.as_slice())
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.as_slice() {
            for c in std::ascii::escape_default(b) {
                write!(f, "{}", c as char)?;
            }
        }
        write!(f, "\"")
    }
}

/// A growable byte buffer used to build frames, frozen into [`Bytes`].
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct BytesMut {
    data: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut::default()
    }

    pub fn with_capacity(capacity: usize) -> Self {
        BytesMut {
            data: Vec::with_capacity(capacity),
        }
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn clear(&mut self) {
        self.data.clear();
    }

    pub fn reserve(&mut self, additional: usize) {
        self.data.reserve(additional);
    }

    pub fn extend_from_slice(&mut self, extend: &[u8]) {
        self.data.extend_from_slice(extend);
    }

    /// Converts into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.data)
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.data
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(buf: BytesMut) -> Vec<u8> {
        buf.data
    }
}

/// Read cursor over a byte container. Getters consume from the front and
/// panic on underflow, matching the real crate's contract.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn advance(&mut self, cnt: usize);
    /// The readable contiguous region.
    fn chunk(&self) -> &[u8];

    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    fn get_u8(&mut self) -> u8 {
        let v = self.chunk()[0];
        self.advance(1);
        v
    }

    fn get_u32_le(&mut self) -> u32 {
        let mut raw = [0u8; 4];
        raw.copy_from_slice(&self.chunk()[..4]);
        self.advance(4);
        u32::from_le_bytes(raw)
    }

    fn get_u64_le(&mut self) -> u64 {
        let mut raw = [0u8; 8];
        raw.copy_from_slice(&self.chunk()[..8]);
        self.advance(8);
        u64::from_le_bytes(raw)
    }

    fn get_i32_le(&mut self) -> i32 {
        self.get_u32_le() as i32
    }

    fn get_i64_le(&mut self) -> i64 {
        self.get_u64_le() as i64
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        self.skip(cnt);
    }

    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }

    fn chunk(&self) -> &[u8] {
        self
    }
}

/// Write cursor appending to a byte container.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_i32_le(&mut self, v: i32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.data.extend_from_slice(src);
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_le_values() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        buf.put_u32_le(0xdead_beef);
        buf.put_u64_le(u64::MAX - 1);
        buf.put_i32_le(-5);
        buf.put_i64_le(i64::MIN);
        buf.put_f32_le(1.5);
        buf.put_f64_le(-2.25);
        buf.put_slice(b"tail");
        let mut b = buf.freeze();
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32_le(), 0xdead_beef);
        assert_eq!(b.get_u64_le(), u64::MAX - 1);
        assert_eq!(b.get_i32_le(), -5);
        assert_eq!(b.get_i64_le(), i64::MIN);
        assert_eq!(b.get_f32_le(), 1.5);
        assert_eq!(b.get_f64_le(), -2.25);
        assert_eq!(b.remaining(), 4);
        assert_eq!(&b[..], b"tail");
    }

    #[test]
    fn slice_and_split_share_storage() {
        let b = Bytes::from(vec![0, 1, 2, 3, 4, 5]);
        let s = b.slice(2..5);
        assert_eq!(&s[..], &[2, 3, 4]);
        let mut rest = b.clone();
        let head = rest.split_to(2);
        assert_eq!(&head[..], &[0, 1]);
        assert_eq!(&rest[..], &[2, 3, 4, 5]);
        assert_eq!(b.len(), 6);
    }

    /// An owner that counts its drops.
    struct Counted {
        data: Vec<u8>,
        drops: Arc<std::sync::atomic::AtomicUsize>,
    }

    impl AsRef<[u8]> for Counted {
        fn as_ref(&self) -> &[u8] {
            &self.data
        }
    }

    impl Drop for Counted {
        fn drop(&mut self) {
            self.drops.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        }
    }

    fn counted(data: Vec<u8>) -> (Bytes, Arc<std::sync::atomic::AtomicUsize>) {
        let drops = Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let owner = Counted {
            data,
            drops: Arc::clone(&drops),
        };
        (Bytes::from_owner(owner), drops)
    }

    fn drops_of(drops: &std::sync::atomic::AtomicUsize) -> usize {
        drops.load(std::sync::atomic::Ordering::SeqCst)
    }

    #[test]
    fn owner_drops_once_after_its_last_view() {
        let (b, drops) = counted(vec![0, 1, 2, 3, 4, 5, 6, 7]);
        let clone = b.clone();
        let slice = b.slice(2..6);
        let mut rest = b.clone();
        let head = rest.split_to(3);
        drop(b);
        assert_eq!(&clone[..], &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(&slice[..], &[2, 3, 4, 5]);
        assert_eq!(&head[..], &[0, 1, 2]);
        assert_eq!(&rest[..], &[3, 4, 5, 6, 7]);
        for view in [clone, slice, head] {
            drop(view);
            assert_eq!(drops_of(&drops), 0, "a view is still alive");
        }
        drop(rest);
        assert_eq!(drops_of(&drops), 1);
    }

    #[test]
    fn owner_drops_once_when_views_die_on_other_threads() {
        let (b, drops) = counted((0..=255).collect());
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let mut view = b.slice(i * 64..);
                std::thread::spawn(move || {
                    let head = view.split_to(64);
                    assert_eq!(head[0], (i * 64) as u8);
                    assert_eq!(view.len(), 256 - (i + 1) * 64);
                })
            })
            .collect();
        drop(b);
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(drops_of(&drops), 1);
    }

    #[test]
    fn owner_bytes_stored_inline_survive_the_move_into_bytes() {
        let mut b = Bytes::from_owner([9u8, 8, 7, 6]);
        assert_eq!(&b[..], &[9, 8, 7, 6]);
        assert_eq!(b.get_u8(), 9);
        assert_eq!(b.slice(1..), Bytes::from(vec![7u8, 6]));
    }

    #[test]
    fn empty_and_static_views_behave_like_vec_backed_ones() {
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::from(Vec::new()), Bytes::new());
        let s = Bytes::from_static(b"static");
        assert_eq!(s.slice(1..3), Bytes::from(b"ta".to_vec()));
        assert_eq!(Bytes::from_owner(Vec::<u8>::new()), Bytes::new());
    }

    #[test]
    #[should_panic]
    fn get_past_end_panics() {
        let mut b = Bytes::from(vec![1u8]);
        let _ = b.get_u32_le();
    }
}
