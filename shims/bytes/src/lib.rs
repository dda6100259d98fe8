//! Offline shim: the subset of the `bytes` crate this workspace uses.
//! `Bytes` is a cheaply-clonable immutable byte buffer; `BytesMut` is a
//! growable builder that freezes into one. Like the real crate,
//! sub-slicing is zero-copy: a `Bytes` is a view `(Arc<[u8]>, range)`
//! into a shared allocation, so `slice()` and `clone()` never touch the
//! heap. Two shim-only extensions ([`Bytes::from_arc_prefix`],
//! [`Bytes::into_arc`]) expose the backing allocation so `ftmpi`'s
//! payload pool can recycle buffers across messages (DESIGN.md §8.10).

use std::sync::{Arc, OnceLock};

/// The one empty backing allocation every empty `Bytes` shares.
/// `Arc<[u8]>` always heap-allocates its header, even for zero bytes —
/// and empty payloads are minted on every failure notification
/// (`Completion { data: Bytes::new() }`), so this would otherwise be a
/// steady-state allocation per simulated failure event.
fn empty_arc() -> Arc<[u8]> {
    static EMPTY: OnceLock<Arc<[u8]>> = OnceLock::new();
    EMPTY.get_or_init(|| Arc::from(&[][..])).clone()
}

/// Cheaply-clonable immutable byte buffer: a range view into a shared
/// allocation.
#[derive(Clone)]
pub struct Bytes {
    data: Arc<[u8]>,
    start: usize,
    end: usize,
}

impl Bytes {
    pub fn new() -> Self {
        let data = empty_arc();
        Bytes { data, start: 0, end: 0 }
    }

    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        if data.is_empty() {
            return Bytes::new();
        }
        Bytes { data: Arc::from(data), start: 0, end: data.len() }
    }

    pub fn len(&self) -> usize {
        self.end - self.start
    }

    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// Sub-range as a new view of the same allocation — zero-copy,
    /// like the real crate. Panics when the range is out of bounds,
    /// matching slice-indexing semantics.
    pub fn slice(&self, range: impl std::ops::RangeBounds<usize>) -> Bytes {
        use std::ops::Bound;
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len(),
        };
        assert!(
            start <= end && end <= self.len(),
            "slice range {start}..{end} out of bounds for Bytes of length {}",
            self.len()
        );
        Bytes { data: self.data.clone(), start: self.start + start, end: self.start + end }
    }

    /// Shim extension: view the first `len` bytes of a shared
    /// allocation without copying. The payload pool writes into a
    /// uniquely-held class buffer (via [`Arc::get_mut`]) and hands it
    /// out through this constructor.
    pub fn from_arc_prefix(data: Arc<[u8]>, len: usize) -> Bytes {
        assert!(len <= data.len(), "prefix {len} longer than the allocation {}", data.len());
        Bytes { data, start: 0, end: len }
    }

    /// Shim extension: surrender this view's backing allocation. The
    /// payload pool recycles it when it turns out to be the last
    /// handle (`Arc::get_mut` succeeds); otherwise the clone dropped
    /// here just decrements the refcount.
    pub fn into_arc(self) -> Arc<[u8]> {
        self.data
    }

    /// Shim extension: strong count of the backing allocation —
    /// `1` means no other `Bytes` (or pool handle) can observe it.
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

// Comparisons, ordering and hashing see the *visible* bytes, never the
// backing allocation: two views are equal iff their slices are (the
// derive on the old `Arc<[u8]>` representation compared contents too,
// so this preserves observable behaviour).
impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self.as_ref() == other.as_ref()
    }
}

impl Eq for Bytes {}

impl PartialOrd for Bytes {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Bytes {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_ref().cmp(other.as_ref())
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_ref().hash(state);
    }
}

impl std::ops::Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b\"")?;
        for &b in self.iter() {
            for esc in std::ascii::escape_default(b) {
                write!(f, "{}", esc as char)?;
            }
        }
        write!(f, "\"")
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.is_empty() {
            return Bytes::new();
        }
        let end = v.len();
        Bytes { data: Arc::from(v.into_boxed_slice()), start: 0, end }
    }
}

impl From<&[u8]> for Bytes {
    fn from(v: &[u8]) -> Self {
        Bytes::copy_from_slice(v)
    }
}

impl From<&'static str> for Bytes {
    fn from(v: &'static str) -> Self {
        Bytes::copy_from_slice(v.as_bytes())
    }
}

impl From<BytesMut> for Bytes {
    fn from(v: BytesMut) -> Self {
        v.freeze()
    }
}

impl IntoIterator for Bytes {
    type Item = u8;
    type IntoIter = std::vec::IntoIter<u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.to_vec().into_iter()
    }
}

impl<'a> IntoIterator for &'a Bytes {
    type Item = &'a u8;
    type IntoIter = std::slice::Iter<'a, u8>;
    fn into_iter(self) -> Self::IntoIter {
        self.as_ref().iter()
    }
}

/// Growable byte buffer that freezes into [`Bytes`].
#[derive(Clone, Default, Debug, PartialEq, Eq)]
pub struct BytesMut(Vec<u8>);

impl BytesMut {
    pub fn new() -> Self {
        BytesMut(Vec::new())
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut(Vec::with_capacity(cap))
    }

    pub fn len(&self) -> usize {
        self.0.len()
    }

    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Empty the buffer, keeping its capacity — the reuse hook the
    /// encode scratch in `ftmpi::Process` leans on.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }

    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.0.extend_from_slice(data);
    }

    /// Make room for `additional` more bytes in one step.
    pub fn reserve(&mut self, additional: usize) {
        self.0.reserve(additional);
    }

    /// Set the length to `new_len`, filling any new tail with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.0.resize(new_len, value);
    }
}

impl std::ops::Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.0
    }
}

impl std::ops::DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.0
    }
}

/// Write-side trait (the subset of methods the workspace uses).
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }
}

impl BufMut for BytesMut {
    fn put_slice(&mut self, src: &[u8]) {
        self.0.extend_from_slice(src);
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
    fn roundtrip_via_bytes_mut() {
        let mut b = BytesMut::with_capacity(4);
        b.put_u8(1);
        b.put_slice(&[2, 3]);
        let frozen = b.freeze();
        assert_eq!(&frozen[..], &[1, 2, 3]);
        assert_eq!(frozen.len(), 3);
    }

    #[test]
    fn clones_share_storage() {
        let a: Bytes = vec![9u8; 64].into();
        let b = a.clone();
        assert_eq!(a.as_ptr(), b.as_ptr(), "clone must not copy");
    }

    #[test]
    fn debug_escapes() {
        let b = Bytes::from_static(b"a\xff");
        assert_eq!(format!("{b:?}"), "b\"a\\xff\"");
    }

    #[test]
    fn slice_is_zero_copy() {
        let a: Bytes = (0u8..32).collect::<Vec<_>>().into();
        let s = a.slice(4..12);
        assert_eq!(&s[..], &(4u8..12).collect::<Vec<_>>()[..]);
        assert_eq!(s.as_ptr(), unsafe { a.as_ptr().add(4) }, "slice must share the allocation");
        // Slices of slices compose.
        let ss = s.slice(2..=3);
        assert_eq!(&ss[..], &[6, 7]);
        assert_eq!(ss.as_ptr(), unsafe { a.as_ptr().add(6) });
        // Open-ended ranges.
        assert_eq!(&a.slice(..3)[..], &[0, 1, 2]);
        assert_eq!(a.slice(30..).len(), 2);
    }

    #[test]
    #[should_panic]
    fn slice_out_of_bounds_panics() {
        let a: Bytes = vec![0u8; 4].into();
        let _ = a.slice(2..9);
    }

    #[test]
    fn comparisons_see_the_view_not_the_allocation() {
        let a: Bytes = vec![1u8, 2, 3, 4].into();
        let b: Bytes = vec![0u8, 1, 2, 3, 4, 5].into();
        assert_eq!(a, b.slice(1..5));
        assert_ne!(a, b);
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |x: &Bytes| {
            let mut s = DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        };
        assert_eq!(h(&a), h(&b.slice(1..5)));
    }

    #[test]
    fn empty_bytes_share_one_allocation() {
        let a = Bytes::new();
        let b = Bytes::default();
        let c = Bytes::copy_from_slice(&[]);
        assert!(a.is_empty() && b.is_empty() && c.is_empty());
        assert_eq!(a.as_ptr(), b.as_ptr());
        assert_eq!(a.as_ptr(), c.as_ptr());
    }

    #[test]
    fn arc_prefix_round_trip() {
        let arc: Arc<[u8]> = Arc::from(&[7u8; 16][..]);
        let b = Bytes::from_arc_prefix(arc.clone(), 5);
        assert_eq!(b.len(), 5);
        assert_eq!(&b[..], &[7u8; 5][..]);
        assert_eq!(b.ref_count(), 2);
        drop(arc);
        assert_eq!(b.ref_count(), 1);
        let back = b.into_arc();
        assert_eq!(back.len(), 16, "into_arc returns the full allocation");
    }
}
