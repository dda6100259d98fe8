//! Offline shim: the subset of the `bytes` crate this workspace uses.
//! `Bytes` is a cheaply-clonable immutable byte buffer; `BytesMut` is a
//! growable builder that freezes into one. A `Bytes` is one of two
//! representations:
//!
//! * **shared** — a view `(Arc<Vec<u8>>, range)` into a shared
//!   allocation. Like the real crate, `slice()` and `clone()` of it are
//!   zero-copy and never touch the heap, a slice stays shared whatever
//!   its length, and `BytesMut::freeze` and `From<Vec<u8>>` move the
//!   vector in without copying its bytes.
//! * **inline** — a payload of at most [`INLINE_CAP`] bytes stored in
//!   the value itself. Building, cloning and dropping one never touches
//!   the heap; the empty `Bytes` is inline.
//!
//! The inline representation is a property of this shim that the real
//! `bytes` crate lacks. `ftmpi`'s payload pool leans on it: short
//! payloads travel inline instead of in a pooled buffer. If the real
//! crate is ever vendored in place of this one, the pool must take
//! short payloads again, or every short message (the benchmark's
//! `fanin_match_4`, the ring token) pays about one allocation again.
//!
//! Shim-only extensions ([`Bytes::from_shared`], [`Bytes::into_unique`],
//! [`Bytes::is_inline`], [`BytesMut::as_mut_vec`])
//! expose the representation so that pool can hand an encoded vector
//! to the transport and reuse both the vector and its `Arc` across
//! messages (DESIGN.md §8.10).

use std::sync::Arc;

/// Longest payload a `Bytes` stores inline. The pad-free `RingMsg`
/// wire image (value, marker, origin, pad length) is exactly this long.
pub const INLINE_CAP: usize = 32;

/// Cheaply-clonable immutable byte buffer: a range view into a shared
/// allocation, or a short payload held inline.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    Shared { data: Arc<Vec<u8>>, start: usize, end: usize },
    Inline { len: u8, buf: [u8; INLINE_CAP] },
}

impl Bytes {
    pub const fn new() -> Self {
        Bytes { repr: Repr::Inline { len: 0, buf: [0; INLINE_CAP] } }
    }

    /// `data` copied into the value. Panics (on the slice index) if it
    /// is longer than [`INLINE_CAP`], so the `u8` length never wraps.
    fn inline(data: &[u8]) -> Self {
        let mut buf = [0; INLINE_CAP];
        buf[..data.len()].copy_from_slice(data);
        Bytes { repr: Repr::Inline { len: data.len() as u8, buf } }
    }

    pub fn from_static(bytes: &'static [u8]) -> Self {
        Bytes::copy_from_slice(bytes)
    }

    pub fn copy_from_slice(data: &[u8]) -> Self {
        if data.len() <= INLINE_CAP {
            return Bytes::inline(data);
        }
        Bytes::from(data.to_vec())
    }

    pub fn len(&self) -> usize {
        match self.repr {
            Repr::Shared { start, end, .. } => end - start,
            Repr::Inline { len, .. } => len as usize,
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Shim extension: whether the bytes live in the value itself
    /// rather than in a shared allocation.
    pub fn is_inline(&self) -> bool {
        matches!(self.repr, Repr::Inline { .. })
    }

    pub fn to_vec(&self) -> Vec<u8> {
        self.as_ref().to_vec()
    }

    /// Sub-range: of a shared view, a new view of the same allocation —
    /// zero-copy, like the real crate; of an inline one, an inline
    /// copy. Panics when the range is out of bounds, matching
    /// slice-indexing semantics.
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
        match &self.repr {
            Repr::Shared { data, start: base, .. } => Bytes {
                repr: Repr::Shared { data: data.clone(), start: base + start, end: base + end },
            },
            Repr::Inline { buf, .. } => Bytes::inline(&buf[start..end]),
        }
    }

    /// Shim extension: view the whole of `data` without copying,
    /// whatever its length (a short one stays shared, not inline). The
    /// payload pool moves an encoded vector into an `Arc` it keeps
    /// across messages and hands it out through this constructor.
    pub fn from_shared(data: Arc<Vec<u8>>) -> Bytes {
        let end = data.len();
        Bytes { repr: Repr::Shared { data, start: 0, end } }
    }

    /// Shim extension: surrender the backing `Arc` when no other
    /// `Bytes` shares it (its strong count is 1), for the payload pool
    /// to keep. `None` for an inline view (it has no allocation) and
    /// for one whose allocation another handle still reads; that
    /// handle is then just dropped here. The caller must still prove
    /// uniqueness with [`Arc::get_mut`] before writing the vector.
    // Runs once per pooled payload in `ftmpi`'s `recycle`; the
    // workspace builds without LTO, so without the hint it stays an
    // out-of-line call there.
    #[inline]
    pub fn into_unique(self) -> Option<Arc<Vec<u8>>> {
        match self.repr {
            Repr::Shared { data, .. } => (Arc::strong_count(&data) == 1).then_some(data),
            Repr::Inline { .. } => None,
        }
    }
}

impl Default for Bytes {
    fn default() -> Self {
        Bytes::new()
    }
}

// Comparisons, ordering and hashing see the *visible* bytes, never the
// representation: two values are equal iff their slices are, whether
// each is a shared view or inline.
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
        match &self.repr {
            Repr::Shared { data, start, end } => &data[*start..*end],
            Repr::Inline { len, buf } => &buf[..*len as usize],
        }
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

/// The vector moves into the `Bytes` without copying its bytes; one
/// of at most [`INLINE_CAP`] bytes is copied inline instead.
impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        if v.len() <= INLINE_CAP {
            return Bytes::inline(&v);
        }
        Bytes::from_shared(Arc::new(v))
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

    pub fn capacity(&self) -> usize {
        self.0.capacity()
    }

    /// Empty the buffer, keeping its capacity — the reuse hook the
    /// encode scratch in `ftmpi::Process` leans on.
    pub fn clear(&mut self) {
        self.0.clear();
    }

    /// The bytes as a [`Bytes`], moved rather than copied unless they
    /// fit inline.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.0)
    }

    /// Shim extension: the vector behind the buffer, so the payload
    /// pool can swap an encoded one out for an empty one of at least
    /// its capacity.
    pub fn as_mut_vec(&mut self) -> &mut Vec<u8> {
        &mut self.0
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
        let a: Bytes = (0u8..64).collect::<Vec<_>>().into();
        assert!(!a.is_inline());
        let s = a.slice(4..12);
        assert_eq!(&s[..], &(4u8..12).collect::<Vec<_>>()[..]);
        assert_eq!(s.as_ptr(), unsafe { a.as_ptr().add(4) }, "slice must share the allocation");
        // Slices of slices compose.
        let ss = s.slice(2..=3);
        assert_eq!(&ss[..], &[6, 7]);
        assert_eq!(ss.as_ptr(), unsafe { a.as_ptr().add(6) });
        // Open-ended ranges.
        assert_eq!(&a.slice(..3)[..], &[0, 1, 2]);
        assert_eq!(a.slice(62..).len(), 2);
    }

    #[test]
    fn a_shared_view_sliced_short_stays_a_zero_copy_view() {
        let a: Bytes = (0u8..64).collect::<Vec<_>>().into();
        let mut live = Vec::new();
        for (lo, hi) in [(0, INLINE_CAP), (10, 11), (64, 64)] {
            let s = a.slice(lo..hi);
            assert!(!s.is_inline(), "{lo}..{hi}");
            assert_eq!(&s[..], &a[lo..hi]);
            assert_eq!(s.as_ptr(), unsafe { a.as_ptr().add(lo) });
            live.push(s);
        }
        assert!(a.into_unique().is_none(), "three live slices share the allocation");
    }

    #[test]
    fn a_slice_of_an_inline_view_is_inline() {
        let a = Bytes::copy_from_slice(&[1, 2, 3, 4, 5]);
        let s = a.slice(1..4);
        assert!(s.is_inline());
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(&s.slice(1..)[..], &[3, 4]);
        assert!(a.slice(5..).is_empty());
    }

    #[test]
    fn payloads_up_to_the_cap_are_inline() {
        let data: Vec<u8> = (1..=INLINE_CAP as u8 + 1).collect();
        for len in [0, 1, INLINE_CAP, INLINE_CAP + 1] {
            let expect = &data[..len];
            let mut built = BytesMut::new();
            built.put_slice(expect);
            for b in [Bytes::copy_from_slice(expect), Bytes::from(expect.to_vec()), built.freeze()] {
                assert_eq!(b.is_inline(), len <= INLINE_CAP, "length {len}");
                assert_eq!(&b[..], expect);
                assert_eq!(b.len(), len);
                assert_eq!(b.into_unique().is_some(), len > INLINE_CAP, "length {len}");
            }
        }
    }

    #[test]
    fn comparisons_agree_across_representations() {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let h = |x: &Bytes| {
            let mut s = DefaultHasher::new();
            x.hash(&mut s);
            s.finish()
        };
        let big: Bytes = (0u8..64).collect::<Vec<_>>().into();
        for (lo, hi) in [(0, 0), (3, 9), (0, INLINE_CAP)] {
            let shared = big.slice(lo..hi);
            let inline = Bytes::copy_from_slice(&big[lo..hi]);
            assert!(!shared.is_inline() && inline.is_inline());
            assert_eq!(shared, inline);
            assert_eq!(shared.cmp(&inline), std::cmp::Ordering::Equal);
            assert_eq!(h(&shared), h(&inline));
        }
        let shorter = Bytes::copy_from_slice(&big[..8]);
        assert!(shorter < big.slice(..9) && big.slice(1..9) > shorter);
    }

    #[test]
    fn freeze_and_from_vec_move_the_vector() {
        let v: Vec<u8> = (0..100).collect();
        let ptr = v.as_ptr();
        assert_eq!(Bytes::from(v).as_ptr(), ptr, "From<Vec<u8>> must not copy");
        let mut b = BytesMut::with_capacity(64);
        b.put_slice(&[3; 40]);
        let ptr = b.as_ptr();
        let frozen = b.freeze();
        assert_eq!(frozen.as_ptr(), ptr, "freeze must not copy");
        assert_eq!(&frozen[..], &[3; 40]);
    }

    #[test]
    fn into_unique_needs_the_only_handle() {
        let b = Bytes::from_shared(Arc::new(vec![7u8; 5]));
        assert!(!b.is_inline(), "a shared vector stays a view, however short");
        assert_eq!(&b[..], &[7; 5]);
        let clone = b.slice(1..3);
        assert!(b.into_unique().is_none(), "a live slice still reads the allocation");
        let back = clone.into_unique().expect("the last handle");
        assert_eq!(back.len(), 5, "into_unique returns the whole vector");
        assert!(Bytes::copy_from_slice(&[1, 2]).into_unique().is_none(), "inline has none");
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_bytes_is_five_words() {
        // The shared view is an `Arc` and a range (24 bytes); the
        // inline one (length + 32 bytes) plus the tag rounds up to 40.
        assert_eq!(std::mem::size_of::<Bytes>(), 40);
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
    fn empty_bytes_are_inline() {
        for b in [Bytes::new(), Bytes::default(), Bytes::copy_from_slice(&[]), Vec::new().into()] {
            assert!(b.is_empty() && b.is_inline());
            assert_eq!(b, Bytes::new());
        }
    }
}
