//! Typed payload encoding.
//!
//! MPI sends typed buffers; this runtime sends bytes. The [`Datatype`]
//! trait provides fixed-layout little-endian encode/decode for the
//! types the paper's programs use (integers, floats, and small structs
//! like `ring_msg_t {value, marker}` built from tuples/arrays), so
//! application code stays as close to the paper's pseudocode as
//! possible without a serde dependency in the hot path.
//!
//! ### Runs of elements
//!
//! `Vec<T>` (a `u64` count, then the elements) and `[T; N]` (the
//! elements alone) do not loop over their elements themselves: they
//! hand the whole run to `T`'s slice hooks,
//! [`Datatype::encode_slice`] and [`Datatype::decode_into`]. The
//! provided hooks call `encode` / `decode` once per element, which is
//! right for any type whose elements need looking at one by one
//! (`bool` validates each byte, tuples and structs encode field by
//! field). The twelve scalar types override both so that a run is one
//! length check, one growth of the destination and one pass the
//! compiler turns into a block copy on little-endian targets — a
//! `Vec<u8>` or `Vec<f64>` payload moves at memory speed. A `u8` run is
//! one `extend_from_slice` each way, with no zero-fill first.
//!
//! A new `Datatype` impl needs `SIZE`, `encode` and `decode` only.
//! Override the hooks when the type is sent in bulk *and* a run of it
//! can be written without visiting elements one call at a time; an
//! override must produce exactly the bytes the provided hook would
//! (`crates/ftmpi/tests/datatype_bulk.rs` holds the reference
//! loops), and its `decode_into` must reject a count the input cannot
//! hold before it reserves anything.

use bytes::{BufMut, Bytes, BytesMut};

use crate::error::{Error, Result};

/// A value that can cross the simulated wire.
pub trait Datatype: Sized {
    /// Exact encoded size in bytes, if fixed.
    const SIZE: Option<usize>;

    /// Append the encoding of `self` to `buf`.
    fn encode(&self, buf: &mut BytesMut);

    /// Decode a value from the front of `bytes`, returning the rest.
    fn decode(bytes: &[u8]) -> Result<(Self, &[u8])>;

    /// Append the encodings of `items` back to back (no count).
    fn encode_slice(items: &[Self], buf: &mut BytesMut) {
        if let Some(size) = Self::SIZE {
            buf.reserve(items.len().saturating_mul(size));
        }
        for v in items {
            v.encode(buf);
        }
    }

    /// Decode `n` values from the front of `bytes` onto the end of
    /// `out`, returning the rest.
    ///
    /// `n` may come straight off the wire, so it is checked against
    /// the input before anything is reserved: `n * SIZE` bytes must be
    /// present for fixed-size elements, one byte per element for
    /// dynamic ones. Elements that occupy no bytes cannot be bounded
    /// by the input at all, and nothing in safe Rust fills a `Vec`
    /// with `n` of them without `n` steps, so a count above
    /// [`ZERO_SIZE_COUNT_MAX`] is refused rather than looped over.
    fn decode_into<'a>(n: usize, bytes: &'a [u8], out: &mut Vec<Self>) -> Result<&'a [u8]> {
        let fits = match Self::SIZE {
            Some(0) => n <= ZERO_SIZE_COUNT_MAX,
            Some(size) => run_bytes(n, size, bytes).is_ok(),
            None => n <= bytes.len(),
        };
        if !fits {
            return Err(Error::TypeMismatch);
        }
        out.reserve(n);
        let mut rest = bytes;
        for _ in 0..n {
            let (v, r) = Self::decode(rest)?;
            out.push(v);
            rest = r;
        }
        Ok(rest)
    }

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(Self::SIZE.unwrap_or(16));
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decode, requiring the entire input to be consumed.
    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let (v, rest) = Self::decode(bytes)?;
        if rest.is_empty() {
            Ok(v)
        } else {
            Err(Error::TypeMismatch)
        }
    }
}

/// Most zero-size elements (`()`, `[T; 0]`, …) one decoded run may
/// hold; see [`Datatype::decode_into`].
pub const ZERO_SIZE_COUNT_MAX: usize = 1 << 16;

/// Bytes a run of `n` elements of `size` bytes occupies, when `bytes`
/// holds that many.
fn run_bytes(n: usize, size: usize, bytes: &[u8]) -> Result<usize> {
    n.checked_mul(size).filter(|&need| need <= bytes.len()).ok_or(Error::TypeMismatch)
}

macro_rules! impl_scalar {
    ($($ty:ty),*) => {$(
        impl_scalar!(@impl $ty,
            fn encode_slice(items: &[Self], buf: &mut BytesMut) {
                const N: usize = std::mem::size_of::<$ty>();
                let start = buf.len();
                buf.resize(start + items.len() * N, 0);
                for (dst, v) in buf[start..].chunks_exact_mut(N).zip(items) {
                    dst.copy_from_slice(&v.to_le_bytes());
                }
            }

            fn decode_into<'a>(
                n: usize,
                bytes: &'a [u8],
                out: &mut Vec<Self>,
            ) -> Result<&'a [u8]> {
                const N: usize = std::mem::size_of::<$ty>();
                let (body, rest) = bytes.split_at(run_bytes(n, N, bytes)?);
                out.extend(body.chunks_exact(N).map(|chunk| {
                    let mut arr = [0u8; N];
                    arr.copy_from_slice(chunk);
                    <$ty>::from_le_bytes(arr)
                }));
                Ok(rest)
            }
        );
    )*};
    (@impl $ty:ty, $($runs:tt)*) => {
        impl Datatype for $ty {
            const SIZE: Option<usize> = Some(std::mem::size_of::<$ty>());

            fn encode(&self, buf: &mut BytesMut) {
                buf.put_slice(&self.to_le_bytes());
            }

            fn decode(bytes: &[u8]) -> Result<(Self, &[u8])> {
                const N: usize = std::mem::size_of::<$ty>();
                if bytes.len() < N {
                    return Err(Error::TypeMismatch);
                }
                let (head, rest) = bytes.split_at(N);
                let mut arr = [0u8; N];
                arr.copy_from_slice(head);
                Ok((<$ty>::from_le_bytes(arr), rest))
            }

            $($runs)*
        }
    };
}

impl_scalar!(i8, u16, i16, u32, i32, u64, i64, usize, isize, f32, f64);

// A run of `u8` is its own wire image: one copy each way, and no
// zero-fill of the destination first.
impl_scalar!(@impl u8,
    fn encode_slice(items: &[Self], buf: &mut BytesMut) {
        buf.extend_from_slice(items);
    }

    fn decode_into<'a>(n: usize, bytes: &'a [u8], out: &mut Vec<Self>) -> Result<&'a [u8]> {
        let (body, rest) = bytes.split_at(run_bytes(n, 1, bytes)?);
        out.extend_from_slice(body);
        Ok(rest)
    }
);

impl Datatype for bool {
    const SIZE: Option<usize> = Some(1);

    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(*self as u8);
    }

    fn decode(bytes: &[u8]) -> Result<(Self, &[u8])> {
        match bytes.split_first() {
            Some((&0, rest)) => Ok((false, rest)),
            Some((&1, rest)) => Ok((true, rest)),
            _ => Err(Error::TypeMismatch),
        }
    }
}

impl Datatype for () {
    const SIZE: Option<usize> = Some(0);

    fn encode(&self, _buf: &mut BytesMut) {}

    fn decode(bytes: &[u8]) -> Result<(Self, &[u8])> {
        Ok(((), bytes))
    }
}

macro_rules! impl_tuple {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Datatype),+> Datatype for ($($name,)+) {
            const SIZE: Option<usize> = {
                // Sum of element sizes, or None if any is dynamic.
                let mut total = 0usize;
                let mut fixed = true;
                $(
                    match $name::SIZE {
                        Some(n) => total += n,
                        None => fixed = false,
                    }
                )+
                if fixed { Some(total) } else { None }
            };

            fn encode(&self, buf: &mut BytesMut) {
                $( self.$idx.encode(buf); )+
            }

            #[allow(non_snake_case)] // type-parameter names double as bindings
            fn decode(bytes: &[u8]) -> Result<(Self, &[u8])> {
                let rest = bytes;
                $( let ($name, rest) = $name::decode(rest)?; )+
                Ok((($($name,)+), rest))
            }
        }
    };
}

impl_tuple!(A: 0);
impl_tuple!(A: 0, B: 1);
impl_tuple!(A: 0, B: 1, C: 2);
impl_tuple!(A: 0, B: 1, C: 2, D: 3);

impl<T: Datatype, const N: usize> Datatype for [T; N] {
    const SIZE: Option<usize> = match T::SIZE {
        Some(n) => Some(n * N),
        None => None,
    };

    fn encode(&self, buf: &mut BytesMut) {
        T::encode_slice(self, buf);
    }

    fn decode(bytes: &[u8]) -> Result<(Self, &[u8])> {
        let mut out = Vec::new();
        let rest = T::decode_into(N, bytes, &mut out)?;
        match out.try_into() {
            Ok(arr) => Ok((arr, rest)),
            Err(_) => Err(Error::TypeMismatch),
        }
    }
}

impl<T: Datatype> Datatype for Vec<T> {
    const SIZE: Option<usize> = None;

    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u64).encode(buf);
        T::encode_slice(self, buf);
    }

    fn decode(bytes: &[u8]) -> Result<(Self, &[u8])> {
        let (n, rest) = u64::decode(bytes)?;
        let n = usize::try_from(n).map_err(|_| Error::TypeMismatch)?;
        let mut out = Vec::new();
        let rest = T::decode_into(n, rest, &mut out)?;
        Ok((out, rest))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Datatype + PartialEq + std::fmt::Debug>(v: T) {
        let b = v.to_bytes();
        assert_eq!(T::from_bytes(&b).unwrap(), v);
        if let Some(n) = T::SIZE {
            assert_eq!(b.len(), n);
        }
    }

    #[test]
    fn scalars_roundtrip() {
        roundtrip(0u8);
        roundtrip(-5i32);
        roundtrip(u64::MAX);
        roundtrip(3.5f64);
        roundtrip(usize::MAX);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
    }

    #[test]
    fn tuples_roundtrip() {
        roundtrip((1i32,));
        roundtrip((1i32, 2u64));
        roundtrip((1i32, 2u64, -3i8));
        roundtrip((1i32, 2u64, -3i8, 4.25f32));
    }

    #[test]
    fn arrays_and_vecs_roundtrip() {
        roundtrip([1i32, 2, 3, 4]);
        roundtrip(vec![9u64, 8, 7]);
        roundtrip(Vec::<i32>::new());
        roundtrip(vec![(1i32, 2i32), (3, 4)]);
    }

    #[test]
    fn short_input_is_type_mismatch() {
        assert_eq!(i64::from_bytes(&[1, 2, 3]), Err(Error::TypeMismatch));
    }

    #[test]
    fn trailing_bytes_rejected_by_from_bytes() {
        let mut b = BytesMut::new();
        7i32.encode(&mut b);
        0u8.encode(&mut b);
        assert_eq!(i32::from_bytes(&b), Err(Error::TypeMismatch));
    }

    #[test]
    fn bogus_bool_rejected() {
        assert_eq!(bool::from_bytes(&[2]), Err(Error::TypeMismatch));
    }

    #[test]
    fn vec_of_bools_validates_every_byte() {
        let mut b = BytesMut::new();
        3u64.encode(&mut b);
        b.put_slice(&[1, 0, 2]);
        assert_eq!(Vec::<bool>::from_bytes(&b), Err(Error::TypeMismatch));
        assert_eq!(<[bool; 3]>::from_bytes(&b[8..]), Err(Error::TypeMismatch));
    }

    #[test]
    fn vec_length_lies_rejected() {
        // Claim 1000 elements but provide none.
        let b = 1000u64.to_bytes();
        assert!(Vec::<i32>::from_bytes(&b).is_err());
    }

    #[test]
    fn tuple_size_const_is_sum() {
        assert_eq!(<(i32, u64)>::SIZE, Some(12));
        assert_eq!(<(i32, Vec<u8>)>::SIZE, None);
        assert_eq!(<[u16; 5]>::SIZE, Some(10));
    }
}
