//! The bulk path is the per-element path.
//!
//! `Vec<T>` and `[T; N]` hand their elements to `T`'s slice hooks
//! (`Datatype::encode_slice` / `decode_into`), which the scalar types
//! override with one block copy. This file keeps the loops those hooks
//! replaced — one `encode` / `decode` call per element — as the
//! reference, and checks that the shipped path writes the same bytes,
//! reads the same values back (floats compared by bit pattern, so NaN
//! payloads count), and turns every strict prefix of a valid frame
//! into `Err(TypeMismatch)` rather than a panic.
//!
//! The test binary installs the counting allocator, so the two claims
//! about memory — a large `Vec<u8>` grows its destination twice, a
//! hostile count reserves nothing — are measured, not inferred.

use ftmpi::bytes::BytesMut;
use ftmpi::{Datatype, Error, ZERO_SIZE_COUNT_MAX};
use ftring::RingMsg;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

#[global_allocator]
static ALLOC: allocstats::StatsAlloc = allocstats::StatsAlloc;

/// Reference encoder for a run: one `encode` per element.
fn ref_encode_run<T: Datatype>(items: &[T], buf: &mut BytesMut) {
    for v in items {
        v.encode(buf);
    }
}

/// Reference decoder for a run: one `decode` and one `push` per element.
fn ref_decode_run<T: Datatype>(n: usize, bytes: &[u8]) -> (Vec<T>, &[u8]) {
    let mut rest = bytes;
    let mut out = Vec::new();
    for _ in 0..n {
        let (v, r) = T::decode(rest).expect("the reference decodes a valid frame");
        out.push(v);
        rest = r;
    }
    (out, rest)
}

/// Reference wire image of a `Vec<T>`: the `u64` count, then the run.
fn ref_vec_bytes<T: Datatype>(items: &[T]) -> BytesMut {
    let mut buf = BytesMut::new();
    (items.len() as u64).encode(&mut buf);
    ref_encode_run(items, &mut buf);
    buf
}

/// No strict prefix of a valid frame decodes.
fn prefixes_are_mismatches<T: Datatype>(frame: &[u8]) -> Result<(), TestCaseError> {
    for cut in 0..frame.len() {
        match T::from_bytes(&frame[..cut]) {
            Err(Error::TypeMismatch) => {}
            Err(e) => return Err(TestCaseError::fail(format!("prefix {cut}: {e:?}"))),
            Ok(_) => return Err(TestCaseError::fail(format!("prefix {cut} decoded"))),
        }
    }
    Ok(())
}

/// An element mapped to something `Eq`: itself for integers, its bit
/// pattern for floats.
type Key<T, K> = fn(&T) -> K;

fn keys<T, K>(run: &[T], key: Key<T, K>) -> Vec<K> {
    run.iter().map(key).collect()
}

/// `T` alone and `Vec<T>` over `items`, against the reference.
fn check_vec<T, K>(items: &[T], key: Key<T, K>) -> Result<(), TestCaseError>
where
    T: Datatype + Copy,
    K: PartialEq + std::fmt::Debug,
{
    if let Some(first) = items.first() {
        let frame = first.to_bytes();
        prop_assert_eq!(key(&T::from_bytes(&frame).unwrap()), key(first));
        prefixes_are_mismatches::<T>(&frame)?;
    }

    let expect = ref_vec_bytes(items);
    let frame = items.to_vec().to_bytes();
    prop_assert_eq!(&frame[..], &expect[..]);
    let (reference, rest) = ref_decode_run::<T>(items.len(), &frame[8..]);
    prop_assert!(rest.is_empty());
    let back = Vec::<T>::from_bytes(&frame).unwrap();
    prop_assert_eq!(keys(&back, key), keys(&reference, key));
    prop_assert_eq!(keys(&back, key), keys(items, key));
    prefixes_are_mismatches::<Vec<T>>(&frame)?;
    // Trailing bytes are handed back untouched by `decode`.
    let mut longer = frame.to_vec();
    longer.extend_from_slice(&[0xEE, 0xFF]);
    let (again, rest) = Vec::<T>::decode(&longer).unwrap();
    prop_assert_eq!(keys(&again, key), keys(items, key));
    prop_assert_eq!(rest, &[0xEE, 0xFF][..]);
    Ok(())
}

/// `[T; N]` over the first `N` of `items`, when the case drew that many.
fn check_array<T, K, const N: usize>(items: &[T], key: Key<T, K>) -> Result<(), TestCaseError>
where
    T: Datatype + Copy,
    K: PartialEq + std::fmt::Debug,
{
    let Some(head) = items.get(..N) else { return Ok(()) };
    let array: [T; N] = head.try_into().unwrap();
    let mut expect = BytesMut::new();
    ref_encode_run(&array, &mut expect);
    let frame = array.to_bytes();
    prop_assert_eq!(&frame[..], &expect[..]);
    let back = <[T; N]>::from_bytes(&frame).unwrap();
    prop_assert_eq!(keys(&back, key), keys(&array, key));
    prefixes_are_mismatches::<[T; N]>(&frame)
}

macro_rules! scalar_runs {
    ($($name:ident: $ty:ty => $key:expr;)*) => {
        proptest! {
            #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]
            $(
                #[test]
                fn $name(items in proptest::collection::vec(any::<$ty>(), 0..300)) {
                    check_vec::<$ty, _>(&items, $key)?;
                    check_array::<$ty, _, 0>(&items, $key)?;
                    check_array::<$ty, _, 1>(&items, $key)?;
                    check_array::<$ty, _, 7>(&items, $key)?;
                }
            )*
        }
    };
}

scalar_runs! {
    bulk_is_per_element_u8: u8 => |v| *v;
    bulk_is_per_element_i8: i8 => |v| *v;
    bulk_is_per_element_u16: u16 => |v| *v;
    bulk_is_per_element_i16: i16 => |v| *v;
    bulk_is_per_element_u32: u32 => |v| *v;
    bulk_is_per_element_i32: i32 => |v| *v;
    bulk_is_per_element_u64: u64 => |v| *v;
    bulk_is_per_element_i64: i64 => |v| *v;
    bulk_is_per_element_usize: usize => |v| *v;
    bulk_is_per_element_isize: isize => |v| *v;
    bulk_is_per_element_f32: f32 => |v| v.to_bits();
    bulk_is_per_element_f64: f64 => |v| v.to_bits();
    // `bool` keeps the provided hooks: every byte is validated.
    bulk_is_per_element_bool: bool => |v| *v;
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// Tuple elements take the provided hooks; the `f64` halves keep
    /// their bits.
    #[test]
    fn bulk_is_per_element_vec_of_tuples(
        items in proptest::collection::vec((any::<u64>(), any::<f64>()), 0..200),
    ) {
        let expect = ref_vec_bytes(&items);
        let frame = items.to_bytes();
        prop_assert_eq!(&frame[..], &expect[..]);
        let back = Vec::<(u64, f64)>::from_bytes(&frame).unwrap();
        let bits = |run: &[(u64, f64)]| {
            run.iter().map(|(a, b)| (*a, b.to_bits())).collect::<Vec<_>>()
        };
        prop_assert_eq!(bits(&back), bits(&items));
        prefixes_are_mismatches::<Vec<(u64, f64)>>(&frame)?;
    }

    /// A bulk run nested inside a tuple.
    #[test]
    fn bulk_is_per_element_tuple_with_vec(
        tag in any::<u8>(),
        items in proptest::collection::vec(any::<f64>(), 0..200),
    ) {
        let mut expect = BytesMut::new();
        tag.encode(&mut expect);
        expect.extend_from_slice(&ref_vec_bytes(&items));
        let value = (tag, items);
        let frame = value.to_bytes();
        prop_assert_eq!(&frame[..], &expect[..]);
        let back = <(u8, Vec<f64>)>::from_bytes(&frame).unwrap();
        prop_assert_eq!(back.0, value.0);
        let bits = |run: &[f64]| run.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        prop_assert_eq!(bits(&back.1), bits(&value.1));
        prefixes_are_mismatches::<(u8, Vec<f64>)>(&frame)?;
    }

    /// The ring token, across the pad sizes the latency sweeps use.
    #[test]
    fn bulk_is_per_element_ring_msg(
        value in any::<i64>(),
        marker in any::<u64>(),
        origin in 0usize..1024,
        pad in proptest::collection::vec(any::<u8>(), 0..20_000),
    ) {
        let mut expect = BytesMut::new();
        value.encode(&mut expect);
        marker.encode(&mut expect);
        (origin as u64).encode(&mut expect);
        expect.extend_from_slice(&ref_vec_bytes(&pad));
        let msg = RingMsg { value, marker, origin, pad };
        let frame = msg.to_bytes();
        prop_assert_eq!(&frame[..], &expect[..]);
        prop_assert_eq!(&RingMsg::from_bytes(&frame).unwrap(), &msg);
        // A forwarded token is the same token one hop on.
        let hop = msg.clone().forwarded();
        prop_assert_eq!((hop.value, &hop.pad), (value.wrapping_add(1), &msg.pad));
        prefixes_are_mismatches::<RingMsg>(&frame)?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, .. ProptestConfig::default() })]

    /// `u8` overrides both hooks with one `extend_from_slice` each way:
    /// a run's wire image is the run itself, byte for byte the
    /// reference's; a decode appends after what `out` holds and hands
    /// the tail back; a count the input cannot hold, every strict
    /// prefix included, is refused before `out` is touched.
    #[test]
    fn u8_run_is_its_own_wire_image(
        items in proptest::collection::vec(any::<u8>(), 0..4096),
        tail in proptest::collection::vec(any::<u8>(), 0..3),
    ) {
        let mut expect = BytesMut::new();
        ref_encode_run(&items, &mut expect);
        let mut run = BytesMut::new();
        u8::encode_slice(&items, &mut run);
        prop_assert_eq!(&run[..], &expect[..]);
        prop_assert_eq!(&run[..], &items[..]);

        let mut input = items.clone();
        input.extend_from_slice(&tail);
        let mut out = vec![0xEE];
        let rest = u8::decode_into(items.len(), &input, &mut out).unwrap();
        prop_assert_eq!(rest, &tail[..]);
        prop_assert_eq!(&out[1..], &items[..]);
        for cut in 0..items.len() {
            let mut out = vec![0xEE];
            let refused = u8::decode_into(items.len(), &items[..cut], &mut out);
            prop_assert_eq!(refused, Err(Error::TypeMismatch));
            prop_assert_eq!(out, vec![0xEE], "a refused run appended");
        }
    }
}

/// A `Vec<u8>` frame whose count claims more bytes than it carries
/// is refused without reserving: the count is checked against the
/// input before `extend_from_slice` sees it.
#[test]
fn hostile_count_of_bytes_reserves_nothing() {
    for claimed in [1u64 << 20, 1 << 40, u64::MAX] {
        let mut frame = claimed.to_bytes().to_vec();
        frame.resize(1 << 20, 0);
        let before = allocstats::snapshot();
        assert_eq!(Vec::<u8>::from_bytes(&frame), Err(Error::TypeMismatch), "{claimed}");
        assert_eq!(allocstats::snapshot().since(&before).bytes_alloc, 0, "{claimed}");
    }
    // One byte short of a claim that fits is refused too; the claim
    // itself decodes in one allocation of exactly its size.
    let run = vec![9u8; 1000];
    let frame = run.to_bytes();
    assert_eq!(Vec::<u8>::from_bytes(&frame[..frame.len() - 1]), Err(Error::TypeMismatch));
    let before = allocstats::snapshot();
    let back = Vec::<u8>::from_bytes(&frame);
    let grew = allocstats::snapshot().since(&before);
    assert_eq!(back, Ok(run));
    assert_eq!((grew.allocs, grew.bytes_alloc), (1, 1000));
}

/// Encoding a 16 KiB `Vec<u8>` into an empty buffer grows it at most
/// twice: once for the count, once for the body.
#[test]
fn large_vec_grows_the_buffer_twice() {
    let payload = vec![0x5Au8; 16 * 1024];
    let mut buf = BytesMut::new();
    let before = allocstats::snapshot();
    payload.encode(&mut buf);
    let grew = allocstats::snapshot().since(&before);
    assert_eq!(buf.len(), 8 + payload.len());
    assert!((1..=2).contains(&grew.allocs), "{} allocations for one Vec<u8>", grew.allocs);
}

/// A count of zero-size elements is bounded by nothing in the input:
/// it is refused above `ZERO_SIZE_COUNT_MAX` instead of looped over.
#[test]
fn hostile_count_of_zero_size_elements_is_refused() {
    for n in [ZERO_SIZE_COUNT_MAX as u64 + 1, 1 << 40, u64::MAX] {
        assert_eq!(Vec::<()>::from_bytes(&n.to_bytes()), Err(Error::TypeMismatch), "{n}");
        assert_eq!(Vec::<[u64; 0]>::from_bytes(&n.to_bytes()), Err(Error::TypeMismatch), "{n}");
    }
    for n in [0, 3, ZERO_SIZE_COUNT_MAX] {
        let units = vec![(); n];
        assert_eq!(Vec::<()>::from_bytes(&units.to_bytes()), Ok(units));
    }
}

/// A count of fixed-size elements is checked in bytes before anything
/// is reserved: a 1 MiB frame claiming almost 2²⁰ 32-byte elements
/// used to reserve 32 MiB on its way to failing.
#[test]
fn hostile_count_of_fixed_size_elements_reserves_nothing() {
    type Wide = (u64, u64, u64, u64);
    let claimed = (1u64 << 20) - 8;
    let mut frame = claimed.to_bytes().to_vec();
    frame.resize(1 << 20, 0);
    for decode in [
        |f: &[u8]| Vec::<Wide>::from_bytes(f).map(|_| ()),
        |f: &[u8]| Vec::<u64>::from_bytes(f).map(|_| ()),
        |f: &[u8]| Vec::<[u32; 4]>::from_bytes(f).map(|_| ()),
    ] {
        let before = allocstats::snapshot();
        assert_eq!(decode(&frame), Err(Error::TypeMismatch));
        assert_eq!(allocstats::snapshot().since(&before).bytes_alloc, 0);
    }
    // `count × size` overflowing `usize` is a mismatch too, not a wrap.
    let frame = (u64::MAX / 2).to_bytes();
    assert_eq!(Vec::<Wide>::from_bytes(&frame), Err(Error::TypeMismatch));
    assert_eq!(Vec::<u16>::from_bytes(&frame), Err(Error::TypeMismatch));
}

/// Dynamic elements keep the one-byte-per-element floor.
#[test]
fn hostile_count_of_dynamic_elements_is_refused() {
    let mut frame = 1000u64.to_bytes().to_vec();
    frame.resize(8 + 999, 0);
    let before = allocstats::snapshot();
    assert_eq!(Vec::<Vec<u8>>::from_bytes(&frame), Err(Error::TypeMismatch));
    assert_eq!(allocstats::snapshot().since(&before).bytes_alloc, 0);
}
