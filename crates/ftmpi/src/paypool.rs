//! Size-classed payload-buffer pool (DESIGN.md §8.10).
//!
//! A typed send encodes into its rank's scratch buffer, and that
//! buffer's vector becomes the payload: [`PayloadPool::swap`] moves it
//! into a pooled `Arc` *shell* and leaves the scratch an empty vector
//! of at least the capacity it gave, so the bytes are written once on
//! the send side and read once by the receiver's decode. The pool
//! keeps `Arc<Vec<u8>>` shells whose bytes are dead (a shell is
//! emptied as it is handed out), grouped by capacity, alive across
//! messages *and across runs* (it lives in
//! [`crate::universe::Shared`], which `UniversePool` recycles); the
//! receive path returns a shell once its payload is decoded. A warm
//! send therefore neither copies into the pool nor allocates.
//!
//! ### The inline cutoff
//!
//! A payload of at most [`bytes::INLINE_CAP`] (32) bytes never reaches
//! the pool: [`PayloadPool::swap`] and [`PayloadPool::make`] copy it
//! into the `Bytes` value itself and [`PayloadPool::recycle`] ignores
//! it, so a short send takes no lock and makes no allocation. That
//! covers the pad-free ring token and the scalar control traffic; the
//! classes below start above it.
//!
//! ### The swap's capacity rule
//!
//! The shell that [`PayloadPool::swap`] hands back holds a vector of
//! the smallest class capacity at or above the capacity the scratch
//! gave. A scratch buffer therefore never shrinks, and a rank that
//! mixes message sizes re-grows it on no send once the pool is warm.
//! Only vectors of exactly a class capacity are re-admitted, so every
//! pooled shell satisfies any request its class is asked for.
//!
//! ### Aliasing safety
//!
//! A shell is written only while the pool holds its *sole* strong
//! reference (`Arc::get_mut` proves it at write time), and
//! [`PayloadPool::recycle`] re-admits one only when the returned
//! `Bytes` is again the sole owner — a payload still referenced by an
//! undelivered envelope, an unconsumed completion, or a caller-held
//! clone keeps its allocation out of the pool and dies a normal `Arc`
//! death. `crates/ftmpi/tests/paypool_aliasing.rs` pins this with a
//! property test.
//!
//! ### Determinism
//!
//! Pool hits and misses change *which allocation* backs a payload,
//! never the payload bytes, lengths, or any scheduler-visible event —
//! decision logs are byte-identical with the pool hot or cold (the
//! golden suite is the referee, as ever).

use std::sync::{Arc, Mutex};

use bytes::{Bytes, BytesMut, INLINE_CAP};

use crate::unpoisoned;

/// Shell capacities, each four times the last. 64 covers the 32-byte
/// `RingMsg` wire format with a short pad, the middle classes padded
/// tokens and collective payloads, and the top two a 16 KiB token plus
/// its header and array payloads up to 64 KiB. Anything bigger falls
/// through to a one-shot `Arc`; anything up to [`INLINE_CAP`] is
/// stored inline and never gets here.
const CLASS_SIZES: [usize; 6] = [64, 256, 1024, 4096, 16384, 65536];

/// Most shells a class retains: enough for every in-flight message of
/// a busy 8-rank schedule (each rank keeps ~3 receives posted).
const PER_CLASS_BUFFERS: usize = 32;

/// Most vector bytes a class retains. Classes up to 4096 stay under it
/// at [`PER_CLASS_BUFFERS`]; it limits the two large ones to 8 and 2
/// shells. Together an idle pool pins at most
/// 32 × (64 + 256 + 1024 + 4096) + 2 × 128 KiB = 426.0 KiB of vectors.
const PER_CLASS_BYTES: usize = 128 * 1024;

/// Shells class `class` may hold while idle.
fn class_cap(class: usize) -> usize {
    PER_CLASS_BUFFERS.min(PER_CLASS_BYTES / CLASS_SIZES[class])
}

/// A free-list of payload shells, one list per capacity class.
/// Shared across ranks (it hangs off `Shared`), so the lists are
/// mutex-guarded; the critical section is a `Vec` push/pop.
///
/// Public so the aliasing property suite (and any out-of-tree
/// harness) can drive the pool directly; runtime users never touch it
/// — [`crate::Process::send`] and the receive paths pool payloads
/// automatically.
pub struct PayloadPool {
    classes: [Mutex<Vec<Arc<Vec<u8>>>>; CLASS_SIZES.len()],
}

/// Index of the smallest class that fits `len`.
fn class_of(len: usize) -> Option<usize> {
    CLASS_SIZES.iter().position(|&c| len <= c)
}

/// The vector inside a shell the caller holds alone, emptied.
fn vec_of(shell: &mut Arc<Vec<u8>>) -> &mut Vec<u8> {
    let vec = Arc::get_mut(shell)
        .expect("a pooled shell must be uniquely held (recycle admits sole owners only)");
    vec.clear();
    vec
}

impl PayloadPool {
    /// An empty (cold) pool; every class free-list starts vacant.
    pub fn new() -> Self {
        PayloadPool { classes: std::array::from_fn(|_| Mutex::new(Vec::new())) }
    }

    /// A shell of class `class`: a recycled one when one is
    /// free (no heap traffic), else a fresh one of exactly the class
    /// capacity.
    fn shell(&self, class: usize) -> Arc<Vec<u8>> {
        match unpoisoned(self.classes[class].lock()).pop() {
            Some(shell) => shell,
            None => Arc::new(Vec::with_capacity(CLASS_SIZES[class])),
        }
    }

    /// A `Bytes` holding a copy of `data`: inline for payloads up to
    /// [`INLINE_CAP`] bytes, else written into the smallest shell that
    /// fits, or a one-shot allocation for oversize payloads.
    pub fn make(&self, data: &[u8]) -> Bytes {
        let class = match class_of(data.len()) {
            Some(class) if data.len() > INLINE_CAP => class,
            _ => return Bytes::copy_from_slice(data),
        };
        let mut shell = self.shell(class);
        vec_of(&mut shell).extend_from_slice(data);
        Bytes::from_shared(shell)
    }

    /// The payload `buf` holds, taken without copying it, and `buf`
    /// left empty. Up to [`INLINE_CAP`] bytes are copied inline and
    /// `buf` keeps its vector. A longer payload trades its vector for
    /// a shell's: the shell carries the bytes out, and `buf` gets the
    /// shell's empty vector, of at least the capacity it gave. A
    /// vector above the top class is frozen as it is; `buf` then
    /// starts over from nothing.
    pub fn swap(&self, buf: &mut BytesMut) -> Bytes {
        let vec = buf.as_mut_vec();
        if vec.len() <= INLINE_CAP {
            let payload = Bytes::copy_from_slice(vec);
            vec.clear();
            return payload;
        }
        let Some(class) = class_of(vec.capacity()) else {
            return Bytes::from(std::mem::take(vec));
        };
        let mut shell = self.shell(class);
        std::mem::swap(vec_of(&mut shell), vec);
        Bytes::from_shared(shell)
    }

    /// Return a payload's shell to the pool; it is emptied when next
    /// handed out. Admitted only when `b` is the sole owner of a
    /// vector of exactly a class capacity and the class free-list has
    /// room; anything else, an inline payload included, is simply
    /// dropped.
    pub fn recycle(&self, b: Bytes) {
        let Some(shell) = b.into_unique() else { return };
        // A vector grown to some other capacity (a scratch buffer's
        // first growth, an exact-size `From<Vec<u8>>`) would break the
        // swap's capacity rule for its class.
        let Some(class) = CLASS_SIZES.iter().position(|&c| c == shell.capacity()) else { return };
        let mut list = unpoisoned(self.classes[class].lock());
        if list.len() < class_cap(class) {
            list.push(shell);
        }
    }

    /// Shells currently resting in the pool (test observability).
    pub fn idle(&self) -> usize {
        self.classes.iter().map(|c| unpoisoned(c.lock()).len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_reuses_the_allocation() {
        let pool = PayloadPool::new();
        let a = pool.make(&[1; 40]);
        assert_eq!(&a[..], &[1; 40]);
        let ptr = a.as_ptr();
        pool.recycle(a);
        assert_eq!(pool.idle(), 1);
        let b = pool.make(&[9; 50]);
        assert_eq!(&b[..], &[9; 50]);
        assert_eq!(b.as_ptr(), ptr, "same class buffer must be reused");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn swap_moves_the_vector_and_returns_at_least_its_capacity() {
        let pool = PayloadPool::new();
        let mut buf = BytesMut::with_capacity(100);
        buf.extend_from_slice(&[3; 90]);
        let ptr = buf.as_ptr();
        let a = pool.swap(&mut buf);
        assert_eq!(&a[..], &[3; 90]);
        assert_eq!(a.as_ptr(), ptr, "the payload is the buffer's own vector");
        assert!(buf.is_empty());
        assert_eq!(buf.capacity(), 256, "the smallest class at or above 100");
        pool.recycle(a);
        assert_eq!(pool.idle(), 0, "a 100-byte vector is no class's");
        // From here the buffer circulates through the pool.
        buf.extend_from_slice(&[4; 40]);
        let ptr = buf.as_ptr();
        let b = pool.swap(&mut buf);
        assert_eq!((&b[..], b.as_ptr()), (&[4; 40][..], ptr));
        pool.recycle(b);
        assert_eq!(pool.idle(), 1);
        buf.extend_from_slice(&[5; 200]);
        let c = pool.swap(&mut buf);
        assert_eq!(&c[..], &[5; 200]);
        assert_eq!(buf.as_ptr(), ptr, "the recycled shell came back");
        assert_eq!(pool.idle(), 0);
    }

    #[test]
    fn swap_of_a_short_or_oversize_buffer() {
        let pool = PayloadPool::new();
        let mut buf = BytesMut::with_capacity(128);
        buf.extend_from_slice(&[6; INLINE_CAP]);
        let short = pool.swap(&mut buf);
        assert!(short.is_inline() && short[..] == [6; INLINE_CAP]);
        assert_eq!((buf.len(), buf.capacity()), (0, 128), "an inline payload keeps the vector");
        let top = *CLASS_SIZES.last().unwrap();
        buf.extend_from_slice(&vec![7; top + 1]);
        let ptr = buf.as_ptr();
        let big = pool.swap(&mut buf);
        assert_eq!((big.len(), big.as_ptr()), (top + 1, ptr), "frozen as it is");
        assert_eq!(buf.capacity(), 0);
        pool.recycle(big);
        assert_eq!(pool.idle(), 0, "oversize vectors are not pooled");
    }

    #[test]
    fn shared_payloads_are_not_recycled() {
        let pool = PayloadPool::new();
        let a = pool.make(&[5; 40]);
        let clone = a.clone();
        pool.recycle(a);
        assert_eq!(pool.idle(), 0, "a live clone must keep the buffer out");
        assert_eq!(&clone[..], &[5; 40]);
        // Once the last handle comes back, it pools.
        pool.recycle(clone);
        assert_eq!(pool.idle(), 1);
    }

    #[test]
    fn oversize_and_empty_fall_through() {
        let pool = PayloadPool::new();
        let top = *CLASS_SIZES.last().unwrap();
        let big = pool.make(&vec![0xAB; top + 1]);
        assert_eq!(big.len(), top + 1);
        pool.recycle(big);
        assert_eq!(pool.idle(), 0, "oversize buffers are not pooled");
        let empty = pool.make(&[]);
        assert!(empty.is_empty() && empty.is_inline());
        pool.recycle(empty);
        assert_eq!(pool.idle(), 0, "the empty payload is inline, so it cannot enter the pool");
    }

    #[test]
    fn short_payloads_allocate_nothing_and_skip_the_pool() {
        let pool = PayloadPool::new();
        let data: Vec<u8> = (1..=INLINE_CAP as u8).collect();
        let before = allocstats::snapshot();
        for i in 0..10_000 {
            let len = 1 + i % INLINE_CAP;
            let b = pool.make(&data[..len]);
            assert_eq!(&b[..], &data[..len]);
            pool.recycle(b);
        }
        let grew = allocstats::snapshot().since(&before);
        assert_eq!(grew.allocs, 0, "short payloads allocated: {grew:?}");
        assert_eq!(pool.idle(), 0);
        // The counter is live in this binary, so the zero means something.
        let before = allocstats::snapshot();
        pool.recycle(pool.make(&[0; INLINE_CAP + 1]));
        assert!(allocstats::snapshot().since(&before).allocs > 0);
        assert_eq!(pool.idle(), 1, "one byte over the cutoff is pooled");
    }

    #[test]
    fn class_selection_is_smallest_fit() {
        // Everything the pool is handed, from one byte over the inline
        // cutoff up, lands in the smallest class first.
        assert_eq!(class_of(INLINE_CAP + 1), Some(0));
        for (class, &size) in CLASS_SIZES.iter().enumerate() {
            assert_eq!(class_of(size), Some(class));
            assert_eq!(class_of(size + 1), (class + 1 < CLASS_SIZES.len()).then_some(class + 1));
        }
        // The 16 KiB token the padded ring workload sends, with its
        // 32-byte header, is pooled.
        assert!(class_of(16384 + 32).is_some());
    }

    #[test]
    fn cap_bounds_retention() {
        let pool = PayloadPool::new();
        let mut retained = 0;
        for (class, &size) in CLASS_SIZES.iter().enumerate() {
            let data = vec![class as u8; size];
            let handles: Vec<Bytes> =
                (0..PER_CLASS_BUFFERS + 5).map(|_| pool.make(&data)).collect();
            for h in handles {
                pool.recycle(h);
            }
            let kept = unpoisoned(pool.classes[class].lock()).len();
            assert_eq!(kept, class_cap(class), "class {size}");
            retained += kept * size;
        }
        // The bound the `PER_CLASS_BYTES` doc comment states.
        assert_eq!(retained, 32 * (64 + 256 + 1024 + 4096) + 2 * 128 * 1024);
        assert!(retained < 1024 * 1024, "an idle pool stays under 1 MiB");
    }
}
