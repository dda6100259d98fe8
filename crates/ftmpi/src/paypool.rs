//! Size-classed payload-buffer pool (DESIGN.md §8.10).
//!
//! Every send used to mint a fresh `Arc<[u8]>` for its payload —
//! `BytesMut` build plus the copying `freeze()` — and drop it once the
//! receiver decoded the message. Over a deterministic-simulation sweep
//! that is tens of short-lived heap allocations per schedule, the
//! largest single contributor to steady-state churn. The pool keeps
//! the backing allocations alive across messages *and across runs*
//! (it lives in [`crate::universe::Shared`], which `UniversePool`
//! recycles): a send takes a class buffer, overwrites it, and wraps it
//! as a `Bytes` prefix view; the receive path returns it once the
//! payload is decoded.
//!
//! ### The inline cutoff
//!
//! A payload of at most [`bytes::INLINE_CAP`] (32) bytes never reaches
//! the pool: [`PayloadPool::make`] copies it into the `Bytes` value
//! itself and [`PayloadPool::recycle`] ignores it, so a short send takes
//! no lock and makes no allocation. That covers the pad-free ring token
//! and the scalar control traffic; the classes below start above it.
//!
//! ### Aliasing safety
//!
//! A buffer is handed out only while the pool holds its *sole* strong
//! reference (`Arc::get_mut` proves it at write time), and
//! [`PayloadPool::recycle`] re-admits a buffer only when the returned
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

use std::sync::Arc;

use bytes::{Bytes, INLINE_CAP};
use parking_lot::Mutex;

/// Buffer size classes, each four times the last. 64 covers the 32-byte
/// `RingMsg` wire format with a short pad, the middle classes padded
/// tokens and collective payloads, and the top two a 16 KiB token plus
/// its header and array payloads up to 64 KiB. Anything bigger falls
/// through to a plain one-shot allocation; anything up to
/// [`INLINE_CAP`] is stored inline and never gets here.
const CLASS_SIZES: [usize; 6] = [64, 256, 1024, 4096, 16384, 65536];

/// Most buffers a class retains: enough for every in-flight message of
/// a busy 8-rank schedule (each rank keeps ~3 receives posted).
const PER_CLASS_BUFFERS: usize = 32;

/// Most bytes a class retains. Classes up to 4096 stay under it at
/// [`PER_CLASS_BUFFERS`]; it limits the two large ones to 8 and 2
/// buffers. Together an idle pool pins at most
/// 32 × (64 + 256 + 1024 + 4096) + 2 × 128 KiB = 426.0 KiB.
const PER_CLASS_BYTES: usize = 128 * 1024;

/// Buffers class `class` may hold while idle.
fn class_cap(class: usize) -> usize {
    PER_CLASS_BUFFERS.min(PER_CLASS_BYTES / CLASS_SIZES[class])
}

/// A free-list of reusable payload allocations, one list per size
/// class. Shared across ranks (it hangs off `Shared`), so the lists
/// are mutex-guarded; the critical section is a `Vec` push/pop.
///
/// Public so the aliasing property suite (and any out-of-tree
/// harness) can drive the pool directly; runtime users never touch it
/// — [`crate::Process::send`] and the receive paths pool payloads
/// automatically.
pub struct PayloadPool {
    classes: [Mutex<Vec<Arc<[u8]>>>; CLASS_SIZES.len()],
}

/// Index of the smallest class that fits `len`.
fn class_of(len: usize) -> Option<usize> {
    CLASS_SIZES.iter().position(|&c| len <= c)
}

impl PayloadPool {
    /// An empty (cold) pool; every class free-list starts vacant.
    pub fn new() -> Self {
        PayloadPool { classes: std::array::from_fn(|_| Mutex::new(Vec::new())) }
    }

    /// A `Bytes` holding a copy of `data`: inline for payloads up to
    /// [`INLINE_CAP`] bytes, else backed by a recycled class buffer
    /// when one is free (zero heap traffic), a fresh class buffer on a
    /// cold pool, or a one-shot exact allocation for oversize payloads.
    pub fn make(&self, data: &[u8]) -> Bytes {
        let class = match class_of(data.len()) {
            Some(class) if data.len() > INLINE_CAP => class,
            _ => return Bytes::copy_from_slice(data),
        };
        let mut arc = match self.classes[class].lock().pop() {
            Some(arc) => arc,
            // One allocation: the iterator's length is exact, so the
            // `Arc` is sized up front and filled in place.
            None => std::iter::repeat_n(0u8, CLASS_SIZES[class]).collect(),
        };
        let buf = Arc::get_mut(&mut arc)
            .expect("pooled buffer must be uniquely held (recycle admits sole owners only)");
        buf[..data.len()].copy_from_slice(data);
        Bytes::from_arc_prefix(arc, data.len())
    }

    /// Return a payload's backing buffer to the pool. Admitted only
    /// when `b` is the sole owner of a class-sized allocation and the
    /// class free-list has room; anything else, an inline payload
    /// included, is simply dropped.
    pub fn recycle(&self, b: Bytes) {
        if b.is_inline() || b.ref_count() != 1 {
            return;
        }
        let arc = b.into_arc();
        let Some(class) = class_of(arc.len()) else { return };
        if CLASS_SIZES[class] != arc.len() {
            // Not one of ours (an exact-size allocation from the
            // copy path) — pooling it would strand capacity.
            return;
        }
        let mut list = self.classes[class].lock();
        if list.len() < class_cap(class) {
            list.push(arc);
        }
    }

    /// Buffers currently resting in the pool (test observability).
    pub fn idle(&self) -> usize {
        self.classes.iter().map(|c| c.lock().len()).sum()
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
            let kept = pool.classes[class].lock().len();
            assert_eq!(kept, class_cap(class), "class {size}");
            retained += kept * size;
        }
        // The bound the `PER_CLASS_BYTES` doc comment states.
        assert_eq!(retained, 32 * (64 + 256 + 1024 + 4096) + 2 * 128 * 1024);
        assert!(retained < 1024 * 1024, "an idle pool stays under 1 MiB");
    }
}
