//! Offline shim: the subset of `parking_lot` this workspace uses,
//! implemented over `std::sync`. The build container has no crates.io
//! access, so the real crate cannot be fetched; semantics relied upon
//! here (guard-returning `lock`, `&mut`-guard condvar waits, no
//! poisoning) are preserved. Poisoned std locks are recovered
//! transparently: parking_lot has no poisoning, and the runtime's
//! panic paths (rank unwinds) must not cascade into every other rank.

use std::sync::{self, PoisonError};
use std::time::Duration;

/// Mutex with parking_lot's panic-free, guard-returning API.
#[derive(Default, Debug)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

/// RAII guard; derefs to the protected value.
pub struct MutexGuard<'a, T: ?Sized> {
    // `Option` so a condvar wait can take the inner guard by value and
    // put the re-acquired one back (std waits consume the guard).
    inner: Option<sync::MutexGuard<'a, T>>,
}

impl<T> Mutex<T> {
    pub const fn new(value: T) -> Self {
        Mutex(sync::Mutex::new(value))
    }

    pub fn into_inner(self) -> T {
        self.0.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> Mutex<T> {
    pub fn lock(&self) -> MutexGuard<'_, T> {
        let guard = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        MutexGuard { inner: Some(guard) }
    }

    pub fn get_mut(&mut self) -> &mut T {
        self.0.get_mut().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        self.inner.as_ref().expect("guard present outside waits")
    }
}

impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        self.inner.as_mut().expect("guard present outside waits")
    }
}

/// Result of a timed condvar wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeoutResult(bool);

impl WaitTimeoutResult {
    pub fn timed_out(&self) -> bool {
        self.0
    }
}

/// Condition variable taking `&mut MutexGuard`, as parking_lot does.
#[derive(Default, Debug)]
pub struct Condvar(sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(sync::Condvar::new())
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }

    pub fn wait<T>(&self, guard: &mut MutexGuard<'_, T>) {
        let inner = guard.inner.take().expect("guard present");
        let inner = self.0.wait(inner).unwrap_or_else(PoisonError::into_inner);
        guard.inner = Some(inner);
    }

    pub fn wait_for<T>(
        &self,
        guard: &mut MutexGuard<'_, T>,
        timeout: Duration,
    ) -> WaitTimeoutResult {
        let inner = guard.inner.take().expect("guard present");
        let (inner, result) = match self.0.wait_timeout(inner, timeout) {
            Ok((g, r)) => (g, r),
            Err(p) => {
                let (g, r) = p.into_inner();
                (g, r)
            }
        };
        guard.inner = Some(inner);
        WaitTimeoutResult(result.timed_out())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn lock_returns_guard_directly() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
    }

    #[test]
    fn poisoned_lock_is_recovered() {
        let m = Arc::new(Mutex::new(0));
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison the std mutex underneath");
        })
        .join();
        assert_eq!(*m.lock(), 0, "lock after panic must not propagate");
    }

    #[test]
    fn condvar_wait_for_times_out() {
        let m = Mutex::new(());
        let cv = Condvar::new();
        let mut g = m.lock();
        let r = cv.wait_for(&mut g, Duration::from_millis(5));
        assert!(r.timed_out());
    }

    #[test]
    fn condvar_wakes_waiter() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let h = std::thread::spawn(move || {
            let (m, cv) = &*pair2;
            let mut ready = m.lock();
            while !*ready {
                cv.wait(&mut ready);
            }
        });
        {
            let (m, cv) = &*pair;
            *m.lock() = true;
            cv.notify_all();
        }
        h.join().unwrap();
    }
}
