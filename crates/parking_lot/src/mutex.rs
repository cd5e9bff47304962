//! The test-and-test-and-set [`Mutex`]: the crate's only unsafe code.
//!
//! The lock is one `AtomicBool`. An uncontended `lock` is a single
//! compare-exchange and an unlock a single release store, where std's
//! futex mutex pays two locked read-modify-writes plus poison checks.
//! Every engine runs its simulated threads on one OS thread (DESIGN.md
//! §19), so during a run the lock is almost never contended; the few
//! cross-thread users (grid result slots, the watchdog's `Hang` path)
//! hold it briefly. A waiter spins on a relaxed load, which keeps the
//! cache line shared, and yields its CPU between re-tests once the spin
//! budget is spent.

use std::cell::UnsafeCell;
use std::fmt;
use std::hint;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

/// Re-tests a waiter spins through before it starts yielding its CPU.
const SPINS_BEFORE_YIELD: u32 = 100;

/// A mutual-exclusion primitive with `parking_lot`'s non-poisoning API.
pub struct Mutex<T: ?Sized> {
    locked: AtomicBool,
    data: UnsafeCell<T>,
}

// `Mutex<T>` is `Send` exactly when `T` is (derived from the fields).
// SAFETY: `locked` is an atomic, safe to share. `data` is reached only
// through a guard, and the lock admits one guard at a time, so sharing
// a `Mutex<T>` lets threads take turns with `&mut T`, which moves the
// value between them (and the last holder may drop what it replaced):
// that needs `T: Send` and not `T: Sync`, the same bound as std's.
unsafe impl<T: ?Sized + Send> Sync for Mutex<T> {}

/// An exclusive lock guard; the lock is released when it drops.
///
/// Like std's guard it is `!Send`, and `Sync` exactly when `T` is.
#[must_use = "if unused the Mutex will immediately unlock"]
pub struct MutexGuard<'a, T: ?Sized> {
    lock: &'a Mutex<T>,
    /// Makes the guard `!Send` (and `!Sync`, restored below).
    _not_send: PhantomData<*const ()>,
}

// SAFETY: a shared `&MutexGuard<T>` gives out only `&T` (through
// `Deref`; `lock` is a shared reference and `_not_send` holds no data),
// which is safe to use from several threads exactly when `T: Sync`.
// Unlocking needs the guard by value, which `!Send` keeps on the
// locking thread.
unsafe impl<T: ?Sized + Sync> Sync for MutexGuard<'_, T> {}

impl<T> Mutex<T> {
    /// Creates a new mutex.
    pub const fn new(value: T) -> Self {
        Mutex {
            locked: AtomicBool::new(false),
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex, returning the inner value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the mutex, spinning (then yielding) until it is
    /// available. Never poisons: a panic in another holder is ignored.
    #[inline]
    pub fn lock(&self) -> MutexGuard<'_, T> {
        if self
            .locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            self.lock_contended();
        }
        MutexGuard {
            lock: self,
            _not_send: PhantomData,
        }
    }

    /// The slow path: test with relaxed loads until the lock looks free,
    /// then retry the exchange.
    #[cold]
    fn lock_contended(&self) {
        let mut spins = 0u32;
        loop {
            while self.locked.load(Ordering::Relaxed) {
                if spins < SPINS_BEFORE_YIELD {
                    spins += 1;
                    hint::spin_loop();
                } else {
                    thread::yield_now();
                }
            }
            if self
                .locked
                .compare_exchange_weak(false, true, Ordering::Acquire, Ordering::Relaxed)
                .is_ok()
            {
                return;
            }
        }
    }

    /// Attempts to acquire the mutex without blocking.
    #[inline]
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        self.locked
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .ok()
            .map(|_| MutexGuard {
                lock: self,
                _not_send: PhantomData,
            })
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized> Deref for MutexGuard<'_, T> {
    type Target = T;

    #[inline]
    fn deref(&self) -> &T {
        // SAFETY: this guard exists only while its holder owns the lock
        // (set by the Acquire exchange, cleared by the guard's drop), so
        // no other reference to the value is live.
        unsafe { &*self.lock.data.get() }
    }
}

impl<T: ?Sized> DerefMut for MutexGuard<'_, T> {
    #[inline]
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`; `&mut self` makes this the only borrow
        // through the guard.
        unsafe { &mut *self.lock.data.get() }
    }
}

impl<T: ?Sized> Drop for MutexGuard<'_, T> {
    #[inline]
    fn drop(&mut self) {
        // Release publishes this holder's writes to the next Acquire.
        self.lock.locked.store(false, Ordering::Release);
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

impl<T: ?Sized + fmt::Display> fmt::Display for MutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&**self, f)
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.try_lock() {
            Some(g) => f.debug_struct("Mutex").field("data", &&*g).finish(),
            None => f.debug_struct("Mutex").field("data", &"<locked>").finish(),
        }
    }
}

impl<T: Default> Default for Mutex<T> {
    fn default() -> Self {
        Mutex::new(T::default())
    }
}

impl<T> From<T> for Mutex<T> {
    fn from(value: T) -> Self {
        Mutex::new(value)
    }
}
