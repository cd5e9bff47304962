//! Offline shim for the `parking_lot` crate.
//!
//! The build container has no network access and no vendored registry,
//! so the workspace provides the tiny slice of `parking_lot`'s API it
//! actually uses: `Mutex`, `MutexGuard`, `RwLock` and its guards. Like
//! `parking_lot`, neither lock poisons: the thread engine unwinds
//! simulated threads through held guards at shutdown and must still be
//! able to lock afterwards.
//!
//! `Mutex` is a test-and-test-and-set lock of the crate's own (the
//! `mutex` module, the only place `unsafe` is allowed): one
//! compare-exchange to lock and one release store to unlock, because an
//! engine's simulated threads share one OS thread and almost never find
//! it held. `RwLock` stays a thin wrapper over `std::sync::RwLock` that
//! swallows poison (`PoisonError::into_inner`); its guards are the std
//! guards.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::sync::TryLockError;

#[allow(unsafe_code)]
mod mutex;

pub use mutex::{Mutex, MutexGuard};

/// A shared read guard; alias of the `std` guard.
pub type RwLockReadGuard<'a, T> = std::sync::RwLockReadGuard<'a, T>;
/// An exclusive write guard; alias of the `std` guard.
pub type RwLockWriteGuard<'a, T> = std::sync::RwLockWriteGuard<'a, T>;

/// A reader-writer lock with `parking_lot`'s non-poisoning API.
#[derive(Default)]
pub struct RwLock<T: ?Sized> {
    inner: std::sync::RwLock<T>,
}

impl<T> RwLock<T> {
    /// Creates a new reader-writer lock.
    pub const fn new(value: T) -> Self {
        RwLock {
            inner: std::sync::RwLock::new(value),
        }
    }

    /// Consumes the lock, returning the inner value.
    pub fn into_inner(self) -> T {
        self.inner
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires a shared read guard.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.inner
            .read()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Acquires an exclusive write guard.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.inner
            .write()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Attempts to acquire a shared read guard without blocking.
    pub fn try_read(&self) -> Option<RwLockReadGuard<'_, T>> {
        match self.inner.try_read() {
            Ok(g) => Some(g),
            Err(TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(TryLockError::WouldBlock) => None,
        }
    }

    /// Mutable access without locking (requires exclusive borrow).
    pub fn get_mut(&mut self) -> &mut T {
        self.inner
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

impl<T: ?Sized + std::fmt::Debug> std::fmt::Debug for RwLock<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RwLock").finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mutex_basics() {
        let m = Mutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m = Mutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn lock_survives_panicked_holder() {
        let m = std::sync::Arc::new(Mutex::new(7));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _g = m2.lock();
            panic!("poison attempt");
        })
        .join();
        // parking_lot semantics: no poisoning, value still reachable.
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn contended_increments_are_exact() {
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 100_000;
        let m = std::sync::Arc::new(Mutex::new(0u64));
        let workers: Vec<_> = (0..THREADS)
            .map(|_| {
                let m = std::sync::Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..PER_THREAD {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert_eq!(*m.lock(), THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn try_lock_fails_while_another_thread_holds() {
        let m = std::sync::Arc::new(Mutex::new(5));
        let (held_tx, held_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let holder = {
            let m = std::sync::Arc::clone(&m);
            std::thread::spawn(move || {
                let mut g = m.lock();
                held_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                *g += 1;
            })
        };
        held_rx.recv().unwrap();
        assert!(m.try_lock().is_none(), "another thread holds the guard");
        release_tx.send(()).unwrap();
        holder.join().unwrap();
        assert_eq!(*m.try_lock().expect("free after the holder dropped"), 6);
    }

    #[test]
    fn guard_formats_as_its_value() {
        let m = Mutex::new(vec![1, 2]);
        assert_eq!(format!("{:?}", m.lock()), "[1, 2]");
        assert_eq!(format!("{m:?}"), "Mutex { data: [1, 2] }");
        let g = m.lock();
        assert_eq!(format!("{m:?}"), "Mutex { data: \"<locked>\" }");
        drop(g);
        let n = Mutex::new(2.5);
        assert_eq!(format!("{}", n.lock()), "2.5");
    }

    /// Compile-time checks that `Mutex<T>` is `Send` and `Sync` exactly
    /// when std's is, and that the guard is `!Send` and `Sync` exactly
    /// when `T` is, as std's guard.
    #[allow(dead_code)]
    mod bounds {
        use super::{Mutex, MutexGuard};
        use std::cell::Cell;
        use std::rc::Rc;

        fn is_send<T: ?Sized + Send>() {}
        fn is_sync<T: ?Sized + Sync>() {}

        /// Fails to compile when `T: Send`: with two candidate impls,
        /// `some_item` is ambiguous.
        trait AmbiguousIfSend<A> {
            fn some_item() {}
        }
        impl<T: ?Sized> AmbiguousIfSend<()> for T {}
        impl<T: ?Sized + Send> AmbiguousIfSend<u8> for T {}

        /// Fails to compile when `T: Sync`.
        trait AmbiguousIfSync<A> {
            fn some_item() {}
        }
        impl<T: ?Sized> AmbiguousIfSync<()> for T {}
        impl<T: ?Sized + Sync> AmbiguousIfSync<u8> for T {}

        fn checks() {
            // `T: Send + Sync`: both.
            is_send::<Mutex<u8>>();
            is_sync::<Mutex<u8>>();
            is_send::<std::sync::Mutex<u8>>();
            is_sync::<std::sync::Mutex<u8>>();
            // `T: Send`, `!Sync`: the lock still makes it `Sync`.
            is_send::<Mutex<Cell<u8>>>();
            is_sync::<Mutex<Cell<u8>>>();
            is_sync::<std::sync::Mutex<Cell<u8>>>();
            // Unsized values keep the bounds.
            is_send::<Mutex<[u8]>>();
            is_sync::<Mutex<[u8]>>();
            // `T: !Send`: neither.
            let _ = <Mutex<Rc<u8>> as AmbiguousIfSend<_>>::some_item;
            let _ = <Mutex<Rc<u8>> as AmbiguousIfSync<_>>::some_item;
            let _ = <std::sync::Mutex<Rc<u8>> as AmbiguousIfSend<_>>::some_item;
            let _ = <std::sync::Mutex<Rc<u8>> as AmbiguousIfSync<_>>::some_item;
            // The guard: never `Send`; `Sync` exactly when `T` is.
            let _ = <MutexGuard<'static, u8> as AmbiguousIfSend<_>>::some_item;
            let _ = <std::sync::MutexGuard<'static, u8> as AmbiguousIfSend<_>>::some_item;
            is_sync::<MutexGuard<'static, u8>>();
            is_sync::<std::sync::MutexGuard<'static, u8>>();
            let _ = <MutexGuard<'static, Cell<u8>> as AmbiguousIfSync<_>>::some_item;
            let _ = <std::sync::MutexGuard<'static, Cell<u8>> as AmbiguousIfSync<_>>::some_item;
        }
    }

    #[test]
    fn rwlock_basics() {
        let l = RwLock::new(vec![1, 2]);
        assert_eq!(l.read().len(), 2);
        l.write().push(3);
        assert_eq!(l.read().len(), 3);
    }
}
