//! Synchronization facade for the workspace's concurrency core.
//!
//! Every hand-rolled concurrent subsystem (`tc_util::steal`,
//! `tc-store::cache`, `tc-store::wal::writer`, `tc-serve::reload`, plus
//! the serve/router lock sites) imports its primitives from here rather
//! than from `std::sync` directly. In a normal build the types are
//! zero-cost wrappers over (or re-exports of) the std primitives with a
//! non-poisoning, parking_lot-style API:
//!
//! * [`Mutex::lock`] returns the guard directly (a panic while holding a
//!   lock already poisons the *subsystem* through its own `poisoned`
//!   flags; double-reporting it as a lock poison only turned recoverable
//!   conditions into `expect` crashes in request paths);
//! * [`Condvar::wait_timeout`] returns `(guard, timed_out)`.
//!
//! Under `RUSTFLAGS="--cfg tc_check_model"` the same names resolve to
//! the instrumented lookalikes from the vendored `tc-model` crate, and
//! every lock, condvar wait/notify, atomic op, `Arc` clone/drop and
//! spawn/join becomes a scheduling point of a deterministic
//! interleaving checker — `crates/tc-check` exhaustively model-checks
//! the four subsystems above through exactly this seam. See
//! `docs/CONCURRENCY.md` for the full story and `tc-check`'s tests for
//! the checked invariants.
//!
//! The facade deliberately exposes only the surface those subsystems
//! use: `Mutex`, `Condvar`, `Arc`, `OnceLock`, the `atomic` module, and
//! a `thread` module with `spawn`/`scope`/`yield_now`. Code outside the
//! concurrency core is free to keep using `std::sync`.

/// Atomic integer/bool types plus [`atomic::Ordering`].
pub mod atomic {
    #[cfg(not(tc_check_model))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};

    #[cfg(tc_check_model)]
    pub use tc_model::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

/// Thread spawning: `spawn`, `scope`, `yield_now` and the handle types.
pub mod thread {
    #[cfg(not(tc_check_model))]
    pub use std::thread::{scope, spawn, yield_now, JoinHandle, Scope, ScopedJoinHandle};

    #[cfg(tc_check_model)]
    pub use tc_model::thread::{scope, spawn, yield_now, JoinHandle, Scope, ScopedJoinHandle};
}

#[cfg(not(tc_check_model))]
pub use std::sync::Arc;

#[cfg(tc_check_model)]
pub use tc_model::sync::Arc;

/// A cell written once, by whichever of racing initialisers comes first:
/// [`std::sync::OnceLock`], whose `get` and `get_or_init` the model
/// checker sees as the publication they are.
#[cfg(not(tc_check_model))]
pub use std::sync::OnceLock;

#[cfg(tc_check_model)]
pub use tc_model::sync::OnceLock;

#[cfg(tc_check_model)]
pub use tc_model::sync::{Condvar, Mutex, MutexGuard};

/// Mutual exclusion with a non-poisoning API over [`std::sync::Mutex`].
///
/// A thread panicking while holding the lock does not wedge later
/// acquisitions: the data is handed to the next locker as-is, exactly
/// like `parking_lot`. Subsystems that care about partial state on panic
/// track it explicitly (see the WAL's and executor's `poisoned` flags).
#[cfg(not(tc_check_model))]
#[derive(Debug, Default)]
pub struct Mutex<T>(std::sync::Mutex<T>);

/// RAII guard returned by [`Mutex::lock`]; releases on drop.
#[cfg(not(tc_check_model))]
pub type MutexGuard<'a, T> = std::sync::MutexGuard<'a, T>;

#[cfg(not(tc_check_model))]
impl<T> Mutex<T> {
    /// Creates a new unlocked mutex.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(std::sync::Mutex::new(value))
    }

    /// Acquires the mutex, blocking until it is free.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Attempts the acquisition without blocking.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        match self.0.try_lock() {
            Ok(guard) => Some(guard),
            Err(std::sync::TryLockError::Poisoned(p)) => Some(p.into_inner()),
            Err(std::sync::TryLockError::WouldBlock) => None,
        }
    }

    /// Consumes the mutex, returning the data.
    pub fn into_inner(self) -> T {
        self.0
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Condition variable paired with the facade [`Mutex`].
#[cfg(not(tc_check_model))]
#[derive(Debug, Default)]
pub struct Condvar(std::sync::Condvar);

#[cfg(not(tc_check_model))]
impl Condvar {
    /// Creates a condvar with no waiters.
    pub const fn new() -> Condvar {
        Condvar(std::sync::Condvar::new())
    }

    /// Releases the guard, blocks until notified, re-acquires.
    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.0
            .wait(guard)
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// [`Condvar::wait`] with a timeout; the flag reports whether the
    /// wait ended by timeout rather than notification.
    pub fn wait_timeout<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        dur: std::time::Duration,
    ) -> (MutexGuard<'a, T>, bool) {
        let (guard, res) = self
            .0
            .wait_timeout(guard, dur)
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        (guard, res.timed_out())
    }

    /// Wakes one waiter.
    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    /// Wakes every waiter.
    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::atomic::{AtomicUsize, Ordering};
    use super::{Arc, Condvar, Mutex, OnceLock};
    use std::time::Duration;

    #[test]
    fn mutex_lock_and_try_lock() {
        let m = Mutex::new(1u32);
        {
            let mut g = m.lock();
            *g += 1;
            assert!(m.try_lock().is_none());
        }
        assert_eq!(*m.try_lock().expect("uncontended"), 2);
        assert_eq!(m.into_inner(), 2);
    }

    #[test]
    fn condvar_handoff_and_timeout() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let pair2 = Arc::clone(&pair);
        let t = std::thread::spawn(move || {
            *pair2.0.lock() = true;
            pair2.1.notify_one();
        });
        let mut ready = pair.0.lock();
        while !*ready {
            let (g, _timed_out) = pair.1.wait_timeout(ready, Duration::from_millis(50));
            ready = g;
        }
        drop(ready);
        t.join().unwrap();
        // A wait with no notifier reports its timeout.
        let (_g, timed_out) = pair.1.wait_timeout(pair.0.lock(), Duration::from_millis(1));
        assert!(timed_out);
    }

    #[test]
    fn once_lock_initialises_once() {
        let cell = OnceLock::new();
        assert_eq!(cell.get(), None);
        assert_eq!(*cell.get_or_init(|| 1u32), 1);
        assert_eq!(*cell.get_or_init(|| 2), 1);
        assert_eq!(cell.get(), Some(&1));
    }

    #[test]
    fn atomics_and_arc_pass_through() {
        let n = Arc::new(AtomicUsize::new(0));
        let n2 = Arc::clone(&n);
        super::thread::scope(|s| {
            s.spawn(|| n2.fetch_add(2, Ordering::SeqCst));
        });
        assert_eq!(n.load(Ordering::SeqCst), 2);
        assert_eq!(Arc::strong_count(&n), 2);
    }
}
