//! The workspace's mutex and reader-writer lock: `std::sync`'s, with
//! guards returned directly. A lock whose holder panicked is taken
//! anyway: every lock here guards state that each update leaves valid
//! (a map insert, a counter, a swapped `Arc`), so the panic poisons
//! nothing the next holder could misread. [`super::lock_order`] builds
//! its tracked mutex on [`Mutex`].

use std::sync::{self, MutexGuard, PoisonError, RwLockReadGuard, RwLockWriteGuard};

/// A mutex whose `lock` returns the guard, recovering from poisoning.
#[derive(Debug, Default)]
pub struct Mutex<T: ?Sized>(sync::Mutex<T>);

impl<T> Mutex<T> {
    /// Wraps a value.
    pub const fn new(value: T) -> Mutex<T> {
        Mutex(sync::Mutex::new(value))
    }
}

impl<T: ?Sized> Mutex<T> {
    /// Acquires the lock, blocking the current thread.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader-writer lock whose `read`/`write` return the guard,
/// recovering from poisoning.
#[derive(Debug, Default)]
pub struct RwLock<T: ?Sized>(sync::RwLock<T>);

impl<T> RwLock<T> {
    /// Wraps a value.
    pub const fn new(value: T) -> RwLock<T> {
        RwLock(sync::RwLock::new(value))
    }
}

impl<T: ?Sized> RwLock<T> {
    /// Acquires shared read access.
    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        self.0.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Acquires exclusive write access.
    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        self.0.write().unwrap_or_else(PoisonError::into_inner)
    }
}

#[cfg(test)]
mod tests {
    use super::{Mutex, RwLock};
    use std::sync::Arc;

    #[test]
    fn locks_survive_a_panicking_holder() {
        let m = Arc::new(Mutex::new(0));
        let l = Arc::new(RwLock::new(0));
        let (m2, l2) = (m.clone(), l.clone());
        let _ = std::thread::spawn(move || {
            let _m = m2.lock();
            let _l = l2.write();
            panic!("poison both");
        })
        .join();
        *m.lock() += 1;
        *l.write() += 1;
        assert_eq!((*m.lock(), *l.read()), (1, 1));
    }
}
