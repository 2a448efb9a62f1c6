//! Minimal synchronisation wrapper: a `Mutex` with parking_lot-style
//! ergonomics (`lock()` returns the guard directly) built on
//! `std::sync::Mutex`.
//!
//! Poisoning is deliberately ignored: a panicked node thread already
//! fails the run through its status channel, and the observer/store data
//! are plain values that remain internally consistent under panic.

use std::sync::MutexGuard;

/// A mutual-exclusion lock whose `lock` returns the guard directly.
#[derive(Debug, Default)]
pub struct Mutex<T> {
    inner: std::sync::Mutex<T>,
}

impl<T> Mutex<T> {
    /// Wrap a value.
    pub fn new(value: T) -> Mutex<T> {
        Mutex { inner: std::sync::Mutex::new(value) }
    }

    /// Acquire the lock, ignoring poison.
    pub fn lock(&self) -> MutexGuard<'_, T> {
        match self.inner.lock() {
            Ok(g) => g,
            Err(poisoned) => poisoned.into_inner(),
        }
    }
}
