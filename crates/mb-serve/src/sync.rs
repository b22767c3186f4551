//! Poison-recovering lock helpers shared by the server, the scheduler and
//! the model cache.
//!
//! A poisoned lock means some other thread panicked while holding it. Every
//! structure these locks guard (job and session maps, admission queues,
//! cache slots, the metric registry) is valid after each individual
//! insert, remove or swap, so continuing with the inner guard is safe — and
//! a resident server must never let one query's panic cascade into a
//! process-wide one. On a healthy lock both helpers behave exactly like
//! `.lock().expect(..)` / `.wait(..).expect(..)`.

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Acquire `m`, recovering the guard if a panicking holder poisoned it.
pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Block on `cond` with `guard`, recovering the guard on poison.
pub(crate) fn wait<'a, T>(cond: &Condvar, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    cond.wait(guard).unwrap_or_else(PoisonError::into_inner)
}
