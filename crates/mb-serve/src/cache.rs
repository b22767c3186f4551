//! The shared, epoch-versioned model cache.
//!
//! One slot per [`Fingerprint`]. The first requester trains the model (off
//! the slot lock — training can take arbitrarily long) and publishes an
//! immutable [`ModelSnapshot`] at epoch 1; concurrent requesters for the
//! same fingerprint block on the slot's condvar and then share the same
//! `Arc`. A retrain publishes the *next* epoch by swapping the slot's
//! `Arc` — readers holding the previous snapshot are never stalled or
//! invalidated, the multiversion discipline (readers against an immutable
//! snapshot, writers installing the next one) that keeps concurrency from
//! ever changing a report.

use crate::fingerprint::Fingerprint;
use crate::sync::{lock, wait};
use macrobase_core::executor::FittedModel;
use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex};

/// An immutable fitted model stamped with the epoch that published it.
/// Everything a scorer needs is frozen at publication: epochs never mutate.
#[derive(Debug)]
pub struct ModelSnapshot {
    /// Publication epoch, starting at 1 for the first training.
    pub epoch: u64,
    /// The fitted classifier + threshold.
    pub model: FittedModel,
}

/// How a cache lookup was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// This requester trained the model (or arrived while no model existed
    /// and won the training slot).
    Miss,
    /// An already-published snapshot was reused.
    Hit,
}

enum SlotState {
    /// A requester is training; everyone else waits on the condvar.
    Training,
    /// Published and shareable. Replaced wholesale on retrain.
    Ready(Arc<ModelSnapshot>),
    /// Training failed. Sticky: the same inputs would fail the same way
    /// (training is deterministic), so repeat requesters get the same error
    /// without re-paying for the attempt.
    Failed(String),
}

struct Slot {
    state: Mutex<SlotState>,
    cond: Condvar,
}

/// The error a slot publishes when its trainer panicked.
const TRAINER_PANICKED: &str = "model training panicked";

/// Publishes the trainer's outcome on drop and wakes every waiter. It
/// starts out holding a failure, so a `train` closure that unwinds still
/// leaves its slot `Failed` rather than `Training` forever — waiters get
/// an error instead of blocking on a condvar nobody will signal again.
struct PublishOnDrop<'a> {
    slot: &'a Slot,
    state: SlotState,
}

impl Drop for PublishOnDrop<'_> {
    fn drop(&mut self) {
        // The slot lock is never held while `train` runs, so it cannot be
        // poisoned by the trainer's panic; recovering keeps this drop (which
        // may run during an unwind) from panicking regardless.
        let mut state = lock(&self.slot.state);
        *state = std::mem::replace(&mut self.state, SlotState::Training);
        self.slot.cond.notify_all();
    }
}

/// The cache proper: fingerprint-keyed slots.
pub struct ModelCache {
    slots: Mutex<HashMap<Fingerprint, Arc<Slot>>>,
}

impl ModelCache {
    /// An empty cache.
    pub fn new() -> Self {
        ModelCache {
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// Fetch the current snapshot for `fingerprint`, training it with
    /// `train` if no slot exists yet. Exactly one caller per fingerprint
    /// runs `train`; everyone else blocks until publication and shares the
    /// result.
    pub fn get_or_train<F>(
        &self,
        fingerprint: Fingerprint,
        train: F,
    ) -> Result<(Arc<ModelSnapshot>, CacheOutcome), String>
    where
        F: FnOnce() -> Result<FittedModel, String>,
    {
        let (slot, trainer) = {
            let mut slots = lock(&self.slots);
            match slots.get(&fingerprint) {
                Some(slot) => (Arc::clone(slot), false),
                None => {
                    let slot = Arc::new(Slot {
                        state: Mutex::new(SlotState::Training),
                        cond: Condvar::new(),
                    });
                    slots.insert(fingerprint, Arc::clone(&slot));
                    (slot, true)
                }
            }
        };

        if trainer {
            // Train off every lock: other fingerprints stay available and
            // same-fingerprint requesters queue on the condvar. The guard
            // publishes whatever `train` leaves — including a panic.
            let mut publish = PublishOnDrop {
                slot: &slot,
                state: SlotState::Failed(TRAINER_PANICKED.to_string()),
            };
            let result = match train() {
                Ok(model) => {
                    let snapshot = Arc::new(ModelSnapshot { epoch: 1, model });
                    publish.state = SlotState::Ready(Arc::clone(&snapshot));
                    Ok((snapshot, CacheOutcome::Miss))
                }
                Err(message) => {
                    publish.state = SlotState::Failed(message.clone());
                    Err(message)
                }
            };
            drop(publish);
            return result;
        }

        let mut state = lock(&slot.state);
        loop {
            match &*state {
                SlotState::Ready(snapshot) => {
                    return Ok((Arc::clone(snapshot), CacheOutcome::Hit));
                }
                SlotState::Failed(message) => return Err(message.clone()),
                SlotState::Training => {
                    state = wait(&slot.cond, state);
                }
            }
        }
    }

    /// Current snapshot for `fingerprint`, if one has been published.
    /// Never blocks on an in-flight training.
    pub fn peek(&self, fingerprint: Fingerprint) -> Option<Arc<ModelSnapshot>> {
        let slot = {
            let slots = lock(&self.slots);
            slots.get(&fingerprint).map(Arc::clone)?
        };
        let state = lock(&slot.state);
        match &*state {
            SlotState::Ready(snapshot) => Some(Arc::clone(snapshot)),
            _ => None,
        }
    }

    /// Train the next epoch for an already-published fingerprint and swap
    /// it in. Readers holding the previous `Arc` are untouched; requesters
    /// arriving after the swap get the new epoch. Returns the published
    /// epoch.
    pub fn retrain<F>(&self, fingerprint: Fingerprint, train: F) -> Result<u64, String>
    where
        F: FnOnce() -> Result<FittedModel, String>,
    {
        let slot = {
            let slots = lock(&self.slots);
            slots
                .get(&fingerprint)
                .map(Arc::clone)
                .ok_or_else(|| "no model published for this fingerprint".to_string())?
        };
        let current_epoch = {
            let state = lock(&slot.state);
            match &*state {
                SlotState::Ready(snapshot) => snapshot.epoch,
                SlotState::Training => {
                    return Err("model is still training its first epoch".to_string())
                }
                SlotState::Failed(message) => return Err(message.clone()),
            }
        };
        // Train with no lock held: in-flight scorers keep reading the
        // current snapshot for the entire duration.
        let model = train()?;
        let mut state = lock(&slot.state);
        let epoch = match &*state {
            // Concurrent retrains may have advanced the epoch while this
            // one trained; publish after the newest.
            SlotState::Ready(snapshot) => snapshot.epoch.max(current_epoch) + 1,
            _ => current_epoch + 1,
        };
        *state = SlotState::Ready(Arc::new(ModelSnapshot { epoch, model }));
        slot.cond.notify_all();
        Ok(epoch)
    }
}

impl Default for ModelCache {
    fn default() -> Self {
        ModelCache::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use macrobase_core::query::MdpQuery;
    use macrobase_core::types::Point;

    fn training_batch() -> Vec<Point> {
        (0..500)
            .map(|i| Point::simple(10.0 + (i % 7) as f64 * 0.2, format!("d{}", i % 10)))
            .collect()
    }

    fn fingerprint_and_model() -> (Fingerprint, Vec<Point>) {
        let points = training_batch();
        let query = MdpQuery::with_defaults();
        let fp = Fingerprint::compute(query.analysis(), &points);
        (fp, points)
    }

    #[test]
    fn first_requester_trains_and_later_requesters_hit() {
        let cache = ModelCache::new();
        let (fp, points) = fingerprint_and_model();
        let query = MdpQuery::with_defaults();

        let (first, outcome) = cache
            .get_or_train(fp, || query.train(&points).map_err(|e| e.to_string()))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        assert_eq!(first.epoch, 1);

        let (second, outcome) = cache
            .get_or_train(fp, || panic!("must not retrain a cached fingerprint"))
            .unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&first, &second));
    }

    #[test]
    fn retrain_publishes_the_next_epoch_without_touching_old_readers() {
        let cache = ModelCache::new();
        let (fp, points) = fingerprint_and_model();
        let query = MdpQuery::with_defaults();

        let (old, _) = cache
            .get_or_train(fp, || query.train(&points).map_err(|e| e.to_string()))
            .unwrap();
        let epoch = cache
            .retrain(fp, || query.train(&points).map_err(|e| e.to_string()))
            .unwrap();
        assert_eq!(epoch, 2);
        // The held snapshot is immutable: still epoch 1.
        assert_eq!(old.epoch, 1);
        // New requesters see the new epoch.
        let current = cache.peek(fp).unwrap();
        assert_eq!(current.epoch, 2);
        assert!(!Arc::ptr_eq(&old, &current));
    }

    #[test]
    fn training_failures_are_sticky_and_typed() {
        let cache = ModelCache::new();
        let (fp, _) = fingerprint_and_model();
        let err = cache
            .get_or_train(fp, || Err::<FittedModel, _>("boom".to_string()))
            .unwrap_err();
        assert_eq!(err, "boom");
        let err = cache
            .get_or_train(fp, || panic!("failure is sticky; no second attempt"))
            .unwrap_err();
        assert_eq!(err, "boom");
        assert!(cache.peek(fp).is_none());
    }

    #[test]
    fn a_panicking_trainer_fails_its_slot_and_wakes_waiters() {
        use std::sync::mpsc;
        use std::time::Duration;

        let cache = Arc::new(ModelCache::new());
        let (fp, _) = fingerprint_and_model();
        let (entered_tx, entered_rx) = mpsc::channel();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (waited_tx, waited_rx) = mpsc::channel();
        let trainer = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                    cache.get_or_train(fp, || {
                        entered_tx.send(()).unwrap();
                        // Hold the slot in `Training` until the waiter has
                        // joined it, then die.
                        release_rx.recv().unwrap();
                        panic!("trainer died mid-fit");
                    })
                }))
                .is_err()
            })
        };
        entered_rx.recv().unwrap();
        let slot = Arc::clone(cache.slots.lock().unwrap().get(&fp).unwrap());
        let waiter = {
            let cache = Arc::clone(&cache);
            std::thread::spawn(move || {
                let outcome = cache.get_or_train(fp, || panic!("the slot already has a trainer"));
                waited_tx.send(outcome.map(|_| ())).unwrap();
            })
        };
        // The map, the trainer and this test hold the slot; a fourth
        // holder is the waiter, which from here on either blocks on the
        // condvar or (if it locks the slot after the panic) reads the
        // failure directly.
        while Arc::strong_count(&slot) < 4 {
            std::thread::yield_now();
        }
        assert!(matches!(*slot.state.lock().unwrap(), SlotState::Training));
        release_tx.send(()).unwrap();
        // Bounded: a waiter stranded on a `Training` slot fails the test
        // here instead of hanging it.
        let waited = waited_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a waiter must not hang behind a panicked trainer");
        assert_eq!(waited, Err(TRAINER_PANICKED.to_string()));
        waiter.join().unwrap();
        assert!(trainer.join().unwrap(), "the trainer's panic propagates");
        // The slot is `Failed`, not `Training`: later requesters get the
        // error at once, and nothing was published.
        assert!(matches!(*slot.state.lock().unwrap(), SlotState::Failed(_)));
        assert_eq!(
            cache
                .get_or_train(fp, || panic!("failure is sticky"))
                .map(|_| ()),
            Err(TRAINER_PANICKED.to_string())
        );
        assert!(cache.peek(fp).is_none());
    }
}
