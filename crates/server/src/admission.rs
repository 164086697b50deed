//! Admission control: a bounded worker pool with a bounded wait queue.
//!
//! Every submission acquires a [`Permit`] before touching the optimizer.
//! At most `max_concurrent` permits are out at once; up to `max_queue`
//! further requests block waiting for one; anything beyond that is shed
//! immediately with [`ServerError::Overloaded`] — the queue can never
//! grow without bound, so a traffic spike degrades latency, not memory.
//!
//! Graceful degradation rides on the same state: a permit granted while
//! the queue is at least `degrade_queue_depth` deep is marked
//! [`Permit::degraded`], and the service optimizes it under the
//! configured downgrade [`cobra_core::SearchBudget`] instead of the full
//! one (trading plan quality for latency exactly when latency is scarce).

use crate::error::ServerError;
use crate::sync;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

#[derive(Debug, Default)]
struct AdmState {
    running: usize,
    queued: usize,
}

/// The admission controller. Thread-safe; one per service.
#[derive(Debug)]
pub struct Admission {
    max_concurrent: usize,
    max_queue: usize,
    degrade_queue_depth: usize,
    state: Mutex<AdmState>,
    freed: Condvar,
    admitted: AtomicU64,
    rejected: AtomicU64,
    degraded: AtomicU64,
}

/// An admitted request. Releases its worker slot on drop (including
/// unwinds), waking one queued waiter.
#[derive(Debug)]
pub struct Permit<'a> {
    admission: &'a Admission,
    degraded: bool,
}

impl Permit<'_> {
    /// True when this request was admitted under queue pressure and
    /// should be served with the degraded search budget.
    pub fn degraded(&self) -> bool {
        self.degraded
    }
}

impl Drop for Permit<'_> {
    fn drop(&mut self) {
        let mut s = sync::lock(&self.admission.state);
        s.running -= 1;
        drop(s);
        // notify_all (not _one): queued admissions and `wait_idle` drains
        // wait on the same condvar with different predicates.
        self.admission.freed.notify_all();
    }
}

impl Admission {
    /// A controller allowing `max_concurrent` in-flight requests, at most
    /// `max_queue` waiters, and degrading once the queue reaches
    /// `degrade_queue_depth` (values are clamped to sane minimums:
    /// at least one worker, and a degrade depth of at least 1 so an
    /// uncontended server never degrades).
    pub fn new(max_concurrent: usize, max_queue: usize, degrade_queue_depth: usize) -> Admission {
        Admission {
            max_concurrent: max_concurrent.max(1),
            max_queue,
            degrade_queue_depth: degrade_queue_depth.max(1),
            state: Mutex::new(AdmState::default()),
            freed: Condvar::new(),
            admitted: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            degraded: AtomicU64::new(0),
        }
    }

    /// Acquire a worker slot, blocking in the bounded queue if all slots
    /// are busy. Returns [`ServerError::Overloaded`] without blocking
    /// when the queue is already full.
    pub fn admit(&self) -> Result<Permit<'_>, ServerError> {
        self.admit_bounded(self.max_queue)
    }

    /// [`Admission::admit`] with an explicit queue bound (clamped to the
    /// configured maximum). The service passes a halved bound while its
    /// health machine is `Degraded`, shedding load earlier when workers
    /// are already faulting.
    pub fn admit_bounded(&self, max_queue: usize) -> Result<Permit<'_>, ServerError> {
        let max_queue = max_queue.min(self.max_queue);
        let mut s = sync::lock(&self.state);
        let mut waited_at_depth = 0usize;
        if s.running >= self.max_concurrent {
            if s.queued >= max_queue {
                let err = ServerError::Overloaded {
                    running: s.running,
                    queued: s.queued,
                };
                drop(s);
                self.rejected.fetch_add(1, Ordering::Relaxed);
                return Err(err);
            }
            s.queued += 1;
            waited_at_depth = s.queued;
            while s.running >= self.max_concurrent {
                s = sync::wait(&self.freed, s);
            }
            s.queued -= 1;
        }
        s.running += 1;
        drop(s);
        self.admitted.fetch_add(1, Ordering::Relaxed);
        // Degrade based on the depth this request *observed*: it queued
        // behind `waited_at_depth - 1` others, so depth ≥ the knob means
        // the server was already backed up when this request arrived.
        let degraded = waited_at_depth >= self.degrade_queue_depth;
        if degraded {
            self.degraded.fetch_add(1, Ordering::Relaxed);
        }
        Ok(Permit {
            admission: self,
            degraded,
        })
    }

    /// Requests admitted (including degraded ones).
    pub fn admitted(&self) -> u64 {
        self.admitted.load(Ordering::Relaxed)
    }

    /// Requests shed with [`ServerError::Overloaded`].
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Requests admitted under queue pressure (served with the degraded
    /// budget).
    pub fn degraded(&self) -> u64 {
        self.degraded.load(Ordering::Relaxed)
    }

    /// Block until no request is running (clean drain-on-shutdown) or
    /// `timeout` elapses. Returns true when fully drained. New admissions
    /// are the caller's problem: the service stops admitting before it
    /// drains.
    pub fn wait_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut s = sync::lock(&self.state);
        while s.running > 0 {
            let now = Instant::now();
            if now >= deadline {
                return false;
            }
            let (guard, _) = sync::wait_timeout(&self.freed, s, deadline - now);
            s = guard;
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn admits_up_to_capacity_then_sheds() {
        let adm = Admission::new(2, 0, 1);
        let p1 = adm.admit().unwrap();
        let p2 = adm.admit().unwrap();
        let err = adm.admit().unwrap_err();
        assert!(matches!(
            err,
            ServerError::Overloaded {
                running: 2,
                queued: 0
            }
        ));
        assert_eq!(adm.rejected(), 1);
        drop(p1);
        let _p3 = adm.admit().unwrap();
        drop(p2);
        assert_eq!(adm.admitted(), 3);
    }

    /// Block until `n` requests sit in the wait queue. A queued request
    /// is parked inside `admit`, so the controller's own state is the
    /// only hand-off that says it got there.
    fn wait_queued(adm: &Admission, n: usize) {
        while sync::lock(&adm.state).queued < n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn queued_request_proceeds_when_slot_frees() {
        let adm = Arc::new(Admission::new(1, 4, 8));
        let p = adm.admit().unwrap();
        let adm2 = adm.clone();
        let waiter = std::thread::spawn(move || {
            let permit = adm2.admit().unwrap();
            assert!(!permit.degraded());
        });
        wait_queued(&adm, 1);
        drop(p);
        waiter.join().unwrap();
        assert_eq!(adm.admitted(), 2);
        assert_eq!(adm.rejected(), 0);
    }

    #[test]
    fn wait_idle_observes_drain() {
        let adm = Admission::new(2, 4, 8);
        let release = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            let p1 = adm.admit().unwrap();
            let p2 = adm.admit().unwrap();
            assert!(!adm.wait_idle(Duration::from_millis(10)), "still running");
            scope.spawn(|| {
                release.wait();
                drop(p1);
                drop(p2);
            });
            release.wait();
            assert!(adm.wait_idle(Duration::from_secs(2)), "drains");
        });
    }

    #[test]
    fn tighter_bound_sheds_earlier() {
        let adm = Admission::new(1, 8, 8);
        let _p = adm.admit().unwrap();
        // With the full queue bound this would enqueue; with a bound of 0
        // (degraded shedding) it is rejected immediately.
        let err = adm.admit_bounded(0).unwrap_err();
        assert!(matches!(err, ServerError::Overloaded { .. }));
        assert_eq!(adm.rejected(), 1);
    }

    #[test]
    fn deep_queue_marks_degraded() {
        let adm = Arc::new(Admission::new(1, 16, 1));
        let p = adm.admit().unwrap();
        let adm2 = adm.clone();
        let waiter = std::thread::spawn(move || adm2.admit().unwrap().degraded());
        wait_queued(&adm, 1);
        drop(p);
        assert!(waiter.join().unwrap(), "queued at depth 1 => degraded");
        assert_eq!(adm.degraded(), 1);
    }
}
