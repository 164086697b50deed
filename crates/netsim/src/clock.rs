//! The virtual clock used by every simulated component.

use std::sync::atomic::{AtomicU64, Ordering};

/// Virtual nanoseconds.
pub type Ns = u64;

/// A monotonically advancing virtual clock.
///
/// Every component that "spends time" (network transfers, server-side query
/// execution, per-statement client CPU cost) advances the same shared clock,
/// so the final reading is the simulated wall-clock time of the program.
///
/// The counter is atomic, so a clock can be shared across threads
/// (`Arc<Clock>`); each simulated run still owns its own clock, the atomics
/// simply make the whole pipeline `Send + Sync`.
///
/// ```
/// use netsim::Clock;
/// let clock = Clock::new();
/// clock.advance(1_500);
/// assert_eq!(clock.now(), 1_500);
/// ```
#[derive(Debug, Default)]
pub struct Clock {
    now_ns: AtomicU64,
}

impl Clock {
    /// A clock starting at virtual time zero.
    pub fn new() -> Self {
        Clock {
            now_ns: AtomicU64::new(0),
        }
    }

    /// Current virtual time in nanoseconds.
    pub fn now(&self) -> Ns {
        self.now_ns.load(Ordering::Relaxed)
    }

    /// Advance the clock by `delta` nanoseconds, saturating at `u64::MAX`.
    pub fn advance(&self, delta: Ns) {
        let _ = self
            .now_ns
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |now| {
                Some(now.saturating_add(delta))
            });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn advances_monotonically() {
        let c = Clock::new();
        assert_eq!(c.now(), 0);
        c.advance(10);
        c.advance(5);
        assert_eq!(c.now(), 15);
    }

    #[test]
    fn saturates_instead_of_overflowing() {
        let c = Clock::new();
        c.advance(u64::MAX - 1);
        c.advance(100);
        assert_eq!(c.now(), u64::MAX);
    }

    #[test]
    fn clock_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Clock>();
    }
}
