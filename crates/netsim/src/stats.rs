//! Accounting of network activity during a simulated run.

use std::sync::atomic::{AtomicU64, Ordering};

/// Counters for network activity; used by experiments to report the number
/// of round trips (the N+1 select problem manifests here) and bytes moved.
/// Atomic, so a connection can be shared across threads.
#[derive(Debug, Default)]
pub struct NetStats {
    round_trips: AtomicU64,
    bytes_transferred: AtomicU64,
}

impl NetStats {
    /// Fresh counters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one request/response round trip.
    pub fn record_round_trip(&self) {
        self.round_trips.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a payload of `bytes` moved over the link.
    pub fn record_transfer(&self, bytes: u64) {
        let _ = self
            .bytes_transferred
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |b| {
                Some(b.saturating_add(bytes))
            });
    }

    /// Number of round trips so far.
    pub fn round_trips(&self) -> u64 {
        self.round_trips.load(Ordering::Relaxed)
    }

    /// Total bytes transferred so far.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = NetStats::new();
        s.record_round_trip();
        s.record_round_trip();
        s.record_transfer(100);
        s.record_transfer(28);
        assert_eq!(s.round_trips(), 2);
        assert_eq!(s.bytes_transferred(), 128);
    }
}
