//! Busy-until resource modelling.
//!
//! Cycle-level hardware models in this workspace mostly need one
//! primitive: a shared resource (memory port, PE, bus) that serves one
//! request at a time with a deterministic service latency. [`BusyResource`]
//! captures that, and [`ResourcePool`] models `n` interchangeable copies
//! (e.g. the four PIM modules of a cluster).

use crate::state::Scalar;
use crate::time::{SimDuration, SimTime};

/// A single-server resource with earliest-availability semantics.
///
/// # Examples
///
/// ```
/// use hhpim_sim::{BusyResource, SimDuration, SimTime};
/// let mut port = BusyResource::new();
/// // Two back-to-back 10 ns accesses issued at t=0 finish at 10 and 20 ns.
/// let done1 = port.acquire(SimTime::ZERO, SimDuration::from_ns(10));
/// let done2 = port.acquire(SimTime::ZERO, SimDuration::from_ns(10));
/// assert_eq!(done1, SimTime::from_ns(10));
/// assert_eq!(done2, SimTime::from_ns(20));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BusyResource {
    free_at: SimTime,
    busy_total: SimDuration,
    served: u64,
}

impl BusyResource {
    /// Creates a resource that is free at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// The instant at which the resource next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }

    /// Whether the resource is free at `now`.
    pub fn is_free(&self, now: SimTime) -> bool {
        self.free_at <= now
    }

    /// Total busy time accumulated (for utilization reporting).
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Serves a request arriving at `at` with the given `service` time;
    /// returns the completion instant. Requests queue FIFO: service starts
    /// at `max(at, free_at)`.
    #[inline]
    pub fn acquire(&mut self, at: SimTime, service: SimDuration) -> SimTime {
        let start = self.free_at.max(at);
        let done = start + service;
        self.free_at = done;
        self.busy_total += service;
        self.served += 1;
        done
    }

    /// Resets availability and statistics to time zero.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Walks the resource's state: its free instant, busy total and
    /// served count, in that order.
    #[inline]
    pub fn visit_scalars(&mut self, f: &mut impl FnMut(Scalar<'_>)) {
        f(Scalar::Free(&mut self.free_at));
        f(Scalar::Busy(&mut self.busy_total));
        f(Scalar::Count(&mut self.served));
    }
}

/// A pool of `n` identical single-server resources with
/// earliest-available dispatch (e.g. a PIM module cluster).
///
/// # Examples
///
/// ```
/// use hhpim_sim::{ResourcePool, SimDuration, SimTime};
/// let mut cluster = ResourcePool::new(4);
/// // Five 8 ns jobs on 4 servers: the fifth waits for the first to finish.
/// let mut last = SimTime::ZERO;
/// for _ in 0..5 {
///     last = cluster.acquire(SimTime::ZERO, SimDuration::from_ns(8));
/// }
/// assert_eq!(last, SimTime::from_ns(16));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResourcePool {
    servers: Vec<BusyResource>,
}

impl ResourcePool {
    /// Creates a pool of `n` servers, all free at time zero.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "resource pool must have at least one server");
        ResourcePool {
            servers: vec![BusyResource::new(); n],
        }
    }

    /// Number of servers in the pool.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Whether the pool has no servers (never true; kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.servers.is_empty()
    }

    /// Serves a request on the earliest-available server; returns the
    /// completion instant. Ties dispatch to the lowest-indexed server for
    /// determinism.
    pub fn acquire(&mut self, at: SimTime, service: SimDuration) -> SimTime {
        let idx = self
            .servers
            .iter()
            .enumerate()
            .min_by_key(|(i, s)| (s.free_at(), *i))
            .map(|(i, _)| i)
            .expect("pool is non-empty");
        self.servers[idx].acquire(at, service)
    }

    /// The earliest instant at which all servers are simultaneously free.
    pub fn all_free_at(&self) -> SimTime {
        self.servers
            .iter()
            .map(BusyResource::free_at)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Sum of busy time across servers.
    pub fn busy_total(&self) -> SimDuration {
        self.servers.iter().map(BusyResource::busy_total).sum()
    }

    /// Total requests served across servers.
    pub fn served(&self) -> u64 {
        self.servers.iter().map(BusyResource::served).sum()
    }

    /// Resets every server to free-at-zero.
    pub fn reset(&mut self) {
        for s in &mut self.servers {
            s.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_queueing() {
        let mut r = BusyResource::new();
        assert!(r.is_free(SimTime::ZERO));
        let d1 = r.acquire(SimTime::from_ns(5), SimDuration::from_ns(10));
        assert_eq!(d1, SimTime::from_ns(15));
        // Arrives while busy: waits.
        let d2 = r.acquire(SimTime::from_ns(6), SimDuration::from_ns(1));
        assert_eq!(d2, SimTime::from_ns(16));
        // Arrives after idle gap: starts immediately.
        let d3 = r.acquire(SimTime::from_ns(100), SimDuration::from_ns(2));
        assert_eq!(d3, SimTime::from_ns(102));
        assert_eq!(r.busy_total(), SimDuration::from_ns(13));
        assert_eq!(r.served(), 3);
    }

    #[test]
    fn pool_balances_across_servers() {
        let mut p = ResourcePool::new(2);
        let a = p.acquire(SimTime::ZERO, SimDuration::from_ns(10));
        let b = p.acquire(SimTime::ZERO, SimDuration::from_ns(10));
        let c = p.acquire(SimTime::ZERO, SimDuration::from_ns(10));
        assert_eq!(a, SimTime::from_ns(10));
        assert_eq!(b, SimTime::from_ns(10));
        assert_eq!(c, SimTime::from_ns(20));
        assert_eq!(p.all_free_at(), SimTime::from_ns(20));
        assert_eq!(p.served(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_panics() {
        let _ = ResourcePool::new(0);
    }

    #[test]
    fn reset_clears_state() {
        let mut p = ResourcePool::new(2);
        p.acquire(SimTime::ZERO, SimDuration::from_ns(10));
        p.reset();
        assert_eq!(p.all_free_at(), SimTime::ZERO);
        assert_eq!(p.busy_total(), SimDuration::ZERO);
    }
}
