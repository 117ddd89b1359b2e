//! Walking a component's mutable scalar state.
//!
//! Memoized task replay (`hhpim::timegraph`) snapshots a machine's
//! scalar state before a task, keys its memo on that state relative to
//! the machine's clock, and writes the recorded end state back on a
//! hit. Each component defines one `visit_scalars` walk over its
//! fields; reading and writing a snapshot go through the same walk, so
//! their field orders cannot drift apart.

use crate::time::{SimDuration, SimTime};

/// One mutable scalar of a simulated component, as seen by a state
/// walk.
#[derive(Debug)]
pub enum Scalar<'a> {
    /// A completion instant (a port, unit, pipeline or module's next
    /// free time). Work is never dispatched before the current clock,
    /// so an instant in the past acts exactly like the clock itself.
    Free(&'a mut SimTime),
    /// The instant static energy was last accrued up to, and whether
    /// the component accrues static energy at all (is powered).
    Accrual(&'a mut SimTime, bool),
    /// An accumulated busy time.
    Busy(&'a mut SimDuration),
    /// An event counter.
    Count(&'a mut u64),
}
