//! Serially reusable resources with FIFO "busy-until" semantics.
//!
//! A disk arm, a SCSI bus, a tape drive, or the robot arm of a jukebox can
//! each serve one operation at a time. The [`Resource`] abstraction models
//! this with a single horizon: an operation requested at time `t` begins at
//! `max(t, busy_until)`, runs for its duration, and pushes the horizon out.
//! This is the classic single-server queue of discrete-event simulation,
//! collapsed to O(1) state because requesters are stepped in virtual-time
//! order by the [`crate::Scheduler`].

use std::cell::RefCell;
use std::rc::Rc;

use crate::time::SimTime;

#[derive(Debug, Default)]
struct Inner {
    busy_until: SimTime,
    busy_total: SimTime,
}

/// A shared serially-reusable resource (disk arm, bus, drive, robot).
///
/// Clones share state, like [`crate::Clock`].
///
/// # Examples
///
/// ```
/// let r = hl_sim::Resource::new("scsi0");
/// let (s1, e1) = r.acquire(0, 100);
/// let (s2, e2) = r.acquire(10, 50); // queued behind the first op
/// assert_eq!((s1, e1), (0, 100));
/// assert_eq!((s2, e2), (100, 150));
/// ```
#[derive(Clone, Debug)]
pub struct Resource {
    name: &'static str,
    inner: Rc<RefCell<Inner>>,
}

impl Resource {
    /// Creates an idle resource. `name` appears in traces and panics only.
    pub fn new(name: &'static str) -> Self {
        Self {
            name,
            inner: Rc::new(RefCell::new(Inner::default())),
        }
    }

    /// Returns the resource's name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Requests exclusive use for `duration`, starting no earlier than
    /// `at`. Returns the `(start, end)` of the granted slot and marks the
    /// resource busy until `end`.
    pub fn acquire(&self, at: SimTime, duration: SimTime) -> (SimTime, SimTime) {
        let mut inner = self.inner.borrow_mut();
        let start = at.max(inner.busy_until);
        let end = start + duration;
        inner.busy_until = end;
        inner.busy_total += duration;
        (start, end)
    }

    /// Returns the time at which the resource next becomes free.
    pub fn free_at(&self) -> SimTime {
        self.inner.borrow().busy_until
    }

    /// Total busy time accumulated (for utilization reports).
    pub fn busy_total(&self) -> SimTime {
        self.inner.borrow().busy_total
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_queueing() {
        let r = Resource::new("r");
        assert_eq!(r.acquire(5, 10), (5, 15));
        assert_eq!(r.acquire(0, 10), (15, 25));
        assert_eq!(r.free_at(), 25);
    }

    #[test]
    fn idle_gap_is_not_charged() {
        let r = Resource::new("r");
        r.acquire(0, 10);
        // Requested long after the first op finished: starts immediately.
        assert_eq!(r.acquire(100, 10), (100, 110));
        assert_eq!(r.busy_total(), 20);
    }

    #[test]
    fn clones_share_state() {
        let a = Resource::new("r");
        let b = a.clone();
        a.acquire(0, 7);
        assert_eq!(b.free_at(), 7);
    }
}
