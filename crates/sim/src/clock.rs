//! The shared virtual clock.

use std::cell::Cell;
use std::rc::Rc;

use crate::time::SimTime;

/// A shared, monotonically advancing virtual clock.
///
/// Cloning a [`Clock`] yields another handle to the *same* clock; devices,
/// filesystems, and benchmark drivers all hold handles so that any block
/// I/O anywhere in the stack advances one global notion of time.
///
/// The clock is deliberately single-threaded (`Rc<Cell<_>>`): the whole
/// simulation is deterministic and runs on one host thread.
///
/// # Examples
///
/// ```
/// let clock = hl_sim::Clock::new();
/// let handle = clock.clone();
/// clock.advance_by(250);
/// assert_eq!(handle.now(), 250);
/// ```
#[derive(Clone, Debug, Default)]
pub struct Clock {
    now: Rc<Cell<SimTime>>,
}

impl Clock {
    /// Creates a new clock starting at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Returns the current simulated time.
    pub fn now(&self) -> SimTime {
        self.now.get()
    }

    /// Advances the clock to `t` if `t` is in the future; never moves the
    /// clock backwards.
    pub fn advance_to(&self, t: SimTime) {
        if t > self.now.get() {
            self.now.set(t);
        }
    }

    /// Advances the clock by `dt` microseconds and returns the new time.
    pub fn advance_by(&self, dt: SimTime) -> SimTime {
        let t = self.now.get() + dt;
        self.now.set(t);
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state() {
        let a = Clock::new();
        let b = a.clone();
        a.advance_by(10);
        b.advance_by(5);
        assert_eq!(a.now(), 15);
        assert_eq!(b.now(), 15);
    }

    #[test]
    fn advance_to_is_monotonic() {
        let c = Clock::new();
        c.advance_to(100);
        c.advance_to(50);
        assert_eq!(c.now(), 100);
    }
}
