//! The worker pool's dispatch state: a fixed pool of workers draining
//! one shared FIFO of ready connection ids.
//!
//! Arrival wakes every worker (the engine's own wake-all idiom: each
//! takes what it can, the rest re-park), so the queue head never waits
//! on a sleeping worker. It is the service model of the paper's §6.7,
//! where one service process drains one request queue, with the process
//! widened to a fixed pool. It runs on the deterministic scheduler, so
//! its step interleavings (and thus trace digests) are reproducible run
//! to run.

use std::collections::VecDeque;

/// The dispatch discipline. It has one value; the type stays because
/// `benchmark/src` names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolKind {
    /// Fixed pool, one shared FIFO, wake-all on arrival.
    SharedQueue,
}

/// Who to wake after a submission. [`PoolState::submit`] always answers
/// [`WakeHint::All`]; `benchmark/src` matches both variants.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeHint {
    /// Wake only the indicated worker.
    One(usize),
    /// Wake the whole pool.
    All,
}

/// The dispatch state shared by the pool's workers.
pub struct PoolState {
    shared: VecDeque<u32>,
}

impl PoolState {
    /// Dispatch state for `workers` workers.
    pub fn new(_kind: PoolKind, workers: usize) -> PoolState {
        assert!(workers > 0, "a pool needs at least one worker");
        PoolState {
            shared: VecDeque::new(),
        }
    }

    /// Marks `conn` ready and says who to wake.
    pub fn submit(&mut self, conn: u32) -> WakeHint {
        self.shared.push_back(conn);
        WakeHint::All
    }

    /// The next connection a worker should service, if any.
    pub fn next_for(&mut self, _w: usize) -> Option<u32> {
        self.shared.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_queue_serves_any_worker_in_fifo_order() {
        let mut p = PoolState::new(PoolKind::SharedQueue, 3);
        assert_eq!(p.submit(9), WakeHint::All);
        p.submit(1);
        p.submit(4);
        assert_eq!(p.next_for(2), Some(9));
        assert_eq!(p.next_for(0), Some(1));
        assert_eq!(p.next_for(1), Some(4));
        assert_eq!(p.next_for(0), None);
    }
}
