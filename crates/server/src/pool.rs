//! The worker pool's dispatch state: a fixed pool of workers draining
//! one shared FIFO of ready connection ids, and the list of idle workers
//! a submission wakes from.
//!
//! A submission wakes one idle worker — the idle list's head — and no
//! one when no worker is idle, since a worker drains the whole queue
//! before it parks. A worker leaves the idle list when it is handed out
//! or steps, and rejoins it when it parks. The list is ordered by worker
//! index, so the head is the lowest-index parked worker: the one that
//! would have stepped first, and drained the queue, had the submission
//! woken the whole pool. Which worker serves a connection, and when, is
//! therefore what it was under wake-all; only the workers that would
//! have found nothing and re-parked are no longer stepped. It is the
//! service model of the paper's §6.7, where one service process drains
//! one request queue, with the process widened to a fixed pool. It runs
//! on the deterministic scheduler, so its step interleavings (and thus
//! trace digests) are reproducible run to run.

use std::collections::VecDeque;

/// The dispatch discipline. It has one value; the type stays because
/// `benchmark/src` names it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolKind {
    /// Fixed pool, one shared FIFO, one idle worker woken per arrival.
    SharedQueue,
}

/// What [`PoolState::submit`] answers: always [`WakeHint::All`], "any
/// worker may serve it". The worker to wake comes from
/// [`PoolState::idle_worker`]. The type and both variants stay because
/// `benchmark/src` matches them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeHint {
    /// Wake only the indicated worker.
    One(usize),
    /// Any worker may serve the submission.
    All,
}

/// The dispatch state shared by the pool's workers.
pub struct PoolState {
    shared: VecDeque<u32>,
    /// The idle list as one flag per worker: a worker is on it while
    /// parked and not yet handed out. Its head is the lowest set index.
    idle: Vec<bool>,
}

impl PoolState {
    /// Dispatch state for `workers` workers, every one of them idle.
    pub fn new(_kind: PoolKind, workers: usize) -> PoolState {
        assert!(workers > 0, "a pool needs at least one worker");
        PoolState {
            shared: VecDeque::new(),
            idle: vec![true; workers],
        }
    }

    /// Marks `conn` ready. Wake [`Self::idle_worker`] to serve it.
    pub fn submit(&mut self, conn: u32) -> WakeHint {
        self.shared.push_back(conn);
        WakeHint::All
    }

    /// Hands out the idle list's head, taking it off the list: the one
    /// worker a submission wakes. `None` when no worker is idle.
    pub fn idle_worker(&mut self) -> Option<usize> {
        let w = self.idle.iter().position(|&idle| idle)?;
        self.idle[w] = false;
        Some(w)
    }

    /// Worker `w` steps: it is off the idle list until it parks.
    pub fn stepping(&mut self, w: usize) {
        self.idle[w] = false;
    }

    /// Worker `w` has drained the queue and parks: it rejoins the idle
    /// list.
    pub fn parked(&mut self, w: usize) {
        self.idle[w] = true;
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

    /// A fresh pool hands out each worker once, head first; a worker
    /// that is stepping is never handed out, and is handed out again
    /// once it parks. Seen red, each sabotage alone: the pool starting
    /// with an empty idle list (also strands the one-worker
    /// `fleet::tests::put_round_trips_through_stage_seal_and_copy_out`);
    /// `stepping` leaving the worker on the list.
    #[test]
    fn idle_workers_are_handed_out_once_until_they_park() {
        let mut p = PoolState::new(PoolKind::SharedQueue, 3);
        let fresh: Vec<Option<usize>> = (0..4).map(|_| p.idle_worker()).collect();
        assert_eq!(fresh, [Some(0), Some(1), Some(2), None]);

        p.parked(2);
        p.parked(0);
        p.stepping(0);
        assert_eq!(p.idle_worker(), Some(2), "worker 0 is stepping");
        assert_eq!(p.idle_worker(), None);
        p.parked(0);
        assert_eq!(p.idle_worker(), Some(0), "back on the list once parked");
    }
}
