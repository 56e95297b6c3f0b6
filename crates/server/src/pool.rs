//! Worker-pool dispatch variants.
//!
//! Three ways to hand ready connections to server workers, in the shape
//! of the classic thread-pool progression:
//!
//! * [`PoolKind::Naive`] — one worker per connection. No dispatch state
//!   at all; a request wakes exactly its own worker. Thousands of
//!   mostly-idle actors, the baseline the pools are measured against.
//! * [`PoolKind::SharedQueue`] — a fixed worker pool draining one
//!   shared FIFO of ready connection ids. Arrival wakes every worker
//!   (the engine's own wake-all idiom: each takes what it can, the rest
//!   re-park), so the queue head never waits on a sleeping worker.
//! * [`PoolKind::WorkStealing`] — a fixed pool with per-worker deques,
//!   connections keyed to an owner by `id % workers`. A worker drains
//!   its own deque front-first and, when empty, steals from the *back*
//!   of its neighbours' deques scanning from the next index up — the
//!   deterministic version of the usual randomized victim pick.
//!
//! All three run on the deterministic scheduler, so their step
//! interleavings (and thus trace digests) are reproducible run to run.

use std::collections::VecDeque;

/// Which dispatch discipline a fleet's server uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PoolKind {
    /// One worker per connection.
    Naive,
    /// Fixed pool, one shared FIFO, wake-all on arrival.
    SharedQueue,
    /// Fixed pool, per-worker deques, deterministic stealing.
    WorkStealing,
}

impl PoolKind {
    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            PoolKind::Naive => "naive",
            PoolKind::SharedQueue => "shared-queue",
            PoolKind::WorkStealing => "work-stealing",
        }
    }
}

/// Who to wake after a submission.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WakeHint {
    /// Wake only the indicated worker.
    One(usize),
    /// Wake the whole pool.
    All,
}

/// The dispatch state shared by the pool's workers.
pub struct PoolState {
    kind: PoolKind,
    workers: usize,
    /// `SharedQueue`: the one FIFO. Unused otherwise.
    shared: VecDeque<u32>,
    /// `Naive`/`WorkStealing`: per-worker queues.
    local: Vec<VecDeque<u32>>,
    /// Connections stolen off another worker's deque.
    pub steals: u64,
}

impl PoolState {
    /// Dispatch state for `workers` workers (for [`PoolKind::Naive`],
    /// pass one worker per connection).
    pub fn new(kind: PoolKind, workers: usize) -> PoolState {
        assert!(workers > 0, "a pool needs at least one worker");
        PoolState {
            kind,
            workers,
            shared: VecDeque::new(),
            local: vec![VecDeque::new(); workers],
            steals: 0,
        }
    }

    /// Pool width.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The worker that owns connection `conn` (meaningful for `Naive`
    /// and `WorkStealing`).
    fn owner(&self, conn: u32) -> usize {
        conn as usize % self.workers
    }

    /// Marks `conn` ready and says who to wake.
    pub fn submit(&mut self, conn: u32) -> WakeHint {
        match self.kind {
            PoolKind::Naive => {
                let w = self.owner(conn);
                self.local[w].push_back(conn);
                WakeHint::One(w)
            }
            PoolKind::SharedQueue => {
                self.shared.push_back(conn);
                WakeHint::All
            }
            PoolKind::WorkStealing => {
                let owner = self.owner(conn);
                self.local[owner].push_back(conn);
                // Wake-all: an idle neighbour may steal this before the
                // owner gets around to it.
                WakeHint::All
            }
        }
    }

    /// The next connection worker `w` should service, if any.
    pub fn next_for(&mut self, w: usize) -> Option<u32> {
        match self.kind {
            PoolKind::Naive => self.local[w].pop_front(),
            PoolKind::SharedQueue => self.shared.pop_front(),
            PoolKind::WorkStealing => {
                if let Some(c) = self.local[w].pop_front() {
                    return Some(c);
                }
                for d in 1..self.workers {
                    let v = (w + d) % self.workers;
                    if let Some(c) = self.local[v].pop_back() {
                        self.steals += 1;
                        return Some(c);
                    }
                }
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_routes_each_connection_to_its_own_worker() {
        let mut p = PoolState::new(PoolKind::Naive, 4);
        assert_eq!(p.submit(2), WakeHint::One(2));
        assert_eq!(p.submit(6), WakeHint::One(2));
        assert_eq!(p.next_for(2), Some(2));
        assert_eq!(p.next_for(2), Some(6));
        assert_eq!(p.next_for(0), None);
        assert_eq!(p.steals, 0);
    }

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

    #[test]
    fn stealing_scans_neighbours_deterministically() {
        let mut p = PoolState::new(PoolKind::WorkStealing, 3);
        // All work lands on worker 1's deque.
        for c in [1, 4, 7] {
            assert_eq!(p.submit(c), WakeHint::All);
        }
        // Owner drains front-first; worker 2 steals from the back;
        // worker 0 (scanning 1 then 2) steals what's left.
        assert_eq!(p.next_for(1), Some(1));
        assert_eq!(p.next_for(2), Some(7));
        assert_eq!(p.next_for(0), Some(4));
        assert_eq!(p.steals, 2);
    }
}
