//! Virtual-time cooperative scheduler.
//!
//! The paper's HighLight runs several cooperating processes: the
//! application, the regular cleaner, the migrator, the kernel-request
//! service process, and the I/O server (Figure 5). Here each is an
//! [`Actor`]: a state machine that performs some simulated work per step
//! and reports when it next wants to run. The [`Scheduler`] always resumes
//! the actor with the smallest local time, which makes the interleaving —
//! and therefore device contention — deterministic.
//!
//! # Ordering contract
//!
//! Every trace digest in the repository rests on these three rules, and
//! the property test at the bottom of this file holds the run queue to
//! them against a linear-scan reference:
//!
//! 1. **Time-major.** The next actor stepped is a runnable one with the
//!    smallest local time.
//! 2. **Spawn-order-minor.** Among runnable actors at the same local
//!    time, the one spawned first runs first.
//! 3. **Wakes before each pick, in post order.** Every wake posted
//!    through a [`Waker`] since the previous pick is applied, in the
//!    order it was posted, before the next actor is chosen.
//!
//! The run queue is a binary heap keyed `(local time, spawn index)` that
//! holds exactly one entry per runnable actor, so a step costs
//! O(log actors) and allocates nothing: per-request cost follows the
//! request's own events, not the number of connected clients.

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::time::SimTime;

/// The result of stepping an [`Actor`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Step {
    /// The actor has more work; resume it no earlier than the given time.
    Yield(SimTime),
    /// The actor is waiting on an event: it will not be stepped again
    /// until some other actor (or the embedding code) wakes it through a
    /// [`Waker`]. A wake delivered while the actor is running is latched,
    /// so a `Park` that races a wake resumes immediately (no lost
    /// wakeups).
    Park,
    /// The actor has finished; it will not be stepped again.
    Done,
}

/// A stable handle to a spawned actor, used as a wake target.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ActorId(usize);

/// A cloneable wake handle onto a [`Scheduler`].
///
/// Completion events are the one thing a purely time-ordered scheduler
/// cannot express: an actor that drains a queue must not busy-poll for
/// work, and the actor that *fills* the queue knows exactly when work
/// arrived. `Waker::wake(id, at)` makes a parked actor runnable at
/// virtual time `at`. Waking an actor that is not parked latches the
/// wake: its next `Step::Park` converts into `Yield(at)` (the earliest
/// `at` if several were latched).
///
/// Wakes take effect in the order they were posted, all of them before
/// the scheduler picks its next actor (rule 3 of the
/// [ordering contract](self#ordering-contract)); an actor woken at the
/// same time as an already-runnable one still queues behind it only if
/// it was spawned later (rule 2).
///
/// Waking a parked actor at a time *earlier* than where it parked is
/// allowed and rewinds its local clock: a parked server was idle, and an
/// out-of-order request (enqueued by a caller whose virtual clock lags
/// the server's last completion) finds it idle *at the caller's time*.
/// Physical serialization still holds because the device models book
/// their own busy horizons.
#[derive(Clone)]
pub struct Waker {
    inbox: Rc<RefCell<Vec<(ActorId, SimTime)>>>,
}

impl Waker {
    /// Requests that actor `id` be woken at virtual time `at`.
    pub fn wake(&self, id: ActorId, at: SimTime) {
        self.inbox.borrow_mut().push((id, at));
    }

    /// Wakes every actor in `ids` at virtual time `at` (wake-all).
    ///
    /// This is the I/O-server pool's dispatch policy: work pushed onto a
    /// shared queue wakes every lane, each lane takes what its scheduling
    /// rules allow, and lanes with nothing eligible simply re-park. The
    /// alternative — wake-one targeted at the "best" lane — saves a few
    /// no-op steps but forces the producer to reimplement the scheduler's
    /// eligibility rules; wake-all keeps dispatch decisions in exactly
    /// one place and stays deterministic (wakes are drained in order).
    pub fn wake_many(&self, ids: &[ActorId], at: SimTime) {
        let mut inbox = self.inbox.borrow_mut();
        for &id in ids {
            inbox.push((id, at));
        }
    }
}

/// A cooperatively scheduled activity over a shared world `W`.
///
/// `W` is whatever mutable state the actors share: typically the device
/// stack and filesystem under test. Actors receive `&mut W` one at a time,
/// so no locking is needed (the real system's processes synchronized
/// through the kernel; ours synchronize through the scheduler).
pub trait Actor<W> {
    /// Performs one unit of work at local time `now` and says when to
    /// resume. Yielding a time earlier than `now` is treated as `now`.
    fn step(&mut self, world: &mut W, now: SimTime) -> Step;

    /// A short label for error messages.
    fn name(&self) -> &str {
        "actor"
    }
}

/// A run-queue entry: local time in the high half, spawn index in the
/// low half, reversed so the max-heap pops the smallest. One integer
/// compare orders entries time-major, spawn-order-minor — and is a
/// third cheaper per step at 1024 actors than comparing the pair.
fn run_key(at: SimTime, idx: usize) -> Reverse<u128> {
    Reverse(((at as u128) << 64) | idx as u128)
}

/// The `(local time, spawn index)` a [`run_key`] was built from.
fn run_key_parts(Reverse(key): Reverse<u128>) -> (SimTime, usize) {
    ((key >> 64) as SimTime, key as u64 as usize)
}

struct Slot<W> {
    actor: Box<dyn Actor<W>>,
    done: bool,
    parked: bool,
    /// A wake that arrived while the actor was runnable (or running):
    /// consumed by the next `Step::Park` so the wakeup is never lost.
    wake_pending: Option<SimTime>,
}

/// Runs a set of [`Actor`]s to completion in virtual-time order.
///
/// # Examples
///
/// ```
/// use hl_sim::{Actor, Scheduler, Step};
///
/// struct Ticker { left: u32, period: u64 }
/// impl Actor<Vec<u64>> for Ticker {
///     fn step(&mut self, log: &mut Vec<u64>, now: u64) -> Step {
///         log.push(now);
///         self.left -= 1;
///         if self.left == 0 { Step::Done } else { Step::Yield(now + self.period) }
///     }
/// }
///
/// let mut sched = Scheduler::new();
/// sched.spawn_at(0, Ticker { left: 2, period: 10 });
/// sched.spawn_at(5, Ticker { left: 2, period: 10 });
/// let mut log = Vec::new();
/// sched.run(&mut log);
/// assert_eq!(log, vec![0, 5, 10, 15]);
/// ```
pub struct Scheduler<W> {
    slots: Vec<Slot<W>>,
    /// Run queue: exactly one [`run_key`] entry per runnable (not done,
    /// not parked) slot, smallest first; the entry *is* the actor's
    /// local time. A runnable actor's time changes only when it is
    /// stepped — a wake that finds it runnable is latched in
    /// `wake_pending` instead, and `spawn_parked` queues nothing — so no
    /// entry ever goes stale and none needs a tombstone or a generation
    /// stamp.
    runq: BinaryHeap<Reverse<u128>>,
    /// Wakes posted through [`Waker`] handles, drained each iteration.
    inbox: Rc<RefCell<Vec<(ActorId, SimTime)>>>,
    /// The buffer `inbox` is swapped with while its wakes are applied,
    /// so draining allocates nothing.
    wake_buf: Vec<(ActorId, SimTime)>,
    /// Safety valve against actors that never advance time.
    max_steps: u64,
}

impl<W> Default for Scheduler<W> {
    fn default() -> Self {
        Self::new()
    }
}

impl<W> Scheduler<W> {
    /// Creates an empty scheduler.
    pub fn new() -> Self {
        Self {
            slots: Vec::new(),
            runq: BinaryHeap::new(),
            inbox: Rc::new(RefCell::new(Vec::new())),
            wake_buf: Vec::new(),
            max_steps: 500_000_000,
        }
    }

    /// A wake handle for this scheduler's actors. Cloneable; actors (or
    /// shared state they hold) keep one to signal each other.
    pub fn waker(&self) -> Waker {
        Waker {
            inbox: self.inbox.clone(),
        }
    }

    /// Adds an actor that first runs at time `at`. The returned
    /// [`ActorId`] is the actor's wake target.
    pub fn spawn_at<A: Actor<W> + 'static>(&mut self, at: SimTime, actor: A) -> ActorId {
        let id = self.push_slot(false, Box::new(actor));
        self.runq.push(run_key(at, id.0));
        id
    }

    /// Adds an actor in the parked state: it runs only once woken.
    pub fn spawn_parked<A: Actor<W> + 'static>(&mut self, actor: A) -> ActorId {
        self.push_slot(true, Box::new(actor))
    }

    fn push_slot(&mut self, parked: bool, actor: Box<dyn Actor<W>>) -> ActorId {
        self.slots.push(Slot {
            actor,
            done: false,
            parked,
            wake_pending: None,
        });
        ActorId(self.slots.len() - 1)
    }

    /// Applies queued wakes to their target slots, in post order.
    fn drain_wakes(&mut self) {
        if self.inbox.borrow().is_empty() {
            return;
        }
        std::mem::swap(&mut *self.inbox.borrow_mut(), &mut self.wake_buf);
        for (id, at) in self.wake_buf.drain(..) {
            let Some(slot) = self.slots.get_mut(id.0) else {
                continue;
            };
            if slot.done {
                continue;
            }
            if slot.parked {
                slot.parked = false;
                // A parked actor was idle; it resumes at the waker's
                // time even if that rewinds its local clock (devices
                // enforce their own busy horizons).
                self.runq.push(run_key(at, id.0));
            } else {
                slot.wake_pending = Some(match slot.wake_pending {
                    Some(t) => t.min(at),
                    None => at,
                });
            }
        }
    }

    /// Runs until every actor is done *or parked* (quiescence). Returns
    /// the final virtual time (the largest local time reached by any
    /// runnable actor).
    ///
    /// # Panics
    ///
    /// Panics if the step limit is exceeded, which indicates an actor that
    /// yields without ever advancing its local time.
    pub fn run(&mut self, world: &mut W) -> SimTime {
        self.run_until(world, SimTime::MAX)
    }

    /// Runs until all actors are done or parked, or the next runnable
    /// actor's local time exceeds `horizon`. Returns the furthest local
    /// time reached.
    ///
    /// # Panics
    ///
    /// Panics if the step limit is exceeded (a stuck actor).
    pub fn run_until(&mut self, world: &mut W, horizon: SimTime) -> SimTime {
        let mut steps: u64 = 0;
        let mut furthest: SimTime = 0;
        loop {
            self.drain_wakes();
            // Peek first: an actor beyond the horizon keeps its place for
            // the next call.
            let Some((now, idx)) = self.runq.peek().copied().map(run_key_parts) else {
                return furthest;
            };
            if now > horizon {
                return furthest;
            }
            self.runq.pop();
            furthest = furthest.max(now);
            steps += 1;
            assert!(
                steps <= self.max_steps,
                "scheduler exceeded {} steps; actor `{}` appears stuck at t={}",
                self.max_steps,
                self.slots[idx].actor.name(),
                now
            );
            let slot = &mut self.slots[idx];
            let resume = match slot.actor.step(world, now) {
                Step::Yield(t) => Some(t.max(now)),
                Step::Park => {
                    // A latched wake raced the park: stay runnable. The
                    // wake time may legitimately precede `now` (see
                    // [`Waker`]).
                    let latched = slot.wake_pending.take();
                    slot.parked = latched.is_none();
                    latched
                }
                Step::Done => {
                    slot.done = true;
                    None
                }
            };
            if let Some(t) = resume {
                self.runq.push(run_key(t, idx));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    impl<W> Scheduler<W> {
        fn live_actors(&self) -> usize {
            self.slots.iter().filter(|s| !s.done).count()
        }

        fn parked_actors(&self) -> usize {
            self.slots.iter().filter(|s| !s.done && s.parked).count()
        }
    }

    struct Once(SimTime);
    impl Actor<Vec<(SimTime, SimTime)>> for Once {
        fn step(&mut self, log: &mut Vec<(SimTime, SimTime)>, now: SimTime) -> Step {
            log.push((self.0, now));
            Step::Done
        }
    }

    #[test]
    fn runs_in_time_order() {
        let mut s = Scheduler::new();
        s.spawn_at(30, Once(30));
        s.spawn_at(10, Once(10));
        s.spawn_at(20, Once(20));
        let mut log = Vec::new();
        s.run(&mut log);
        assert_eq!(log, vec![(10, 10), (20, 20), (30, 30)]);
    }

    struct Backwards;
    impl Actor<()> for Backwards {
        fn step(&mut self, _w: &mut (), now: SimTime) -> Step {
            if now >= 5 {
                Step::Done
            } else {
                // Tries to travel back in time; scheduler must clamp.
                Step::Yield(now.saturating_sub(10).max(now + 1))
            }
        }
    }

    #[test]
    fn yield_in_past_is_clamped() {
        let mut s = Scheduler::new();
        s.spawn_at(0, Backwards);
        s.run(&mut ());
    }

    struct Stuck;
    impl Actor<()> for Stuck {
        fn step(&mut self, _w: &mut (), now: SimTime) -> Step {
            Step::Yield(now)
        }
        fn name(&self) -> &str {
            "stuck"
        }
    }

    #[test]
    #[should_panic(expected = "stuck")]
    fn runaway_actor_panics() {
        let mut s = Scheduler::new();
        s.max_steps = 100;
        s.spawn_at(0, Stuck);
        s.run(&mut ());
    }

    struct Ticker {
        left: u32,
    }
    impl Actor<()> for Ticker {
        fn step(&mut self, _w: &mut (), now: SimTime) -> Step {
            if self.left == 0 {
                return Step::Done;
            }
            self.left -= 1;
            Step::Yield(now + 100)
        }
    }

    #[test]
    fn horizon_stops_early() {
        let mut s = Scheduler::new();
        s.spawn_at(0, Ticker { left: 1000 });
        let t = s.run_until(&mut (), 250);
        assert_eq!(t, 200);
        assert_eq!(s.live_actors(), 1);
        // Resuming continues from where we stopped.
        let t = s.run(&mut ());
        assert_eq!(t, 100_000);
        assert_eq!(s.live_actors(), 0);
    }

    /// Parks forever; records each time it is stepped.
    struct Server;
    impl Actor<Vec<SimTime>> for Server {
        fn step(&mut self, log: &mut Vec<SimTime>, now: SimTime) -> Step {
            log.push(now);
            Step::Park
        }
    }

    #[test]
    fn parked_actor_runs_only_when_woken() {
        let mut s = Scheduler::new();
        let server = s.spawn_parked(Server);
        let mut log = Vec::new();
        // Quiescence with nothing runnable returns immediately.
        s.run(&mut log);
        assert!(log.is_empty());
        assert_eq!(s.parked_actors(), 1);

        s.waker().wake(server, 42);
        s.run(&mut log);
        assert_eq!(log, vec![42]);
        assert_eq!(s.parked_actors(), 1);

        // A wake earlier than the previous run rewinds the idle server.
        s.waker().wake(server, 7);
        s.run(&mut log);
        assert_eq!(log, vec![42, 7]);
    }

    /// Wakes `target` at `now + 1` on its first step, then finishes.
    struct Poker {
        target: ActorId,
        waker: Waker,
    }
    impl Actor<Vec<SimTime>> for Poker {
        fn step(&mut self, _log: &mut Vec<SimTime>, now: SimTime) -> Step {
            self.waker.wake(self.target, now + 1);
            Step::Done
        }
    }

    #[test]
    fn wake_from_another_actor_is_delivered() {
        let mut s = Scheduler::new();
        let server = s.spawn_parked(Server);
        let waker = s.waker();
        s.spawn_at(
            10,
            Poker {
                target: server,
                waker,
            },
        );
        let mut log = Vec::new();
        s.run(&mut log);
        assert_eq!(log, vec![11]);
    }

    /// Parks after its first step; a wake posted *before* it parks must
    /// not be lost.
    struct RacyParker {
        stepped: u32,
    }
    impl Actor<Vec<SimTime>> for RacyParker {
        fn step(&mut self, log: &mut Vec<SimTime>, now: SimTime) -> Step {
            log.push(now);
            self.stepped += 1;
            if self.stepped >= 2 {
                Step::Done
            } else {
                Step::Park
            }
        }
    }

    #[test]
    fn wake_before_park_is_latched() {
        let mut s = Scheduler::new();
        let id = s.spawn_at(5, RacyParker { stepped: 0 });
        // Wake posted while the actor is still runnable: its upcoming
        // Park must convert into an immediate resume at t=9.
        s.waker().wake(id, 9);
        let mut log = Vec::new();
        s.run(&mut log);
        assert_eq!(log, vec![5, 9]);
    }

    /// Yields twice, then parks; finishes on its next step.
    struct YieldsThenParks {
        stepped: u32,
    }
    impl Actor<Vec<SimTime>> for YieldsThenParks {
        fn step(&mut self, log: &mut Vec<SimTime>, now: SimTime) -> Step {
            log.push(now);
            self.stepped += 1;
            match self.stepped {
                1 | 2 => Step::Yield(now + 50),
                3 => Step::Park,
                _ => Step::Done,
            }
        }
    }

    /// Pins today's behaviour, which the run-queue rewrite must keep: a
    /// latched wake is consumed only by a `Park`, so it survives any
    /// number of `Yield`s and then rewinds the parking actor to the
    /// wake's (by now stale) time. Whether a `Yield` should clear the
    /// latch instead is a follow-up that would move trace digests.
    #[test]
    fn latched_wake_survives_yields_and_rewinds_the_later_park() {
        let mut s = Scheduler::new();
        let id = s.spawn_at(5, YieldsThenParks { stepped: 0 });
        s.waker().wake(id, 9);
        let mut log = Vec::new();
        let end = s.run(&mut log);
        assert_eq!(log, vec![5, 55, 105, 9]);
        assert_eq!(end, 105);
    }

    // ------------------------------------------------------------------
    // Equivalence with the linear-scan scheduler the run queue replaced
    // ------------------------------------------------------------------

    /// The scheduler as it was before the run queue: every pick scans
    /// every slot for the first minimum local time. Kept here, and only
    /// here, as the oracle for the ordering contract.
    struct ScanScheduler<W> {
        slots: Vec<ScanSlot<W>>,
        inbox: Rc<RefCell<Vec<(ActorId, SimTime)>>>,
    }

    struct ScanSlot<W> {
        actor: Box<dyn Actor<W>>,
        local: SimTime,
        done: bool,
        parked: bool,
        wake_pending: Option<SimTime>,
    }

    impl<W> ScanScheduler<W> {
        fn new() -> Self {
            Self {
                slots: Vec::new(),
                inbox: Rc::default(),
            }
        }

        fn waker(&self) -> Waker {
            Waker {
                inbox: self.inbox.clone(),
            }
        }

        fn spawn_at<A: Actor<W> + 'static>(&mut self, at: SimTime, actor: A) -> ActorId {
            self.slots.push(ScanSlot {
                actor: Box::new(actor),
                local: at,
                done: false,
                parked: false,
                wake_pending: None,
            });
            ActorId(self.slots.len() - 1)
        }

        fn spawn_parked<A: Actor<W> + 'static>(&mut self, actor: A) -> ActorId {
            let id = self.spawn_at(0, actor);
            self.slots[id.0].parked = true;
            id
        }

        fn live_actors(&self) -> usize {
            self.slots.iter().filter(|s| !s.done).count()
        }

        fn parked_actors(&self) -> usize {
            self.slots.iter().filter(|s| !s.done && s.parked).count()
        }

        fn run_until(&mut self, world: &mut W, horizon: SimTime) -> SimTime {
            let mut furthest = 0;
            loop {
                let wakes: Vec<_> = self.inbox.borrow_mut().drain(..).collect();
                for (id, at) in wakes {
                    match self.slots.get_mut(id.0) {
                        Some(slot) if slot.done => {}
                        Some(slot) if slot.parked => {
                            slot.parked = false;
                            slot.local = at;
                        }
                        Some(slot) => {
                            slot.wake_pending = Some(slot.wake_pending.map_or(at, |t| t.min(at)))
                        }
                        None => {}
                    }
                }
                let next = self
                    .slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| !s.done && !s.parked)
                    .min_by_key(|(_, s)| s.local)
                    .map(|(i, s)| (i, s.local));
                let Some((idx, now)) = next.filter(|&(_, now)| now <= horizon) else {
                    return furthest;
                };
                furthest = furthest.max(now);
                let slot = &mut self.slots[idx];
                match slot.actor.step(world, now) {
                    Step::Yield(t) => slot.local = t.max(now),
                    Step::Park => match slot.wake_pending.take() {
                        Some(t) => slot.local = t,
                        None => slot.parked = true,
                    },
                    Step::Done => slot.done = true,
                }
            }
        }
    }

    #[derive(Clone, Debug)]
    enum Then {
        Yield(SimTime),
        YieldPast(SimTime),
        Park,
        Done,
    }

    /// One scripted step: post `wakes` (and `wake_many`) as
    /// `(target, offset from now)`, then return `then`. Targets count
    /// modulo one more than the actors spawned, so some wakes name an
    /// actor that does not exist.
    #[derive(Clone, Debug)]
    struct Move {
        wakes: Vec<(usize, i64)>,
        wake_many: Option<(Vec<usize>, i64)>,
        then: Then,
    }

    /// The world both schedulers step: the `(actor, now)` sequence.
    type StepLog = Vec<(usize, SimTime)>;

    struct Scripted {
        me: usize,
        actors: usize,
        moves: std::vec::IntoIter<Move>,
        waker: Waker,
    }

    impl Actor<StepLog> for Scripted {
        fn step(&mut self, log: &mut StepLog, now: SimTime) -> Step {
            log.push((self.me, now));
            let Some(m) = self.moves.next() else {
                return Step::Done;
            };
            let target = |t: usize| ActorId(t % (self.actors + 1));
            for (t, off) in m.wakes {
                self.waker.wake(target(t), now.saturating_add_signed(off));
            }
            if let Some((ts, off)) = m.wake_many {
                let ids: Vec<ActorId> = ts.into_iter().map(target).collect();
                self.waker.wake_many(&ids, now.saturating_add_signed(off));
            }
            match m.then {
                Then::Yield(dt) => Step::Yield(now + dt),
                Then::YieldPast(dt) => Step::Yield(now.saturating_sub(dt)),
                Then::Park => Step::Park,
                Then::Done => Step::Done,
            }
        }
    }

    /// `(start time, or None for spawn_parked; moves)` per actor, and
    /// `(wakes posted from outside, horizon)` per `run_until` call.
    type Script = (
        Vec<(Option<SimTime>, Vec<Move>)>,
        Vec<(Vec<(usize, SimTime)>, SimTime)>,
    );

    /// Plays `script` on `$sched` (either scheduler: same method names)
    /// and returns everything observable: the step sequence, each
    /// call's return value, and the live/parked counts.
    macro_rules! play {
        ($sched:expr, $script:expr) => {{
            let (mut sched, (actors, calls)) = ($sched, $script.clone());
            let n = actors.len();
            for (me, (start, moves)) in actors.into_iter().enumerate() {
                let actor = Scripted {
                    me,
                    actors: n,
                    moves: moves.into_iter(),
                    waker: sched.waker(),
                };
                match start {
                    Some(at) => sched.spawn_at(at, actor),
                    None => sched.spawn_parked(actor),
                };
            }
            let mut log = StepLog::new();
            let mut ends = Vec::new();
            // Every scripted call, then one to quiescence.
            for (wakes, horizon) in calls.into_iter().chain([(Vec::new(), SimTime::MAX)]) {
                for (t, at) in wakes {
                    sched.waker().wake(ActorId(t % (n + 1)), at);
                }
                ends.push(sched.run_until(&mut log, horizon));
            }
            let counts = (sched.live_actors(), sched.parked_actors());
            (log, ends, counts)
        }};
    }

    fn moves() -> impl Strategy<Value = Move> {
        let then = prop_oneof![
            4 => (0u64..6).prop_map(Then::Yield),
            1 => (1u64..20).prop_map(Then::YieldPast),
            3 => Just(Then::Park),
            1 => Just(Then::Done),
        ];
        let wake = || (0usize..8, -9i64..9);
        let wake_many = prop_oneof![
            3 => Just(None),
            1 => (vec(0usize..8, 0..4usize), -9i64..9).prop_map(Some),
        ];
        (vec(wake(), 0..3usize), wake_many, then).prop_map(|(wakes, wake_many, then)| Move {
            wakes,
            wake_many,
            then,
        })
    }

    fn script() -> impl Strategy<Value = Script> {
        let start = prop_oneof![3 => (0u64..10).prop_map(Some), 1 => Just(None)];
        let call = (vec((0usize..8, 0u64..40), 0..3usize), 0u64..60);
        (
            vec((start, vec(moves(), 0..12usize)), 1..7usize),
            vec(call, 0..4usize),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Yield, yield-in-the-past, park, done, cross-actor `wake` and
        /// `wake_many` (earlier than parked, before the park, at an
        /// actor that is gone or never existed), `spawn_parked`, and
        /// `run_until`-then-resume with wakes posted in between: the
        /// run queue steps the same actors at the same times as the
        /// linear scan, returns the same times and leaves the same actors
        /// live and parked.
        #[test]
        fn run_queue_matches_the_linear_scan(script in script()) {
            let heap = play!(Scheduler::new(), script);
            let scan = play!(ScanScheduler::new(), script);
            prop_assert_eq!(heap, scan);
        }
    }
}
