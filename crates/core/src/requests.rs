//! The typed kernel request queue between the filesystem, the service
//! process, and the I/O server (§6.7, Figure 5).
//!
//! In the paper the LFS leaves requests for the user-level service
//! process in kernel queues: demand fetches, copy-outs of sealed cache
//! segments, unilateral ejections, and (our §10 extension) scrub passes.
//! This module is those queues made explicit: a priority-ordered
//! *request queue* the service process drains, and a bounded FIFO
//! *device queue* it feeds the I/O server through. Both hold the same
//! record: one boxed `Request` lives from enqueue to reply — the
//! service process fills in the cache line, volume and ready time it
//! chose and hands *that* request on, as the paper's does. Every request
//! carries its enqueue timestamp, so queue residency — Table 4's
//! "queuing delays" — is measured off the queues themselves rather than
//! charged synthetically.
//!
//! Completion flows back through [`Ticket`]s: a cloneable one-shot cell
//! the enqueuer reads after the engine quiesces (the synchronous façade),
//! or parks on until the engine resolves it (actors on the engine's
//! scheduler, [`Ticket::wait`]). A fetch of a resident segment is
//! answered on the spot, and its ticket carries the answer without a
//! cell. A parked actor registers a token and its [`Inbox`]; resolving
//! the ticket posts the token there before the wake, so an actor
//! holding many open requests answers exactly the ones the engine
//! resolved instead of re-checking each of its tickets — a reply
//! matched to its request. Duplicate fetches of one tertiary
//! segment *coalesce* onto a single ticket, so N concurrent readers cost
//! one media read, observe one `ready_at`, and are woken together, each
//! handed its own token.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::rc::Rc;

use hl_footprint::VolumeId;
use hl_lfs::types::SegNo;
use hl_sim::time::{SimTime, MS};
use hl_sim::ActorId;
use hl_vdev::backing::BlockHashBuilder;
use hl_vdev::DevError;

use crate::fault::HlError;
use crate::service::ScrubReport;

/// CPU cost the service process pays to field one kernel request (line
/// selection, queue bookkeeping, the context switch into the user-level
/// server). This is the genuinely-paid latency behind Table 4's
/// "queuing" row: with event-driven wakes there is no polling slack left,
/// so what remains is the dispatch hop itself.
pub const DISPATCH_CPU: SimTime = 2 * MS;

/// Starvation bound for the volume-affinity device scheduler: once an op
/// has been passed over this many times by younger ops (affinity hits on
/// a loaded platter, or class-preferred work), it *must* be taken next
/// by any lane it is eligible for. This caps a demand fetch's wait at K
/// affinity batches no matter how attractive the loaded volume stays.
const AFFINITY_BOUND: u32 = 4;

/// Request-queue bound (backpressure: enqueuers wait when full).
const REQQ_CAP: usize = 64;

/// Device-queue bound (the service process stalls dispatch when hit).
const DEVQ_CAP: usize = 8;

/// A logical client of the engine, as tagged by the service layer.
/// Untagged requests (`tenant: None`) are kernel-internal work — the
/// migrator, the synchronous façades — and bypass the fair queue
/// entirely, keeping the engine's historical FIFO-within-class order.
pub type TenantId = u32;

/// Starvation bound for the per-tenant fair queue: once a tagged request
/// has been passed over this many times (a fairer tenant picked, or
/// background work held for device-queue headroom), it *must* be taken
/// next within its class. The analogue of [`AFFINITY_BOUND`] one layer
/// up: weighted fairness can reorder, but never unboundedly.
const TENANT_BOUND: u32 = 8;

/// Device-queue slots reserved for foreground traffic: tagged
/// *background* work (prefetch, scrub) is held in the request queue
/// while the device queue has this many or fewer free slots, so one
/// tenant's prefetch storm cannot pack the device pipeline ahead of
/// another tenant's demand fetches. Kernel-internal (untagged) work is
/// exempt.
const QOS_HEADROOM: usize = 2;

/// Stride-scheduling scale: a tenant of weight `w` advances its virtual
/// pass by `STRIDE_SCALE / w` per admitted request, so relative
/// admission rates converge to the weight ratio.
const STRIDE_SCALE: u64 = 1 << 20;

/// Re-dispatch bound for a device op orphaned by drive faults: after this
/// many lane deaths under one op, the engine stops chasing surviving
/// drives and fails the ticket. One attempt per possible lane is enough —
/// more would only delay the inevitable `SegmentUnavailable`.
pub const MAX_REDISPATCH: u32 = 8;

/// Request classes in dispatch-priority order: a blocked reader beats
/// everything, reclaiming pinned lines beats background work, and
/// speculative prefetch/scrub traffic never delays either. The engine
/// and its trace share the one alphabet; a fetch's class is also its
/// fill mode (a `Demand` fill is a timed foreground write the caller
/// waits out, a `Prefetch` fill only delays the line's `ready_at`).
pub use hl_trace::Class as ReqClass;

/// The result a completed request leaves in its [`Ticket`].
#[derive(Clone, Debug)]
pub enum Outcome {
    /// Fetch: the cache line's disk segment and when it is readable.
    Fetch(Result<(SegNo, SimTime), HlError>),
    /// Copy-out: when the segment reached the media.
    CopyOut(Result<SimTime, DevError>),
    /// Ejection: whether a clean line was actually discarded.
    Eject(bool),
    /// Scrub: the pass report.
    Scrub(Box<ScrubReport>),
}

/// A cloneable one-shot completion cell. All coalesced observers of one
/// fetch share a single ticket, so they necessarily agree on `ready_at`.
///
/// The cell is reference-counted: a clone is another handle onto the
/// same outcome, and the cell lives until its last handle drops, so a
/// handle can never observe another request's result. (`Rc` also keeps
/// `Ticket: !Send + !Sync` — the engine is single-threaded.) A fetch the
/// segment cache answers at once (the line is resident) gets a ticket
/// born complete, which holds its disk segment and ready time in place
/// of a cell: nothing is allocated, and it reads exactly as a shared
/// ticket completed with `Outcome::Fetch(Ok((disk_seg, ready)))`.
#[derive(Clone, Debug)]
pub struct Ticket(TicketRepr);

#[derive(Clone, Debug)]
enum TicketRepr {
    /// A cell its handles share, completed by the engine.
    Shared(Rc<RefCell<TicketCell>>),
    /// A resident fetch's `(disk segment, ready time)`.
    Resident(SegNo, SimTime),
}

// Sixteen bytes: a fleet keeps every prefetch ticket it issues.
const _: () = assert!(std::mem::size_of::<Ticket>() == 16);

impl Default for Ticket {
    fn default() -> Ticket {
        Ticket(TicketRepr::Shared(Rc::default()))
    }
}

/// What a [`Ticket`]'s handles share: the outcome once posted, and until
/// then the actors parked on it.
#[derive(Debug, Default)]
struct TicketCell {
    outcome: Option<Outcome>,
    waiters: Waiters,
}

/// A waiter's completion inbox: the tokens of the tickets it waits on
/// that have resolved since it last looked, posted by the engine just
/// before it wakes the waiter. Cloning shares the inbox (each ticket the
/// waiter registers on holds a handle). Once it has grown to the most
/// tokens ever pending at once, posting and popping allocate nothing.
#[derive(Clone, Debug, Default)]
pub struct Inbox(Rc<RefCell<Vec<u64>>>);

impl Inbox {
    /// An empty inbox.
    pub fn new() -> Inbox {
        Inbox::default()
    }

    /// Takes one posted token, the most recently posted first; `None`
    /// when every posted token has been taken.
    #[inline]
    pub fn pop(&self) -> Option<u64> {
        self.0.borrow_mut().pop()
    }

    fn post(&self, token: u64) {
        self.0.borrow_mut().push(token);
    }
}

/// One registration on a ticket: who to wake, and which token to post
/// in which inbox first.
#[derive(Debug)]
struct Waiter {
    id: ActorId,
    inbox: Inbox,
    token: u64,
}

/// The registrations on one ticket, each `(actor, token)` pair once: an
/// actor holding two requests that coalesced onto one ticket registers
/// twice and receives both tokens. The first registration is held
/// inline, so the usual single waiter costs no allocation; a coalesced
/// ticket's further registrations go to `rest`.
#[derive(Debug, Default)]
pub(crate) struct Waiters {
    first: Option<Waiter>,
    rest: Vec<Waiter>,
}

impl Waiters {
    #[inline]
    fn add(&mut self, w: Waiter) {
        match &self.first {
            None => self.first = Some(w),
            Some(f) if (f.id, f.token) == (w.id, w.token) => {}
            Some(_) => self.add_more(w),
        }
    }

    #[cold]
    fn add_more(&mut self, w: Waiter) {
        if !self.rest.iter().any(|r| (r.id, r.token) == (w.id, w.token)) {
            self.rest.push(w);
        }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.first.is_none()
    }

    /// Posts every registered token to its inbox, and calls `wake` once
    /// per registered actor, in registration order.
    pub(crate) fn deliver(self, mut wake: impl FnMut(ActorId)) {
        let Some(first) = self.first else {
            return;
        };
        first.inbox.post(first.token);
        wake(first.id);
        for (i, w) in self.rest.iter().enumerate() {
            w.inbox.post(w.token);
            if w.id != first.id && self.rest[..i].iter().all(|r| r.id != w.id) {
                wake(w.id);
            }
        }
    }
}

impl Ticket {
    /// A fresh, unresolved ticket.
    pub fn new() -> Ticket {
        Ticket::default()
    }

    /// A fetch's ticket, born complete: the line is resident on disk
    /// segment `disk_seg` and readable at `ready`.
    pub(crate) fn resident(disk_seg: SegNo, ready: SimTime) -> Ticket {
        Ticket(TicketRepr::Resident(disk_seg, ready))
    }

    /// [`Ticket::complete`] for out-of-crate tests (the property suite
    /// drives completion without an engine). Nobody is woken.
    #[doc(hidden)]
    pub fn complete_for_test(&self, outcome: Outcome) {
        self.complete(outcome);
    }

    /// Posts the outcome and hands back the actors that were waiting on
    /// it, for the engine to wake (`TioInner::resolve`, the one caller).
    /// Completing twice is a bug in the engine.
    pub(crate) fn complete(&self, outcome: Outcome) -> Waiters {
        let TicketRepr::Shared(cell) = &self.0 else {
            unreachable!("a resident ticket is born complete");
        };
        let mut cell = cell.borrow_mut();
        let prev = cell.outcome.replace(outcome);
        debug_assert!(prev.is_none(), "ticket completed twice");
        std::mem::take(&mut cell.waiters)
    }

    /// Registers actor `id` under `token` and returns `true`: when the
    /// ticket resolves, the engine posts `token` to `inbox` and then
    /// wakes `id`. Returns `false`, registering and posting nothing, when
    /// the ticket has already resolved. The check and the registration
    /// happen under one borrow, so a caller that parks on `true` cannot
    /// miss its wake-up. Registering the same `(id, token)` twice is one
    /// registration; one actor under two tokens receives both, and is
    /// woken once.
    ///
    /// The wake goes through the scheduler that hosts the engine's
    /// actors, so `id` must be an actor of the scheduler the engine was
    /// attached to ([`crate::TertiaryIo::attach_engine`]). A pumped
    /// engine would deliver it to its private scheduler instead; the
    /// engine refuses that in debug builds.
    #[inline]
    pub fn wait(&self, id: ActorId, inbox: &Inbox, token: u64) -> bool {
        let TicketRepr::Shared(cell) = &self.0 else {
            return false;
        };
        let mut cell = cell.borrow_mut();
        if cell.outcome.is_some() {
            return false;
        }
        cell.waiters.add(Waiter {
            id,
            inbox: inbox.clone(),
            token,
        });
        true
    }

    /// `true` once an outcome has been posted.
    pub fn is_done(&self) -> bool {
        match &self.0 {
            TicketRepr::Shared(cell) => cell.borrow().outcome.is_some(),
            TicketRepr::Resident(..) => true,
        }
    }

    /// The posted outcome, if any.
    pub fn outcome(&self) -> Option<Outcome> {
        match &self.0 {
            TicketRepr::Shared(cell) => cell.borrow().outcome.clone(),
            &TicketRepr::Resident(seg, ready) => Some(Outcome::Fetch(Ok((seg, ready)))),
        }
    }

    /// Reads a fetch outcome.
    ///
    /// # Panics
    ///
    /// Panics if the ticket is unresolved (the engine quiesced without
    /// serving it — an engine bug) or holds a different request kind.
    pub fn fetch_result(&self) -> Result<(SegNo, SimTime), HlError> {
        match self.outcome() {
            Some(Outcome::Fetch(r)) => r,
            other => panic!("expected a fetch outcome, found {other:?}"),
        }
    }

    /// Reads a copy-out outcome (panics like [`Self::fetch_result`]).
    pub fn copyout_result(&self) -> Result<SimTime, DevError> {
        match self.outcome() {
            Some(Outcome::CopyOut(r)) => r,
            other => panic!("expected a copy-out outcome, found {other:?}"),
        }
    }

    /// Reads an ejection outcome (panics like [`Self::fetch_result`]).
    pub fn eject_result(&self) -> bool {
        match self.outcome() {
            Some(Outcome::Eject(ok)) => ok,
            other => panic!("expected an eject outcome, found {other:?}"),
        }
    }

    /// Reads a scrub outcome (panics like [`Self::fetch_result`]).
    pub fn scrub_result(&self) -> ScrubReport {
        match self.outcome() {
            Some(Outcome::Scrub(r)) => *r,
            other => panic!("expected a scrub outcome, found {other:?}"),
        }
    }
}

/// The engine's one record: a request from enqueue to reply. It waits
/// in the request queue, the service process fills in the dispatch
/// fields, and the same (still boxed) value waits in the device queue
/// and is executed by an I/O lane.
#[derive(Clone, Debug)]
pub(crate) struct Request {
    /// Dispatch class (also the major priority key, and a fetch's fill
    /// mode).
    pub class: ReqClass,
    /// FIFO tiebreak within a class.
    pub seq: u64,
    /// Target segment (`None` for whole-device work like scrub).
    pub seg: Option<SegNo>,
    /// When the requester enqueued it (queue-residency anchor).
    pub enqueued_at: SimTime,
    /// Trace span opened at enqueue, closed at ticket completion.
    pub span: u64,
    /// The logical client this request belongs to, if the service layer
    /// tagged it. `None` (kernel-internal work) bypasses the fair queue.
    pub tenant: Option<TenantId>,
    /// Completion cell.
    pub ticket: Ticket,
    /// Set at dispatch — the cache line's disk segment (fetches and
    /// copy-outs only).
    pub disk_seg: Option<SegNo>,
    /// Set at dispatch — the target volume (`None` for whole-device work
    /// like scrub): the affinity key the device scheduler batches on.
    pub vol: Option<VolumeId>,
    /// Set at dispatch (and re-dispatch) — when the service process
    /// finished with it; service may start no earlier.
    pub ready_at: SimTime,
    /// How many times a later op was taken over this one in the device
    /// queue (the starvation guard's age; see [`AFFINITY_BOUND`]).
    pub bypassed: u32,
    /// How many times a drive fault orphaned this op and it was pushed
    /// back for another lane (see [`MAX_REDISPATCH`]).
    pub attempts: u32,
}

impl Request {
    /// A request of `class` for `seg`, enqueued at `at` on behalf of
    /// `tenant`, with a fresh ticket and nothing dispatched yet.
    pub fn new(
        class: ReqClass,
        seg: Option<SegNo>,
        at: SimTime,
        tenant: Option<TenantId>,
    ) -> Request {
        Request {
            class,
            seq: 0,
            seg,
            enqueued_at: at,
            span: 0,
            tenant,
            ticket: Ticket::new(),
            disk_seg: None,
            vol: None,
            ready_at: 0,
            bypassed: 0,
            attempts: 0,
        }
    }

    /// The segment this request fetches, if it is a fetch of one.
    pub fn fetch_seg(&self) -> Option<SegNo> {
        match self.class {
            ReqClass::Demand | ReqClass::Prefetch => self.seg,
            _ => None,
        }
    }

    /// Joins a demand observer: the fetch is (now) a foreground fill.
    fn join_demand(&mut self) {
        self.class = ReqClass::Demand;
    }
}

/// `true` for op classes only the writer lane (drive 0) may execute:
/// the paper allocates "one drive for the currently-active write volume"
/// (§7), so copy-outs and scrub re-replication stay off reader drives.
pub(crate) fn write_class(class: ReqClass) -> bool {
    matches!(class, ReqClass::CopyOut | ReqClass::Scrub)
}

/// One request-queue entry: what the picks read, held inline, beside
/// the boxed record that moves on to the device queue. The class,
/// sequence number, enqueue time and tenant are copies of the record's
/// (the class changes in both when a join re-keys a prefetch); the fair
/// queue's own `passed` and `throttled` live here alone.
struct Queued {
    seq: u64,
    enqueued_at: SimTime,
    tenant: Option<TenantId>,
    /// How many times the fair queue passed this request over (a fairer
    /// tenant picked, or a QoS hold); see [`TENANT_BOUND`].
    passed: u32,
    class: ReqClass,
    /// Whether a `TenantThrottle` event was already recorded for this
    /// request (one throttle event per request, not per scan).
    throttled: bool,
    req: Box<Request>,
}

impl Queued {
    /// The queue's sort key: priority-major, FIFO-minor.
    fn key(&self) -> (u8, u64) {
        (self.class as u8, self.seq)
    }
}

/// `true` when `e` must wait for device-queue headroom: a tagged
/// background request under congestion, unless the [`TENANT_BOUND`]
/// starvation guard has already fired for it.
fn qos_held(congested: bool, e: &Queued) -> bool {
    congested
        && e.tenant.is_some()
        && matches!(e.class, ReqClass::Prefetch | ReqClass::Scrub)
        && e.passed < TENANT_BOUND
}

/// The fair pick's candidates from index `head` on: `(index, tenant,
/// passed)` of each ready request of `head`'s class, up to the first
/// ready untagged one.
fn fair_window(
    reqq: &[Queued],
    head: usize,
    now: SimTime,
) -> impl Iterator<Item = (usize, TenantId, u32)> + '_ {
    let class = reqq[head].class;
    reqq[head..]
        .iter()
        .zip(head..)
        .take_while(move |(e, _)| e.class == class)
        .filter(move |(e, _)| e.enqueued_at <= now)
        .map_while(|(e, i)| Some((i, e.tenant?, e.passed)))
}

/// A fetch in flight, as later fetchers of its segment find it.
struct PendingFetch {
    /// Its FIFO sequence number (its request-queue key's minor half).
    seq: u64,
    /// Its trace span: the parent a coalescing join references.
    span: u64,
    /// Its ticket, which every join shares.
    ticket: Ticket,
    /// Whether it is demand-class: queued as a demand, or upgraded by a
    /// demand join. A later demand join then has nothing to upgrade.
    demand: bool,
}

/// The two queues plus the coalescing directory, owned by the engine.
pub(crate) struct EngineQueues {
    /// Priority request queue: one array sorted by `(class, seq)`, so
    /// order is priority-major, FIFO-minor, independent of hash state.
    /// Keys are unique, so it pops in the order a map keyed the same way
    /// would. The picks walk it front to back and read only the inline
    /// fields; a request's box is touched when it is traced or popped.
    /// Reserved to [`REQQ_CAP`] when the engine is built (an attached
    /// engine's fetches may queue past the cap; it then grows).
    reqq: Vec<Queued>,
    next_seq: u64,
    /// Bounded device queue ([`DEVQ_CAP`]) the I/O lanes drain through
    /// [`Self::take_for_drive`]: the requests the service process has
    /// selected a line for, boxed as they left the request queue.
    pub devq: VecDeque<Box<Request>>,
    /// In-flight fetch per tertiary segment: later fetchers of the same
    /// segment join its ticket instead of queuing a duplicate read.
    /// Probed on every demand and never iterated, so it hashes with the
    /// fixed mixer of the block stores.
    pending_fetch: HashMap<SegNo, PendingFetch, BlockHashBuilder>,
    /// Device-scheduler counters: ops taken because their volume was
    /// already loaded in the taking lane's drive.
    pub affinity_hits: u64,
    /// Ops force-taken by the starvation guard after [`AFFINITY_BOUND`]
    /// bypasses.
    pub starvation_promotions: u64,
    /// Per-tenant stride weights (default 1). `BTreeMap` so iteration —
    /// and therefore tie-breaking — is deterministic.
    tenant_weights: BTreeMap<TenantId, u32>,
    /// Per-tenant virtual pass: the tenant with the smallest pass is
    /// admitted next; each admission advances it by `STRIDE_SCALE /
    /// weight`.
    tenant_pass: BTreeMap<TenantId, u64>,
    /// Tagged requests force-taken by the [`TENANT_BOUND`] guard.
    pub tenant_promotions: u64,
    /// The engine's recorder: fair-queue admits and throttles are
    /// emitted here as they are decided, and counted nowhere else.
    tracer: hl_trace::Tracer,
}

impl EngineQueues {
    pub fn new(tracer: hl_trace::Tracer) -> EngineQueues {
        EngineQueues {
            reqq: Vec::with_capacity(REQQ_CAP),
            next_seq: 0,
            devq: VecDeque::new(),
            pending_fetch: HashMap::default(),
            affinity_hits: 0,
            starvation_promotions: 0,
            tenant_weights: BTreeMap::new(),
            tenant_pass: BTreeMap::new(),
            tenant_promotions: 0,
            tracer,
        }
    }

    /// Sets a tenant's fair-queue weight (share of admissions relative
    /// to other tenants; clamped to at least 1).
    pub fn set_tenant_weight(&mut self, tenant: TenantId, weight: u32) {
        self.tenant_weights.insert(tenant, weight.max(1));
    }

    pub fn reqq_len(&self) -> usize {
        self.reqq.len()
    }

    /// The request-queue entry under `key`, mutably (test hook).
    #[cfg(test)]
    fn queued_mut(&mut self, key: (u8, u64)) -> &mut Queued {
        let at = self.reqq.binary_search_by_key(&key, Queued::key);
        &mut self.reqq[at.expect("key is queued")]
    }

    pub fn reqq_full(&self) -> bool {
        self.reqq.len() >= REQQ_CAP
    }

    pub fn devq_full(&self) -> bool {
        self.devq.len() >= DEVQ_CAP
    }

    /// Queues a request, stamping its FIFO sequence number.
    pub fn push(&mut self, mut req: Request) {
        let seq = self.next_seq;
        self.next_seq += 1;
        req.seq = seq;
        if let Some(seg) = req.fetch_seg() {
            let pending = PendingFetch {
                seq,
                span: req.span,
                ticket: req.ticket.clone(),
                demand: req.class == ReqClass::Demand,
            };
            self.pending_fetch.insert(seg, pending);
        }
        let key = (req.class as u8, seq);
        let at = self.reqq.partition_point(|e| e.key() < key);
        let entry = Queued {
            seq,
            enqueued_at: req.enqueued_at,
            tenant: req.tenant,
            passed: 0,
            class: req.class,
            throttled: false,
            req: Box::new(req),
        };
        self.reqq.insert(at, entry);
    }

    /// The in-flight fetch of `seg`, if one exists anywhere in the
    /// pipeline (queued, dispatched, or being served): its trace span
    /// (the live parent a coalescing join references) and its ticket.
    pub fn pending_fetch(&self, seg: SegNo) -> Option<(u64, Ticket)> {
        self.pending_fetch
            .get(&seg)
            .map(|p| (p.span, p.ticket.clone()))
    }

    /// Joins a demand observer onto a pending fetch: if the request is
    /// still queued as a prefetch it is re-keyed to demand priority (and
    /// so becomes a foreground fill); if already dispatched, it is
    /// upgraded in place in the device queue. A fetch already being
    /// served keeps its class — the observers still share its completion
    /// — and may be upgraded by a later join if a drive fault sends it
    /// back to the device queue. A fetch already demand-class is left
    /// alone without a probe.
    ///
    /// Returns `true` only when a prefetch still in the request queue
    /// was re-keyed: the one join that can give the service process
    /// something new to pick (a demand is never QoS-held).
    pub fn upgrade_fetch(&mut self, seg: SegNo) -> bool {
        let Some(pending) = self.pending_fetch.get_mut(&seg).filter(|p| !p.demand) else {
            return false;
        };
        let seq = pending.seq;
        let queued = self
            .reqq
            .binary_search_by_key(&(ReqClass::Prefetch as u8, seq), Queued::key);
        if let Ok(from) = queued {
            // Demand sorts first: the entry moves forward to its demand
            // key's place, the entries in between back by one.
            let to = self
                .reqq
                .partition_point(|e| e.key() < (ReqClass::Demand as u8, seq));
            let e = &mut self.reqq[from];
            e.class = ReqClass::Demand;
            e.req.join_demand();
            self.reqq[to..=from].rotate_right(1);
        } else if let Some(op) = self.devq.iter_mut().find(|op| op.fetch_seg() == Some(seg)) {
            op.join_demand();
        } else {
            // Already being served: the join shares the ticket, nothing
            // to re-prioritize.
            return false;
        }
        pending.demand = true;
        queued.is_ok()
    }

    /// Clears the coalescing entry once a fetch completes or fails.
    pub fn retire_fetch(&mut self, seg: SegNo) {
        self.pending_fetch.remove(&seg);
    }

    /// Removes the best-priority request regardless of its enqueue time.
    /// Only the engine's dead-pool drain uses this: with every lane
    /// retired no request can ever be served, so arrival times no longer
    /// matter — each is failed in priority order.
    pub fn pop_any(&mut self) -> Option<Box<Request>> {
        (!self.reqq.is_empty()).then(|| self.reqq.remove(0).req)
    }

    /// `true` while the device queue has [`QOS_HEADROOM`] or fewer free
    /// slots — the regime where tagged background work is held back so
    /// demand fetches keep a path into the pipeline.
    fn devq_congested(&self) -> bool {
        self.devq.len() + QOS_HEADROOM >= DEVQ_CAP
    }

    /// Advances `tenant`'s virtual pass by one admission's stride.
    fn charge(&mut self, tenant: TenantId) {
        let w = self
            .tenant_weights
            .get(&tenant)
            .copied()
            .unwrap_or(1)
            .max(1) as u64;
        *self.tenant_pass.entry(tenant).or_insert(0) += STRIDE_SCALE / w;
    }

    /// Records that the fair queue deferred the ready tagged requests
    /// among the first `end` entries, in key order: each gets a one-time
    /// `TenantThrottle` event at `now`, and — when another request was
    /// actually admitted past them — a `passed` bump toward the
    /// [`TENANT_BOUND`] starvation guard.
    fn note_deferred(&mut self, end: usize, admitted: bool, now: SimTime) {
        for e in &mut self.reqq[..end] {
            let Some(tenant) = e.tenant.filter(|_| e.enqueued_at <= now) else {
                continue;
            };
            if admitted {
                e.passed += 1;
            }
            if !e.throttled {
                e.throttled = true;
                self.tracer
                    .tenant_throttle(now, tenant, e.class, e.req.span);
            }
        }
    }

    /// Weighted fair pick among the tagged, ready requests of the class
    /// of `head`, the first of them. The candidate window runs from the
    /// head to the first ready *untagged* request of the class: fair
    /// queuing reorders tenants against each other, never past
    /// kernel-internal work, so untagged traffic keeps its historical
    /// FIFO position exactly.
    ///
    /// Selection: a candidate already passed over [`TENANT_BOUND`] times
    /// is taken unconditionally (oldest first); otherwise the tenant with
    /// the smallest virtual pass wins (ties to the lowest tenant id,
    /// FIFO within a tenant) and its pass advances by `STRIDE_SCALE /
    /// weight`. A tenant first seen mid-run starts at the smallest pass
    /// among its current competitors — no credit accrues while absent.
    ///
    /// One walk of the window finds a starved candidate, or each
    /// tenant's first candidate: the best among tenants with a pass, and
    /// the lowest-id one among tenants without. A tenant's pass is read
    /// once, at its first candidate (tenant ids below 64 are remembered
    /// in a bit mask; a larger id is read again, to the same effect).
    /// The best pass is the floor, so a newcomer wins on a lower id. Only
    /// when the window holds a newcomer does a second walk enter it at
    /// the floor. Returns the winner's index.
    fn fair_pick(&mut self, head: usize, now: SimTime) -> usize {
        let mut seen = 0u64;
        let mut known: Option<(u64, TenantId, usize)> = None; // (pass, tenant, index)
        let mut fresh: Option<(TenantId, usize)> = None;
        let mut starved = None;
        for (i, t, passed) in fair_window(&self.reqq, head, now) {
            if passed >= TENANT_BOUND {
                starved = Some((i, t));
                break;
            }
            let bit = 1u64.checked_shl(t).unwrap_or(0);
            if seen & bit != 0 {
                continue;
            }
            seen |= bit;
            match self.tenant_pass.get(&t) {
                Some(&p) => {
                    if known.is_none_or(|(kp, kt, _)| (p, t) < (kp, kt)) {
                        known = Some((p, t, i));
                    }
                }
                None => {
                    if fresh.is_none_or(|(ft, _)| t < ft) {
                        fresh = Some((t, i));
                    }
                }
            }
        }
        if let Some((i, t)) = starved {
            self.tenant_promotions += 1;
            self.charge(t);
            return i;
        }
        let floor = known.map_or(0, |(p, _, _)| p);
        let (t, i) = match (known, fresh) {
            (Some((_, kt, _)), Some((ft, fi))) if ft < kt => (ft, fi),
            (Some((_, kt, ki)), _) => (kt, ki),
            (None, fresh) => fresh.expect("the head request is a candidate"),
        };
        if fresh.is_some() {
            for (_, t, _) in fair_window(&self.reqq, head, now) {
                self.tenant_pass.entry(t).or_insert(floor);
            }
        }
        self.charge(t);
        i
    }

    /// Pops the best-priority request whose enqueue time has arrived.
    ///
    /// Untagged (kernel-internal) requests pop in the engine's historical
    /// priority-major, FIFO-minor order. Tagged requests additionally go
    /// through per-tenant weighted fair queuing within their class
    /// ([`Self::fair_pick`]), and tagged *background* work is held while
    /// the device queue lacks demand headroom ([`QOS_HEADROOM`]) — both
    /// bounded by [`TENANT_BOUND`]. Fair-queue decisions go to the trace
    /// as `TenantThrottle`/`TenantAdmit` events at `now` — in both
    /// outcomes: a fully QoS-held queue still reports its throttles.
    ///
    /// Every ready request keyed before the pick is tagged and deferred:
    /// the held ones lie before the head, and the fair pick's window
    /// holds no ready untagged request before its winner.
    pub fn pop_ready(&mut self, now: SimTime) -> Option<Box<Request>> {
        let congested = self.devq_congested();
        let head = self
            .reqq
            .iter()
            .position(|e| e.enqueued_at <= now && !qos_held(congested, e));
        let Some(head) = head else {
            // Everything ready is QoS-held: surface the throttles, but
            // nothing was admitted past them.
            self.note_deferred(self.reqq.len(), false, now);
            return None;
        };
        let pick = if self.reqq[head].tenant.is_some() {
            self.fair_pick(head, now)
        } else {
            head
        };
        self.note_deferred(pick, true, now);
        let e = self.reqq.remove(pick);
        if let Some(t) = e.tenant {
            self.tracer.tenant_admit(now, t, e.class, e.req.span);
        }
        Some(e.req)
    }

    /// The earliest enqueue time among queued requests (the service
    /// process's next wake-up when nothing is ready yet).
    pub fn next_ready(&self) -> Option<SimTime> {
        self.reqq.iter().map(|e| e.enqueued_at).min()
    }

    /// Volume-affinity dispatch: takes the device-queue op an idle lane
    /// should run next, or `None` if nothing queued is eligible for it.
    ///
    /// `drive` is the lane's home drive, `writer` marks the writer lane
    /// (drive 0 — the only one allowed to run [`write_class`] ops),
    /// `solo` a single-drive pool, and `loaded_all` the volume currently
    /// in each drive. Selection order, replacing strict FIFO
    /// `pop_front`:
    ///
    /// 1. **Starvation guard** — the oldest eligible op bypassed at least
    ///    [`AFFINITY_BOUND`] times is taken unconditionally, so demand
    ///    fetches never wait behind more than K affinity batches.
    /// 2. **Affinity hit** — the oldest eligible op targeting the volume
    ///    this lane's drive already has loaded (no media swap; this is
    ///    what batches ops per platter).
    /// 3. **Class-preferred swap** — the oldest eligible op whose volume
    ///    is loaded nowhere (a fresh swap, not a platter steal), with the
    ///    writer lane preferring write-class work and reader lanes taking
    ///    read-class work, so a demand read does not park the write
    ///    stream's platter unless it has to.
    /// 4. **Any-class fallback** — with no class-preferred work queued,
    ///    an idle lane takes the oldest eligible op for any unloaded
    ///    volume: an idle writer drive serves demand reads rather than
    ///    letting them queue behind a busy reader drive.
    ///
    /// An op for a volume loaded in a *different* drive is left for that
    /// lane's affinity pass (rule 2 there) — unless the starvation guard
    /// fires, in which case any eligible lane takes it and the footprint
    /// routes the transfer to the drive that holds the platter.
    ///
    /// Every eligible op older than the one selected has its `bypassed`
    /// age bumped; rule-2 picks count into `affinity_hits`, rule-1 picks
    /// into `starvation_promotions`. One walk of the device queue finds
    /// each rule's first eligible op and a second ages the ops before
    /// the pick: nothing is collected.
    pub fn take_for_drive(
        &mut self,
        drive: usize,
        writer: bool,
        solo: bool,
        loaded_all: &[Option<VolumeId>],
    ) -> Option<Box<Request>> {
        let loaded = loaded_all.get(drive).copied().flatten();
        let eligible = |op: &Request| writer || !write_class(op.class);
        let unloaded = |op: &Request| op.vol.is_none_or(|v| !loaded_all.contains(&Some(v)));
        // The first eligible op of each rule, in one walk; a starved op
        // decides at once.
        let (mut starved, mut affine, mut fresh_swap, mut any_swap) = (None, None, None, None);
        for (i, op) in self.devq.iter().enumerate().filter(|(_, op)| eligible(op)) {
            if op.bypassed >= AFFINITY_BOUND {
                starved = Some(i);
                break;
            }
            if affine.is_none() && loaded.is_some() && op.vol == loaded {
                affine = Some(i);
            }
            let class_fits = solo || (write_class(op.class) == writer);
            // Write-class ops can run nowhere else: the writer lane
            // takes them even when the platter sits in another drive
            // (the footprint routes to that drive).
            if fresh_swap.is_none()
                && class_fits
                && (unloaded(op) || (write_class(op.class) && writer))
            {
                fresh_swap = Some(i);
            }
            if any_swap.is_none() && unloaded(op) {
                any_swap = Some(i);
            }
        }
        let pick = starved.or(affine).or(fresh_swap).or(any_swap)?;
        if starved == Some(pick) {
            self.starvation_promotions += 1;
        } else if loaded.is_some() && self.devq[pick].vol == loaded {
            self.affinity_hits += 1;
        }
        for op in self.devq.iter_mut().take(pick).filter(|op| eligible(op)) {
            op.bypassed += 1;
        }
        self.devq.remove(pick)
    }
}

/// Host-time probe of the service process's pick, for `micro.rs`: a
/// request queue holding `depth` ready demand requests tagged
/// round-robin over `tenants` tenants, each with an open span. Each call
/// pops one through [`EngineQueues::pop_ready`], closes its span, and
/// queues a fresh request of the popped tenant behind the rest, so the
/// depth holds. Returns the popped request's sequence number.
#[doc(hidden)]
pub fn fair_pick_probe(tenants: u32, depth: u32) -> impl FnMut() -> u64 {
    let mut q = EngineQueues::new(hl_trace::Tracer::new());
    let queue = |q: &mut EngineQueues, tenant| {
        let mut req = Request::new(ReqClass::Demand, None, 0, Some(tenant));
        req.span = q.tracer.open_span(0, req.class, None);
        q.push(req);
    };
    for i in 0..depth {
        queue(&mut q, i % tenants);
    }
    move || {
        let req = q.pop_ready(0).expect("every queued request is ready");
        q.tracer.close_span(0, req.span, true);
        queue(&mut q, req.tenant.expect("tagged"));
        req.seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::collection::vec;
    use proptest::prelude::*;

    fn queues() -> EngineQueues {
        EngineQueues::new(hl_trace::Tracer::new())
    }

    fn req(class: ReqClass, seg: SegNo, at: SimTime) -> Request {
        Request::new(class, Some(seg), at, None)
    }

    fn treq(tenant: TenantId, class: ReqClass, seg: SegNo, at: SimTime) -> Request {
        Request::new(class, Some(seg), at, Some(tenant))
    }

    #[test]
    fn pop_ready_is_priority_major_fifo_minor() {
        let mut q = queues();
        q.push(req(ReqClass::Prefetch, 1, 0));
        q.push(req(ReqClass::Scrub, 2, 0));
        q.push(req(ReqClass::CopyOut, 3, 0));
        q.push(req(ReqClass::Demand, 4, 0));
        q.push(req(ReqClass::CopyOut, 5, 0));
        let order: Vec<ReqClass> = std::iter::from_fn(|| q.pop_ready(0).map(|r| r.class)).collect();
        assert_eq!(
            order,
            vec![
                ReqClass::Demand,
                ReqClass::CopyOut,
                ReqClass::CopyOut,
                ReqClass::Prefetch,
                ReqClass::Scrub
            ]
        );
        // FIFO within a class: seg 3 before seg 5 — verified by seq order
        // (seq assignment is monotonic).
    }

    #[test]
    fn pop_ready_respects_enqueue_times() {
        let mut q = queues();
        q.push(req(ReqClass::Demand, 1, 100));
        q.push(req(ReqClass::Prefetch, 2, 0));
        // At t=0 only the prefetch has arrived, despite lower priority.
        assert_eq!(q.pop_ready(0).unwrap().class, ReqClass::Prefetch);
        assert!(q.pop_ready(50).is_none());
        assert_eq!(q.next_ready(), Some(100));
        assert_eq!(q.pop_ready(100).unwrap().class, ReqClass::Demand);
    }

    #[test]
    fn upgrade_rekeys_a_queued_prefetch() {
        let mut q = queues();
        q.push(req(ReqClass::Prefetch, 7, 0));
        q.push(req(ReqClass::CopyOut, 8, 0));
        q.upgrade_fetch(7);
        let first = q.pop_ready(10).unwrap();
        assert_eq!(first.class, ReqClass::Demand);
    }

    /// A demand join upgrades a prefetch wherever it waits, and the
    /// coalescing entry remembers it; a prefetch being served stays
    /// upgradable, since a drive fault can send it back to the device
    /// queue. Only a re-key in the request queue answers `true`.
    #[test]
    fn upgrade_marks_the_pending_fetch_demand_once_it_lands() {
        let mut q = queues();
        q.push(req(ReqClass::Demand, 1, 0));
        q.push(req(ReqClass::Prefetch, 2, 0));
        q.push(req(ReqClass::Prefetch, 3, 0));
        let demand = |q: &EngineQueues, seg| q.pending_fetch[&seg].demand;
        assert!(demand(&q, 1) && !demand(&q, 2));
        assert!(!q.upgrade_fetch(1), "already demand: nothing re-keyed");
        assert!(q.upgrade_fetch(2), "a queued prefetch is re-keyed");
        assert!(demand(&q, 2));
        assert_eq!(q.pop_ready(0).unwrap().seg, Some(1));
        assert_eq!(q.pop_ready(0).unwrap().seg, Some(2));
        // Seg 3's prefetch leaves the request queue: while a lane serves
        // it, a join has nothing to upgrade.
        let served = q.pop_ready(0).unwrap();
        assert!(!q.upgrade_fetch(3));
        assert!(!demand(&q, 3));
        // Pushed back by a drive fault, it is upgraded in the device
        // queue, where the request queue's picks never see it.
        q.devq.push_back(served);
        assert!(!q.upgrade_fetch(3));
        assert!(demand(&q, 3));
        assert_eq!(q.devq[0].class, ReqClass::Demand);
    }

    #[test]
    fn pending_fetch_shares_one_ticket() {
        let mut q = queues();
        let r = req(ReqClass::Prefetch, 9, 0);
        let t = r.ticket.clone();
        q.push(r);
        let (_span, joined) = q.pending_fetch(9).unwrap();
        t.complete(Outcome::Fetch(Ok((1, 42))));
        assert_eq!(joined.fetch_result().unwrap(), (1, 42));
        q.retire_fetch(9);
        assert!(q.pending_fetch(9).is_none());
    }

    /// A dispatched request for `vol`, as it sits in the device queue.
    fn devop(class: ReqClass, vol: Option<VolumeId>) -> Box<Request> {
        let mut op = Request::new(class, None, 0, None);
        op.vol = vol;
        Box::new(op)
    }

    #[test]
    fn write_class_ops_are_writer_lane_only() {
        let mut q = queues();
        q.devq.push_back(devop(ReqClass::CopyOut, Some(3)));
        assert!(q.take_for_drive(1, false, false, &[None, None]).is_none());
        let op = q.take_for_drive(0, true, false, &[None, None]).unwrap();
        assert_eq!(op.class, ReqClass::CopyOut);
    }

    #[test]
    fn affinity_prefers_the_loaded_platter_and_ages_the_bypassed() {
        let mut q = queues();
        q.devq.push_back(devop(ReqClass::Prefetch, Some(2)));
        q.devq.push_back(devop(ReqClass::Prefetch, Some(7)));
        let op = q.take_for_drive(1, false, false, &[None, Some(7)]).unwrap();
        assert_eq!(op.vol, Some(7), "loaded platter batches first");
        assert_eq!(q.affinity_hits, 1);
        assert_eq!(q.devq[0].bypassed, 1, "passed-over op aged");
    }

    #[test]
    fn starvation_guard_overrides_affinity() {
        let mut q = queues();
        let mut old = devop(ReqClass::Demand, Some(2));
        old.bypassed = AFFINITY_BOUND;
        q.devq.push_back(devop(ReqClass::Prefetch, Some(7)));
        q.devq.push_back(old);
        let op = q.take_for_drive(1, false, false, &[None, Some(7)]).unwrap();
        assert_eq!(op.vol, Some(2), "starved op beats the affinity hit");
        assert_eq!(q.starvation_promotions, 1);
    }

    #[test]
    fn writer_lane_prefers_writes_but_serves_reads_when_idle() {
        let mut q = queues();
        q.devq.push_back(devop(ReqClass::Demand, Some(5)));
        q.devq.push_back(devop(ReqClass::CopyOut, Some(1)));
        // With write work queued, the writer lane takes it first even
        // though the demand read is older …
        let op = q.take_for_drive(0, true, false, &[None, None]).unwrap();
        assert_eq!(op.class, ReqClass::CopyOut);
        // … but once no write work remains, the idle writer serves the
        // read instead of leaving it to queue on the other lane.
        let op = q.take_for_drive(0, true, false, &[None, None]).unwrap();
        assert_eq!(op.class, ReqClass::Demand);
    }

    #[test]
    fn reads_of_platters_loaded_elsewhere_are_left_for_their_lane() {
        let mut q = queues();
        q.devq.push_back(devop(ReqClass::Demand, Some(4)));
        // Volume 4 sits in drive 1: lane 0 leaves the op alone …
        assert!(q.take_for_drive(0, true, false, &[None, Some(4)]).is_none());
        // … and lane 1 takes it as an affinity hit.
        let op = q.take_for_drive(1, false, false, &[None, Some(4)]).unwrap();
        assert_eq!(op.vol, Some(4));
        assert_eq!(q.affinity_hits, 1);
    }

    #[test]
    fn solo_lane_takes_everything_in_affinity_batches() {
        let mut q = queues();
        for i in 0..6 {
            let vol = if i % 2 == 0 { 0 } else { 1 };
            q.devq.push_back(devop(ReqClass::Prefetch, Some(vol)));
        }
        // Volume 0 loaded: the solo lane drains all three vol-0 ops
        // before touching vol 1, amortizing the swap.
        let mut vols = Vec::new();
        while let Some(op) = q.take_for_drive(0, true, true, &[Some(0)]) {
            vols.push(op.vol.unwrap());
        }
        assert_eq!(vols, [0, 0, 0, 1, 1, 1]);
    }

    #[test]
    fn untagged_requests_keep_fifo_order_among_tagged() {
        let mut q = queues();
        q.push(req(ReqClass::Demand, 1, 0)); // untagged head
        q.push(treq(2, ReqClass::Demand, 2, 0));
        q.push(treq(1, ReqClass::Demand, 3, 0));
        q.push(req(ReqClass::Demand, 4, 0)); // untagged tail
                                             // Untagged head pops first (historical FIFO); then the fair
                                             // queue picks among the tagged pair — tenant 1 wins the tie on
                                             // id despite tenant 2's earlier seq — but never reorders past
                                             // the untagged tail.
        let order: Vec<Option<TenantId>> =
            std::iter::from_fn(|| q.pop_ready(0).map(|r| r.tenant)).collect();
        assert_eq!(order, vec![None, Some(1), Some(2), None]);
        assert_eq!(q.tracer.tenant_admits(), 2);
        // Tenant 2's request was passed over once by the fair pick.
        assert_eq!(q.tracer.tenant_throttles(), 1);
    }

    #[test]
    fn stride_weights_shape_admission_shares() {
        let mut q = queues();
        q.set_tenant_weight(1, 3);
        q.set_tenant_weight(2, 1);
        for i in 0..4 {
            q.push(treq(1, ReqClass::Demand, i, 0));
            q.push(treq(2, ReqClass::Demand, 100 + i, 0));
        }
        let order: Vec<TenantId> =
            std::iter::from_fn(|| q.pop_ready(0).map(|r| r.tenant.unwrap())).collect();
        // Weight 3 vs 1: tenant 1 takes three of the first four slots.
        assert_eq!(&order[..4], &[1, 2, 1, 1]);
        assert_eq!(order.iter().filter(|&&t| t == 1).count(), 4);
    }

    #[test]
    fn tenant_bound_overrides_the_fair_pick() {
        let mut q = queues();
        q.push(treq(2, ReqClass::Demand, 1, 0)); // seq 0
        q.push(treq(1, ReqClass::Demand, 2, 0)); // seq 1
                                                 // On a pass tie tenant 1 would win (lower id) — but tenant 2's
                                                 // request has hit the starvation bound and must go first.
        q.queued_mut((ReqClass::Demand as u8, 0)).passed = TENANT_BOUND;
        let r = q.pop_ready(0).unwrap();
        assert_eq!(r.tenant, Some(2), "starved request beats the stride pick");
        assert_eq!(q.tenant_promotions, 1);
        assert_eq!(q.pop_ready(0).unwrap().tenant, Some(1));
    }

    #[test]
    fn congested_devq_holds_tagged_background_work() {
        let mut q = queues();
        q.tracer.retain_events();
        for _ in 0..(DEVQ_CAP - QOS_HEADROOM) {
            q.devq.push_back(devop(ReqClass::Demand, None));
        }
        q.push(treq(3, ReqClass::Prefetch, 1, 0));
        q.push(req(ReqClass::Prefetch, 2, 0));
        // The tagged prefetch is held for headroom; untagged kernel
        // work is exempt and pops through.
        assert_eq!(q.pop_ready(0).unwrap().tenant, None);
        assert!(q.pop_ready(0).is_none(), "tagged background stays held");
        assert_eq!(q.tracer.tenant_throttles(), 1);
        // One throttle event per request, not per scan.
        assert!(q.pop_ready(0).is_none());
        assert_eq!(q.tracer.tenant_throttles(), 1);
        // Headroom restored: the held prefetch is admitted.
        q.devq.pop_front();
        let r = q.pop_ready(7).unwrap();
        assert_eq!(r.tenant, Some(3));
        // Both decisions went to the trace, stamped with their pop.
        use hl_trace::EventKind::{TenantAdmit, TenantThrottle};
        let (tenant, class, span) = (3, ReqClass::Prefetch, 0);
        let throttle = TenantThrottle {
            tenant,
            class,
            span,
        };
        let admit = TenantAdmit {
            tenant,
            class,
            span,
        };
        let events = q.tracer.events();
        let events: Vec<_> = events.iter().map(|e| (e.at, &e.kind)).collect();
        assert_eq!(events, [(0, &throttle), (7, &admit)]);
    }

    #[test]
    fn untagged_only_queues_record_no_tenant_state() {
        let mut q = queues();
        q.push(req(ReqClass::Demand, 1, 0));
        q.push(req(ReqClass::Prefetch, 2, 0));
        while q.pop_ready(0).is_some() {}
        assert!(q.tracer.is_empty(), "untagged pops trace no tenant events");
    }

    #[test]
    fn coalesced_clones_share_one_outcome() {
        let t = Ticket::new();
        let a = t.clone();
        let b = a.clone();
        assert!(!b.is_done());
        t.complete(Outcome::Fetch(Ok((7, 99))));
        assert!(a.is_done() && b.is_done());
        assert_eq!(b.fetch_result().unwrap(), (7, 99));
        drop(t);
        drop(a);
        assert!(b.is_done(), "the cell lives until the last handle drops");
    }

    /// Parks whenever stepped.
    struct Parks;
    impl hl_sim::Actor<()> for Parks {
        fn step(&mut self, _: &mut (), _: SimTime) -> hl_sim::Step {
            hl_sim::Step::Park
        }
    }

    /// A resident ticket reads exactly as a shared ticket completed with
    /// the same fetch outcome, and so do their clones: `wait` registers
    /// nothing and says so, `is_done` holds, and `outcome` and
    /// `fetch_result` give the same value.
    #[test]
    fn a_resident_ticket_reads_as_a_completed_shared_one() {
        let id = hl_sim::Scheduler::<()>::new().spawn_parked(Parks);
        let read = |t: &Ticket| {
            let inbox = Inbox::new();
            let parked = t.wait(id, &inbox, 3);
            let posted = inbox.pop();
            let outcome = format!("{:?}", t.outcome());
            (parked, posted, t.is_done(), outcome, t.fetch_result().ok())
        };
        for (seg, ready) in [(0, 0), (7, 99), (SegNo::MAX, SimTime::MAX)] {
            let shared = Ticket::new();
            assert!(shared.complete(Outcome::Fetch(Ok((seg, ready)))).is_empty());
            let resident = Ticket::resident(seg, ready);
            let want = read(&shared);
            assert_eq!((want.0, want.1, want.2), (false, None, true));
            assert_eq!(want.4, Some((seg, ready)));
            for t in [&resident, &resident.clone(), &shared.clone()] {
                assert_eq!(read(t), want);
            }
        }
    }

    // ------------------------------------------------------------------
    // Equivalence with an independent model of the fair queue
    // ------------------------------------------------------------------

    /// A request as the model keeps it.
    struct ModelReq {
        seg: Option<SegNo>,
        tenant: Option<TenantId>,
        at: SimTime,
        span: u64,
        passed: u32,
        throttled: bool,
    }

    /// The fair queue as `pop_ready`'s and `fair_pick`'s docs state it,
    /// sharing no state with [`EngineQueues`]: a map keyed `(class,
    /// seq)`, its own weights and passes, a device-queue depth and its
    /// own trace. A pop collects the held keys and the window's
    /// candidates into lists before it decides, as the engine did
    /// before its walks went in place.
    struct Model {
        reqq: BTreeMap<(u8, u64), ModelReq>,
        next_seq: u64,
        weights: BTreeMap<TenantId, u32>,
        pass: BTreeMap<TenantId, u64>,
        devq: usize,
        promotions: u64,
        tracer: hl_trace::Tracer,
    }

    impl Model {
        fn charge(&mut self, t: TenantId) {
            let w = self.weights.get(&t).copied().unwrap_or(1).max(1) as u64;
            *self.pass.entry(t).or_insert(0) += STRIDE_SCALE / w;
        }

        fn held(&self, class: u8, r: &ModelReq) -> bool {
            let background = [ReqClass::Prefetch as u8, ReqClass::Scrub as u8].contains(&class);
            self.devq + QOS_HEADROOM >= DEVQ_CAP
                && r.tenant.is_some()
                && background
                && r.passed < TENANT_BOUND
        }

        fn note_deferred(&mut self, keys: &[(u8, u64)], admitted: bool, now: SimTime) {
            for &(class, seq) in keys {
                let r = self
                    .reqq
                    .get_mut(&(class, seq))
                    .expect("a deferred key is queued");
                if admitted {
                    r.passed += 1;
                }
                if !r.throttled {
                    r.throttled = true;
                    let t = r.tenant.expect("deferred requests are tagged");
                    self.tracer
                        .tenant_throttle(now, t, ReqClass::ALL[class as usize], r.span);
                }
            }
        }

        fn fair_pick(&mut self, class: u8, head_seq: u64, now: SimTime) -> (u8, u64) {
            let mut cands: Vec<(u64, TenantId, u32)> = Vec::new();
            for (&(_, seq), r) in self.reqq.range((class, head_seq)..=(class, u64::MAX)) {
                if r.at > now {
                    continue;
                }
                match r.tenant {
                    None => break,
                    Some(t) => cands.push((seq, t, r.passed)),
                }
            }
            if let Some(&(seq, t, _)) = cands.iter().find(|&&(_, _, p)| p >= TENANT_BOUND) {
                self.promotions += 1;
                self.charge(t);
                return (class, seq);
            }
            let floor = cands
                .iter()
                .filter_map(|&(_, t, _)| self.pass.get(&t))
                .min()
                .copied()
                .unwrap_or(0);
            let mut best: Option<(u64, TenantId, u64)> = None;
            for &(seq, t, _) in &cands {
                let pass = *self.pass.entry(t).or_insert(floor);
                match best {
                    Some((bp, bt, _)) if (bp, bt) <= (pass, t) => {}
                    _ => best = Some((pass, t, seq)),
                }
            }
            let (_, t, seq) = best.expect("candidates are non-empty");
            self.charge(t);
            (class, seq)
        }

        fn pop(&mut self, now: SimTime) -> Option<(u8, u64, Option<TenantId>)> {
            let mut head: Option<(u8, u64)> = None;
            let mut held: Vec<(u8, u64)> = Vec::new();
            for (&key, r) in &self.reqq {
                if r.at > now {
                    continue;
                }
                if self.held(key.0, r) {
                    held.push(key);
                    continue;
                }
                head = Some(key);
                break;
            }
            let Some(key) = head else {
                self.note_deferred(&held, false, now);
                return None;
            };
            let (class, head_seq) = key;
            let pick = if self.reqq[&key].tenant.is_some() {
                self.fair_pick(class, head_seq, now)
            } else {
                key
            };
            let mut deferred = held;
            if pick != key {
                deferred.extend(
                    self.reqq
                        .range((class, head_seq)..(class, pick.1))
                        .filter(|&(_, r)| r.at <= now && r.tenant.is_some())
                        .map(|(&k, _)| k),
                );
            }
            self.note_deferred(&deferred, true, now);
            let r = self.reqq.remove(&pick).expect("the picked key is queued");
            if let Some(t) = r.tenant {
                self.tracer
                    .tenant_admit(now, t, ReqClass::ALL[pick.0 as usize], r.span);
            }
            Some((pick.0, pick.1, r.tenant))
        }
    }

    /// What a fair-queue script sees at the end: every queued request's
    /// key, `passed` and `throttled`, the tenants' passes, the
    /// promotions, and the digest of the trace's admits and throttles.
    type FqEnd = (
        Vec<((u8, u64), u32, bool)>,
        BTreeMap<TenantId, u64>,
        u64,
        u64,
    );

    /// What a fair-queue script drives: the engine's queues or the
    /// model.
    trait FairQueue {
        fn start(weights: &[(TenantId, u32)], passes: &[(TenantId, u64)]) -> Self;
        /// Queues `r` as if the fair queue had already passed it over
        /// `passed` times and throttled it or not.
        fn queue(&mut self, r: Request, passed: u32, throttled: bool);
        /// A demand join onto the fetch of `seg`: `true` if it re-keyed
        /// a queued prefetch.
        fn join(&mut self, seg: SegNo) -> bool;
        fn pick(&mut self, now: SimTime) -> Option<(u8, u64, Option<TenantId>)>;
        fn devq_push(&mut self);
        fn devq_pop(&mut self);
        fn end(&self) -> FqEnd;
    }

    impl FairQueue for EngineQueues {
        fn start(weights: &[(TenantId, u32)], passes: &[(TenantId, u64)]) -> Self {
            let mut q = queues();
            for &(t, w) in weights {
                q.set_tenant_weight(t, w);
            }
            q.tenant_pass.extend(passes.iter().copied());
            q
        }

        fn queue(&mut self, r: Request, passed: u32, throttled: bool) {
            let key = (r.class as u8, self.next_seq);
            self.push(r);
            let e = self.queued_mut(key);
            e.passed = passed;
            e.throttled = throttled;
        }

        fn join(&mut self, seg: SegNo) -> bool {
            self.upgrade_fetch(seg)
        }

        fn pick(&mut self, now: SimTime) -> Option<(u8, u64, Option<TenantId>)> {
            self.pop_ready(now)
                .map(|r| (r.class as u8, r.seq, r.tenant))
        }

        fn devq_push(&mut self) {
            if !self.devq_full() {
                self.devq.push_back(devop(ReqClass::Demand, None));
            }
        }

        fn devq_pop(&mut self) {
            self.devq.pop_front();
        }

        fn end(&self) -> FqEnd {
            let left = self
                .reqq
                .iter()
                .map(|e| (e.key(), e.passed, e.throttled))
                .collect();
            let passes = self.tenant_pass.clone();
            (left, passes, self.tenant_promotions, self.tracer.digest())
        }
    }

    impl FairQueue for Model {
        fn start(weights: &[(TenantId, u32)], passes: &[(TenantId, u64)]) -> Self {
            Model {
                reqq: BTreeMap::new(),
                next_seq: 0,
                weights: weights.iter().map(|&(t, w)| (t, w.max(1))).collect(),
                pass: passes.iter().copied().collect(),
                devq: 0,
                promotions: 0,
                tracer: hl_trace::Tracer::new(),
            }
        }

        fn queue(&mut self, r: Request, passed: u32, throttled: bool) {
            let m = ModelReq {
                seg: r.seg,
                tenant: r.tenant,
                at: r.enqueued_at,
                span: r.span,
                passed,
                throttled,
            };
            self.reqq.insert((r.class as u8, self.next_seq), m);
            self.next_seq += 1;
        }

        fn join(&mut self, seg: SegNo) -> bool {
            let prefetch = ReqClass::Prefetch as u8;
            let queued = self
                .reqq
                .iter()
                .find(|&(&(class, _), r)| class == prefetch && r.seg == Some(seg));
            let Some((&(_, seq), _)) = queued else {
                return false;
            };
            let r = self.reqq.remove(&(prefetch, seq)).expect("found above");
            self.reqq.insert((ReqClass::Demand as u8, seq), r);
            true
        }

        fn pick(&mut self, now: SimTime) -> Option<(u8, u64, Option<TenantId>)> {
            self.pop(now)
        }

        fn devq_push(&mut self) {
            self.devq = (self.devq + 1).min(DEVQ_CAP);
        }

        fn devq_pop(&mut self) {
            self.devq = self.devq.saturating_sub(1);
        }

        fn end(&self) -> FqEnd {
            let left = self
                .reqq
                .iter()
                .map(|(&k, r)| (k, r.passed, r.throttled))
                .collect();
            let passes = self.pass.clone();
            (left, passes, self.promotions, self.tracer.digest())
        }
    }

    /// One scripted request: class, tenant, enqueue time, times passed
    /// over, whether already throttled.
    type Scripted = (u8, Option<TenantId>, SimTime, u32, bool);

    /// One step of a fair-queue script.
    #[derive(Clone, Debug)]
    enum FqOp {
        /// Pop at the current time plus this much.
        Pop(SimTime),
        /// Queue another request (its enqueue time relative to now).
        Push(Scripted),
        /// A demand join onto the n-th request queued so far (modulo
        /// their number); only a queued prefetch is re-keyed.
        Join(usize),
        /// Put an op on the device queue (toward congestion).
        DevqPush,
        /// Take one off (toward headroom).
        DevqPop,
    }

    fn scripted() -> impl Strategy<Value = Scripted> {
        (
            0u8..4,
            prop_oneof![1 => Just(None), 3 => (0u32..4).prop_map(Some)],
            0u64..12,
            prop_oneof![2 => Just(0u32), 3 => (TENANT_BOUND - 2)..(TENANT_BOUND + 2)],
            any::<bool>(),
        )
    }

    fn fq_ops() -> impl Strategy<Value = FqOp> {
        prop_oneof![
            6 => (0u64..4).prop_map(FqOp::Pop),
            2 => scripted().prop_map(FqOp::Push),
            1 => (0usize..64).prop_map(FqOp::Join),
            1 => Just(FqOp::DevqPush),
            1 => Just(FqOp::DevqPop),
        ]
    }

    /// A queue as the script starts it: tenant weights and virtual
    /// passes, device-queue depth, and the queued requests.
    type FqStart = (
        Vec<(TenantId, u32)>,
        Vec<(TenantId, u64)>,
        usize,
        Vec<Scripted>,
    );

    fn fq_start() -> impl Strategy<Value = FqStart> {
        (
            vec((0u32..4, 1u32..5), 0..4usize),
            vec((0u32..4, 0u64..4 * STRIDE_SCALE), 0..4usize),
            0..DEVQ_CAP + 1,
            vec(scripted(), 0..24usize),
        )
    }

    /// Plays `ops` on `start`: each pop's pick, each join's answer, and
    /// what the queue holds at the end. Request `n` fetches segment `n`
    /// and opens span `n`.
    #[allow(clippy::type_complexity)]
    fn play<Q: FairQueue>(
        (weights, passes, devq, reqs): &FqStart,
        ops: &[FqOp],
    ) -> (Vec<Option<(u8, u64, Option<TenantId>)>>, Vec<bool>, FqEnd) {
        let mut q = Q::start(weights, passes);
        for _ in 0..*devq {
            q.devq_push();
        }
        let mut now = 0;
        let mut queued = 0;
        let mut queue =
            |q: &mut Q, now: SimTime, &(class, tenant, at, passed, throttled): &Scripted| {
                let class = [
                    ReqClass::Demand,
                    ReqClass::CopyOut,
                    ReqClass::Prefetch,
                    ReqClass::Scrub,
                ][class as usize];
                let mut r = Request::new(class, Some(queued), now + at, tenant);
                r.span = queued as u64;
                queued += 1;
                q.queue(r, passed, throttled);
                queued
            };
        let mut n = 0;
        for r in reqs {
            n = queue(&mut q, now, r);
        }
        let (mut picks, mut joins) = (Vec::new(), Vec::new());
        for op in ops {
            match op {
                FqOp::Pop(dt) => {
                    now += dt;
                    picks.push(q.pick(now));
                }
                FqOp::Push(r) => n = queue(&mut q, now, r),
                FqOp::Join(i) if n > 0 => joins.push(q.join((*i % n as usize) as SegNo)),
                FqOp::Join(_) => {}
                FqOp::DevqPush => q.devq_push(),
                FqOp::DevqPop => q.devq_pop(),
            }
        }
        (picks, joins, q.end())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Tagged and untagged requests of every class, some not yet
        /// arrived, behind a congested or an idle device queue, passed
        /// over near and past [`TENANT_BOUND`], under tenant weights and
        /// preset passes, with demand joins re-keying queued prefetches:
        /// the flat queue picks what the model picks, answers each join
        /// as the model does, and leaves every request's `passed` and
        /// `throttled`, the tenants' passes, the promotions and the
        /// digest of the trace's admits and throttles as the model
        /// leaves them. Seen red, each sabotage alone: deferrals noted
        /// through the pick itself; the held requests' throttles dropped
        /// when nothing is admitted; a pass tie broken to the higher
        /// tenant, among tenants with a pass or between a newcomer and
        /// them; a re-keyed prefetch placed after every queued demand,
        /// or left where it stood; a newcomer not entered at the floor;
        /// a tenant's later candidate skipped before its starvation
        /// check.
        #[test]
        fn the_fair_queue_matches_an_independent_model(
            start in fq_start(),
            ops in vec(fq_ops(), 1..48usize),
        ) {
            prop_assert_eq!(play::<EngineQueues>(&start, &ops), play::<Model>(&start, &ops));
        }
    }

    /// The device scheduler as it was: the eligible ops' indices
    /// collected first, each rule a search of that list.
    fn oracle_take_for_drive(
        q: &mut EngineQueues,
        drive: usize,
        writer: bool,
        solo: bool,
        loaded_all: &[Option<VolumeId>],
    ) -> Option<Box<Request>> {
        let loaded = loaded_all.get(drive).copied().flatten();
        let eligible: Vec<usize> = q
            .devq
            .iter()
            .enumerate()
            .filter(|(_, op)| writer || !write_class(op.class))
            .map(|(i, _)| i)
            .collect();
        let unloaded = |op: &Request| match op.vol {
            None => true,
            Some(v) => !loaded_all.iter().flatten().any(|&lv| lv == v),
        };
        let find = |f: &dyn Fn(&Request) -> bool| eligible.iter().copied().find(|&i| f(&q.devq[i]));
        let starved = find(&|op| op.bypassed >= AFFINITY_BOUND);
        let pick = starved
            .or_else(|| loaded.and_then(|v| find(&|op| op.vol == Some(v))))
            .or_else(|| {
                find(&|op| {
                    let class_fits = solo || (write_class(op.class) == writer);
                    class_fits && (unloaded(op) || (write_class(op.class) && writer))
                })
            })
            .or_else(|| find(&unloaded))?;
        if starved == Some(pick) {
            q.starvation_promotions += 1;
        } else if loaded.is_some() && q.devq[pick].vol == loaded {
            q.affinity_hits += 1;
        }
        for &i in eligible.iter().take_while(|&&i| i < pick) {
            q.devq[i].bypassed += 1;
        }
        q.devq.remove(pick)
    }

    /// `take_for_drive`'s signature, for the scheduler and its oracle.
    type TakeForDrive =
        fn(&mut EngineQueues, usize, bool, bool, &[Option<VolumeId>]) -> Option<Box<Request>>;

    /// A volume, or none (whole-device work).
    fn vol() -> impl Strategy<Value = Option<VolumeId>> {
        prop_oneof![1 => Just(None), 3 => (0u32..4).prop_map(Some)]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Read and write classes, volumes loaded here, elsewhere and
        /// nowhere, ops at and past [`AFFINITY_BOUND`], writer, reader
        /// and solo lanes: taking ops until none is eligible, the
        /// in-place device scheduler takes what the collecting one took,
        /// and leaves the same ages and counters. Seen red, each sabotage
        /// alone: every op before the pick aged, eligible or not; the
        /// affinity rule taking the last op on the loaded volume, not
        /// the first.
        #[test]
        fn the_device_scheduler_matches_the_collecting_one(
            ops in vec((0u8..4, vol(), 0u32..6), 0..DEVQ_CAP + 1),
            loaded_all in vec(vol(), 1..4usize),
            lane in (0usize..4, any::<bool>(), any::<bool>()),
        ) {
            let (drive, writer, solo) = lane;
            let play = |take: TakeForDrive| {
                let mut q = queues();
                for &(class, vol, bypassed) in &ops {
                    let class = [ReqClass::Demand, ReqClass::CopyOut, ReqClass::Prefetch, ReqClass::Scrub][class as usize];
                    let mut op = devop(class, vol);
                    op.bypassed = bypassed;
                    q.devq.push_back(op);
                }
                let mut taken = Vec::new();
                while let Some(op) = take(&mut q, drive, writer, solo, &loaded_all) {
                    taken.push((op.class, op.vol, op.bypassed));
                }
                let left: Vec<_> = q.devq.iter().map(|op| (op.class, op.vol, op.bypassed)).collect();
                (taken, left, q.affinity_hits, q.starvation_promotions)
            };
            prop_assert_eq!(play(EngineQueues::take_for_drive), play(oracle_take_for_drive));
        }
    }
}
