//! The disk-resident segment cache (§4, §6.4).
//!
//! "Disk segments can be used to cache tertiary segments. Since the
//! cached segments are almost always read-only copies of the
//! tertiary-resident version, cache management is relatively simple,
//! because read-only lines may be discarded at any time. Caching segments
//! sometimes contain freshly-assembled tertiary segments; they are
//! quickly scheduled for copying out to tertiary storage."
//!
//! The line pool is a static set of disk segments claimed at mount (§6.4:
//! "a static upper limit (selected when the file system is created) is
//! placed on the number of disk segments that may be in use for
//! caching"). The cache directory is "a simple hash table indexed by
//! [the tertiary] segment number" (§6.3): a std `HashMap` keyed with the
//! workspace's fixed mixer (`BlockHashBuilder`). Its iteration order is
//! unspecified, so every reader that decides something from the lines
//! decides by key: the victim pick breaks ties by segment, `eject_all`
//! ejects in segment order and `hlfsck` sorts before it checks.

use std::collections::HashMap;

use hl_lfs::types::SegNo;
use hl_sim::time::SimTime;
use hl_sim::DetRng;
use hl_vdev::backing::BlockHashBuilder;

/// The state of one cache line.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LineState {
    /// Read-only copy of a tertiary segment: discardable at any time.
    Clean,
    /// Being filled by an in-flight tertiary fetch: the line is claimed
    /// (duplicate fetches coalesce onto it) but its data is not yet
    /// readable, so it is pinned and rejects writes like `Clean`.
    Filling,
    /// A staging segment being assembled by the migrator (dirty).
    Staging,
    /// Assembled and awaiting copy-out to tertiary storage (dirty: the
    /// tertiary copy does not exist yet, so the line is pinned).
    DirtyWait,
}

/// One occupied cache line.
#[derive(Clone, Copy, Debug)]
pub struct CacheLine {
    /// The disk segment acting as the line.
    pub disk_seg: SegNo,
    /// The tertiary segment cached (or being assembled) here.
    pub tert_seg: SegNo,
    /// Line state.
    pub state: LineState,
    /// When the line was filled (ejection fuel, §5.4).
    pub fetched_at: SimTime,
    /// When the line's data become readable (later than `fetched_at`
    /// for asynchronous prefetch fills).
    pub ready_at: SimTime,
    /// Last access.
    pub last_used: SimTime,
    /// Accesses since fill (the least-worthy policy promotes on the
    /// second touch, §10).
    pub touches: u32,
}

/// Cache ejection policies (§5.4: "Cache flushing could be handled by any
/// of the standard policies: LRU, random, working-set observations,
/// etc."; §10 adds the least-worthy/MRU hybrid).
#[derive(Clone, Copy, Debug)]
pub enum EjectPolicy {
    /// Least recently used.
    Lru,
    /// Uniform random among clean lines.
    Random(u64),
    /// §10: lines fetched once are "least worthy" and evicted first; a
    /// repeated access promotes a line into the regular LRU pool.
    LeastWorthy,
}

/// Two lookups within this window count as one access *episode*: the
/// burst of per-block translations that serves a single user read (or
/// the fill's own first use) must not masquerade as "repeated access"
/// (§10's promotion criterion).
const EPISODE_GAP: SimTime = 400_000;

/// Cumulative cache counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct CacheStats {
    /// Lookups that found a resident line.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Lines ejected to make room.
    pub ejections: u64,
    /// Allocation attempts that found every line pinned (the caller had
    /// to wait for staging/dirty-wait lines to drain — a policy-visible
    /// contention signal).
    pub stalls: u64,
}

/// The segment cache: a bounded pool of disk segments and the directory
/// mapping tertiary segments onto them.
pub struct SegCache {
    /// Disk segments available as lines, claimed at mount.
    pool: Vec<SegNo>,
    /// Free (unoccupied) pool entries.
    free: Vec<SegNo>,
    /// Cache directory: tertiary segment → line.
    dir: HashMap<SegNo, CacheLine, BlockHashBuilder>,
    policy: EjectPolicy,
    rng: DetRng,
    stats: CacheStats,
    /// Optional trace recorder: every line-state transition is emitted
    /// so the tracecheck state machine can replay it.
    tracer: Option<hl_trace::Tracer>,
    /// Latest simulated time any timed call has mentioned; anchors the
    /// untimed mutators (`set_state`, `eject`, `rekey`) in the trace.
    now_hint: SimTime,
}

/// Maps a [`LineState`] onto the trace's line-tag alphabet.
fn tag(state: LineState) -> hl_trace::LineTag {
    match state {
        LineState::Clean => hl_trace::LineTag::Clean,
        LineState::Filling => hl_trace::LineTag::Filling,
        LineState::Staging => hl_trace::LineTag::Staging,
        LineState::DirtyWait => hl_trace::LineTag::DirtyWait,
    }
}

impl SegCache {
    /// Builds a cache over the given disk-segment pool.
    pub fn new(pool: Vec<SegNo>, policy: EjectPolicy) -> SegCache {
        let seed = match policy {
            EjectPolicy::Random(s) => s,
            _ => 0,
        };
        SegCache {
            free: pool.clone(),
            pool,
            dir: HashMap::default(),
            policy,
            rng: DetRng::new(seed),
            stats: CacheStats::default(),
            tracer: None,
            now_hint: 0,
        }
    }

    /// Attaches a trace recorder: every line-state transition emits a
    /// `line` event, and re-keys emit `rekey` events.
    pub fn set_tracer(&mut self, tracer: hl_trace::Tracer) {
        self.tracer = Some(tracer);
    }

    fn note_time(&mut self, at: SimTime) {
        self.now_hint = self.now_hint.max(at);
    }

    fn trace_line(&self, at: SimTime, seg: SegNo, from: hl_trace::LineTag, to: hl_trace::LineTag) {
        if let Some(t) = &self.tracer {
            t.cache_state(at, seg as u64, from, to);
        }
    }

    /// Pool capacity in lines.
    pub fn capacity(&self) -> usize {
        self.pool.len()
    }

    /// Grows the pool with a freshly claimed disk segment (the cache
    /// warms up lazily toward its static limit, §6.4).
    pub fn add_pool(&mut self, disk_seg: SegNo) {
        self.pool.push(disk_seg);
        self.free.push(disk_seg);
    }

    /// `true` if a free (unoccupied) line exists.
    pub fn has_free(&self) -> bool {
        !self.free.is_empty()
    }

    /// `true` if some clean line could be ejected to make room.
    pub fn has_evictable(&self) -> bool {
        self.dir.values().any(|l| l.state == LineState::Clean)
    }

    /// Re-registers a line recovered from the on-disk cache-directory
    /// tags at mount time (§6.4). The disk segment must already be in the
    /// pool's jurisdiction; it is consumed from the free list if present.
    pub fn restore_line(&mut self, disk_seg: SegNo, tert_seg: SegNo, fetched_at: SimTime) {
        if !self.pool.contains(&disk_seg) {
            self.pool.push(disk_seg);
        }
        self.free.retain(|&s| s != disk_seg);
        self.note_time(fetched_at);
        let from = match self.dir.get(&tert_seg) {
            Some(line) => tag(line.state),
            None => hl_trace::LineTag::Empty,
        };
        self.trace_line(fetched_at, tert_seg, from, hl_trace::LineTag::Clean);
        self.dir.insert(
            tert_seg,
            CacheLine {
                disk_seg,
                tert_seg,
                state: LineState::Clean,
                fetched_at,
                ready_at: fetched_at,
                last_used: fetched_at,
                touches: 0,
            },
        );
    }

    /// Occupied lines.
    pub fn len(&self) -> usize {
        self.dir.len()
    }

    /// `true` if no lines are occupied.
    pub fn is_empty(&self) -> bool {
        self.dir.is_empty()
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Directory lookup *without* touching LRU state (for inspection).
    pub fn peek(&self, tert_seg: SegNo) -> Option<&CacheLine> {
        self.dir.get(&tert_seg)
    }

    /// Directory lookup, recording a hit/miss and refreshing recency.
    /// Touches count per access episode, not per block translation.
    pub fn lookup(&mut self, tert_seg: SegNo, now: SimTime) -> Option<CacheLine> {
        self.note_time(now);
        match self.dir.get_mut(&tert_seg) {
            Some(line) => {
                if now >= line.last_used + EPISODE_GAP {
                    line.touches += 1;
                }
                line.last_used = now;
                self.stats.hits += 1;
                Some(*line)
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// Iterates occupied lines, in an unspecified order: a caller that
    /// decides something from them decides by key.
    pub fn lines(&self) -> impl Iterator<Item = &CacheLine> + '_ {
        self.dir.values()
    }

    /// Picks a line to hold `tert_seg`, ejecting per policy if the pool
    /// is exhausted. Returns the disk segment to fill, plus the ejected
    /// tertiary segment (if any). `None` if every line is pinned
    /// (staging/dirty-wait).
    pub fn allocate(
        &mut self,
        tert_seg: SegNo,
        state: LineState,
        now: SimTime,
    ) -> Option<(SegNo, Option<SegNo>)> {
        debug_assert!(!self.dir.contains_key(&tert_seg), "already cached");
        self.note_time(now);
        let (disk_seg, ejected) = if let Some(d) = self.free.pop() {
            (d, None)
        } else {
            let Some(victim) = self.pick_victim() else {
                self.stats.stalls += 1;
                return None;
            };
            let line = self.dir.remove(&victim).expect("victim listed");
            self.stats.ejections += 1;
            self.trace_line(now, victim, tag(line.state), hl_trace::LineTag::Empty);
            (line.disk_seg, Some(victim))
        };
        self.trace_line(now, tert_seg, hl_trace::LineTag::Empty, tag(state));
        self.dir.insert(
            tert_seg,
            CacheLine {
                disk_seg,
                tert_seg,
                state,
                fetched_at: now,
                ready_at: now,
                last_used: now,
                touches: 0,
            },
        );
        Some((disk_seg, ejected))
    }

    fn pick_victim(&mut self) -> Option<SegNo> {
        // Ties go to the smaller tertiary segment, and the random draw
        // indexes the clean lines sorted by it, so no decision depends on
        // the directory's iteration order.
        let clean = self.dir.values().filter(|l| l.state == LineState::Clean);
        let key = match &self.policy {
            EjectPolicy::Lru => clean.min_by_key(|l| (l.last_used, l.tert_seg))?.tert_seg,
            EjectPolicy::Random(_) => {
                let mut keys: Vec<SegNo> = clean.map(|l| l.tert_seg).collect();
                if keys.is_empty() {
                    return None;
                }
                keys.sort_unstable();
                keys[self.rng.below(keys.len() as u64) as usize]
            }
            EjectPolicy::LeastWorthy => {
                // Untouched-since-fill lines go first (MRU-ish among
                // them: the newest single-use line is the least worthy);
                // otherwise fall back to LRU among promoted lines.
                // "Upon repeated access the cache line would be marked
                // as part of the regular pool" (§10): one re-reference
                // after the fill promotes. One pass keeps both picks.
                let mut unworthy: Option<(SimTime, SegNo)> = None;
                let mut lru: Option<(SimTime, SegNo)> = None;
                for l in clean {
                    if l.touches == 0 {
                        unworthy = unworthy.max(Some((l.fetched_at, l.tert_seg)));
                    }
                    let used = (l.last_used, l.tert_seg);
                    lru = Some(lru.map_or(used, |m| m.min(used)));
                }
                unworthy.or(lru)?.1
            }
        };
        Some(key)
    }

    /// Ejects a specific line, returning its disk segment to the pool.
    pub fn eject(&mut self, tert_seg: SegNo) -> Option<CacheLine> {
        let line = self.dir.remove(&tert_seg)?;
        self.free.push(line.disk_seg);
        self.stats.ejections += 1;
        self.trace_line(
            self.now_hint,
            tert_seg,
            tag(line.state),
            hl_trace::LineTag::Empty,
        );
        Some(line)
    }

    /// Transitions a line's state (e.g. `Staging` → `DirtyWait` when the
    /// migrator seals it, `DirtyWait` → `Clean` once the I/O server has
    /// copied it out).
    pub fn set_state(&mut self, tert_seg: SegNo, state: LineState) {
        let transition = match self.dir.get_mut(&tert_seg) {
            Some(line) if line.state != state => {
                let from = line.state;
                line.state = state;
                Some(from)
            }
            _ => None,
        };
        if let Some(from) = transition {
            self.trace_line(self.now_hint, tert_seg, tag(from), tag(state));
        }
    }

    /// Records when a filled line becomes readable. The first-use access
    /// episode starts here, not at fetch issue, so the fill duration
    /// never counts as a "repeated access".
    pub fn set_ready_at(&mut self, tert_seg: SegNo, ready_at: SimTime) {
        self.note_time(ready_at);
        if let Some(line) = self.dir.get_mut(&tert_seg) {
            line.ready_at = ready_at;
            line.last_used = line.last_used.max(ready_at);
        }
    }

    /// Re-keys a staging line onto a different tertiary segment
    /// (end-of-medium relocation, §6.3).
    pub fn rekey(&mut self, old_tert: SegNo, new_tert: SegNo) {
        if let Some(mut line) = self.dir.remove(&old_tert) {
            line.tert_seg = new_tert;
            self.dir.insert(new_tert, line);
            if let Some(t) = &self.tracer {
                t.cache_rekey(self.now_hint, old_tert as u64, new_tert as u64);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache(n: u32, policy: EjectPolicy) -> SegCache {
        SegCache::new((100..100 + n).collect(), policy)
    }

    #[test]
    fn fills_free_pool_before_ejecting() {
        let mut c = cache(2, EjectPolicy::Lru);
        let (d1, e1) = c.allocate(9001, LineState::Clean, 1).unwrap();
        let (d2, e2) = c.allocate(9002, LineState::Clean, 2).unwrap();
        assert_ne!(d1, d2);
        assert!(e1.is_none() && e2.is_none());
        assert_eq!(c.len(), 2);
        assert_eq!(c.stats().ejections, 0);
    }

    #[test]
    fn lru_ejects_least_recently_used() {
        let mut c = cache(2, EjectPolicy::Lru);
        c.allocate(1, LineState::Clean, 1).unwrap();
        c.allocate(2, LineState::Clean, 2).unwrap();
        c.lookup(1, 10); // line 1 is now the most recent
        let (_, ejected) = c.allocate(3, LineState::Clean, 11).unwrap();
        assert_eq!(ejected, Some(2));
        assert!(c.peek(1).is_some());
    }

    #[test]
    fn pinned_lines_are_never_victims() {
        let mut c = cache(2, EjectPolicy::Lru);
        c.allocate(1, LineState::Staging, 1).unwrap();
        c.allocate(2, LineState::DirtyWait, 2).unwrap();
        assert!(c.allocate(3, LineState::Clean, 3).is_none());
        // Unpin one and retry.
        c.set_state(2, LineState::Clean);
        let (_, ejected) = c.allocate(3, LineState::Clean, 4).unwrap();
        assert_eq!(ejected, Some(2));
    }

    #[test]
    fn least_worthy_prefers_single_use_lines() {
        let mut c = cache(3, EjectPolicy::LeastWorthy);
        c.allocate(1, LineState::Clean, 1).unwrap();
        c.allocate(2, LineState::Clean, 2).unwrap();
        c.allocate(3, LineState::Clean, 3).unwrap();
        // Promote line 2 with a genuine later access episode.
        c.lookup(2, 4 + EPISODE_GAP);
        c.lookup(2, 5 + 2 * EPISODE_GAP);
        // 1 and 3 are single-use; nearly-MRU ejects the newest (3).
        let (_, ejected) = c
            .allocate(4, LineState::Clean, 6 + 3 * EPISODE_GAP)
            .unwrap();
        assert_eq!(ejected, Some(3));
        // The brand-new line 4 is itself least-worthy now: sequential
        // scans recycle the same line instead of flushing the cache —
        // the §10 "bypass the cache on first reference" behaviour.
        let (_, ejected) = c
            .allocate(5, LineState::Clean, 7 + 3 * EPISODE_GAP)
            .unwrap();
        assert_eq!(ejected, Some(4));
        // The promoted line 2 survives the whole scan.
        assert!(c.peek(2).is_some());
    }

    #[test]
    fn random_policy_is_deterministic_per_seed() {
        let run = |seed| {
            let mut c = cache(2, EjectPolicy::Random(seed));
            c.allocate(1, LineState::Clean, 1).unwrap();
            c.allocate(2, LineState::Clean, 2).unwrap();
            c.allocate(3, LineState::Clean, 3).unwrap().1
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn eject_returns_line_to_pool() {
        let mut c = cache(1, EjectPolicy::Lru);
        let (d, _) = c.allocate(1, LineState::Clean, 1).unwrap();
        assert!(c.eject(1).is_some());
        let (d2, e) = c.allocate(2, LineState::Clean, 2).unwrap();
        assert_eq!(d, d2);
        assert!(e.is_none());
        assert!(c.eject(99).is_none());
    }

    #[test]
    fn rekey_moves_staging_lines() {
        let mut c = cache(1, EjectPolicy::Lru);
        c.allocate(10, LineState::Staging, 1).unwrap();
        c.rekey(10, 20);
        assert!(c.peek(10).is_none());
        assert_eq!(c.peek(20).unwrap().state, LineState::Staging);
    }

    #[test]
    fn hit_miss_accounting() {
        let mut c = cache(1, EjectPolicy::Lru);
        assert!(c.lookup(5, 1).is_none());
        c.allocate(5, LineState::Clean, 2).unwrap();
        assert!(c.lookup(5, 3).is_some());
        let s = c.stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    /// The victim pick as it was: every clean line collected and sorted
    /// by tertiary segment, then each policy's pick from that list.
    fn oracle_pick_victim(c: &mut SegCache) -> Option<SegNo> {
        let mut clean: Vec<&CacheLine> = c
            .dir
            .values()
            .filter(|l| l.state == LineState::Clean)
            .collect();
        clean.sort_by_key(|l| l.tert_seg);
        if clean.is_empty() {
            return None;
        }
        let key = match &c.policy {
            EjectPolicy::Lru => clean.iter().min_by_key(|l| l.last_used)?.tert_seg,
            EjectPolicy::Random(_) => {
                let idx = c.rng.below(clean.len() as u64) as usize;
                clean[idx].tert_seg
            }
            EjectPolicy::LeastWorthy => {
                let unworthy = clean
                    .iter()
                    .filter(|l| l.touches == 0)
                    .max_by_key(|l| l.fetched_at);
                match unworthy {
                    Some(l) => l.tert_seg,
                    None => clean.iter().min_by_key(|l| l.last_used)?.tert_seg,
                }
            }
        };
        Some(key)
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Lines in every state, with `last_used` and `fetched_at` drawn
        /// from a few values so ties are common, some touched since
        /// their fill: under each of the three policies, victims picked
        /// and ejected until none is left come in the order the
        /// collect-sort-pick form gave. Seen red, each sabotage alone: a
        /// tie broken to the larger segment under LRU; LeastWorthy's
        /// newest untouched line taken as the first of a tie, not the
        /// last.
        #[test]
        fn victims_match_the_collect_sort_pick(
            lines in proptest::collection::vec((0u32..64, 0u8..4, 0u64..4, 0u64..4, 0u32..3), 0..24usize),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let states = [LineState::Clean, LineState::Filling, LineState::Staging, LineState::DirtyWait];
            for policy in [EjectPolicy::Lru, EjectPolicy::Random(seed), EjectPolicy::LeastWorthy] {
                let victims = |pick: fn(&mut SegCache) -> Option<SegNo>| {
                    let mut c = cache(0, policy);
                    for (i, &(seg, state, fetched_at, last_used, touches)) in lines.iter().enumerate() {
                        let line = CacheLine {
                            disk_seg: i as SegNo,
                            tert_seg: seg,
                            state: states[state as usize],
                            fetched_at,
                            ready_at: fetched_at,
                            last_used,
                            touches,
                        };
                        c.dir.insert(seg, line);
                    }
                    let mut out = Vec::new();
                    while let Some(v) = pick(&mut c) {
                        out.push(v);
                        c.eject(v);
                    }
                    out
                };
                proptest::prop_assert_eq!(victims(SegCache::pick_victim), victims(oracle_pick_victim));
            }
        }
    }
}
