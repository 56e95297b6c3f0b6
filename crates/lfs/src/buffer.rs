//! The buffer cache.
//!
//! Blocks are cached by *file identity* `(inode, logical block)` rather
//! than by device address, because in an LFS a block's device address
//! changes every time it is rewritten. Dirty blocks are pinned until the
//! segment writer flushes them; clean blocks are evicted LRU. The cache
//! is bounded (the paper's machine had 3.2 MB of buffer cache), and the
//! benchmarks flush it between phases exactly as §7.1 describes.
//!
//! Buffers live in a slab and are threaded on one of two intrusive
//! lists: the *clean* list, least recently refreshed first — its head is
//! the next victim — and the *dirty* list, which the evictor never sees
//! and the segment writer enumerates. A key → slot index finds a buffer.
//! A hit, a miss and an eviction each cost a probe and a few link
//! updates, whatever the cache's size.
//!
//! **Recency contract** (every golden digest depends on it): `get`,
//! `get_mut`, `refresh` and `insert` refresh a buffer; `contains`,
//! `slot`, `mark_dirty`, `mark_clean`, `readdress` and the removals do
//! not. A buffer keeps its last refresh while it is dirty, so
//! `mark_clean` puts it back among the clean buffers where that refresh
//! ranks it — not at the young end.
//!
//! A buffer holds its bytes as a [`Block`] handle, so a block moves
//! between the cache and the devices by reference: a read miss keeps the
//! handle the store lent, and the segment writer hands the cached handle
//! to the store. Bytes are copied in only from a caller's `write` and
//! out only to a caller's `read`. A buffer that shares its bytes — with
//! a store, a staging line, a jukebox slot — is never written in place:
//! [`Block::make_mut`] gives it a private copy first (copy-on-write per
//! block).

use std::collections::hash_map::{Entry, HashMap};

use hl_vdev::backing::BlockHashBuilder;
use hl_vdev::Block;

use crate::types::{BlockAddr, Ino, LBlock};

/// Buffer cache bytes, for the LFS and the FFS baseline alike (3.2 MB, §7).
pub const BUFFER_CACHE_BYTES: u64 = 3_355_443;

/// "No slot": list ends and the end of the free chain.
const NIL: u32 = u32::MAX;
/// Indexes of the two lists, so that `dirty as usize` picks a buffer's.
const CLEAN: usize = 0;
const DIRTY: usize = 1;

/// A cached block.
#[derive(Debug)]
pub struct Buf {
    /// Block contents (one filesystem block), possibly shared with a
    /// device's store: write through [`Block::make_mut`].
    pub data: Block,
    /// The device address this copy was read from / last written to;
    /// `UNASSIGNED` for newly created blocks never yet on media.
    pub addr: BlockAddr,
    /// Which list the buffer is on; changed only by the cache.
    dirty: bool,
    /// Tick of the last refresh; unique among resident buffers.
    last_used: u64,
    key: (Ino, LBlock),
    prev: u32,
    next: u32,
}

impl Buf {
    /// `true` if the block must be written by the segment writer.
    pub fn is_dirty(&self) -> bool {
        self.dirty
    }
}

#[derive(Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
}

impl List {
    const EMPTY: List = List {
        head: NIL,
        tail: NIL,
    };
}

/// The buffers and the lists through them. Free slots hold a handle on
/// `vacant` and chain through `next`.
struct Slab {
    slots: Vec<Buf>,
    lists: [List; 2],
    free: u32,
    /// The empty block a freed slot keeps, so freeing allocates nothing.
    vacant: Block,
}

impl Slab {
    fn unlink(&mut self, s: u32) {
        let b = &self.slots[s as usize];
        let (prev, next, list) = (b.prev, b.next, b.dirty as usize);
        match prev {
            NIL => self.lists[list].head = next,
            p => self.slots[p as usize].next = next,
        }
        match next {
            NIL => self.lists[list].tail = prev,
            n => self.slots[n as usize].prev = prev,
        }
    }

    /// Links `s` into its list behind `prev` (`NIL`: at the head).
    fn link_after(&mut self, s: u32, prev: u32) {
        let list = self.slots[s as usize].dirty as usize;
        let next = match prev {
            NIL => std::mem::replace(&mut self.lists[list].head, s),
            p => std::mem::replace(&mut self.slots[p as usize].next, s),
        };
        match next {
            NIL => self.lists[list].tail = s,
            n => self.slots[n as usize].prev = s,
        }
        let b = &mut self.slots[s as usize];
        (b.prev, b.next) = (prev, next);
    }

    fn push_tail(&mut self, s: u32) {
        let list = self.slots[s as usize].dirty as usize;
        self.link_after(s, self.lists[list].tail);
    }

    /// Stores an unlinked buffer, reusing a free slot if there is one.
    fn store(&mut self, buf: Buf) -> u32 {
        match self.free {
            NIL => {
                self.slots.push(buf);
                (self.slots.len() - 1) as u32
            }
            s => {
                self.free = self.slots[s as usize].next;
                self.slots[s as usize] = buf;
                s
            }
        }
    }

    /// Unlinks `s`, drops its block and frees the slot.
    fn release(&mut self, s: u32) {
        self.unlink(s);
        let b = &mut self.slots[s as usize];
        b.data.clone_from(&self.vacant);
        b.next = self.free;
        self.free = s;
    }

    /// The buffers of one list, head first.
    fn walk(&self, list: usize) -> impl Iterator<Item = &Buf> + '_ {
        let mut s = self.lists[list].head;
        std::iter::from_fn(move || {
            if s == NIL {
                return None;
            }
            let b = &self.slots[s as usize];
            s = b.next;
            Some(b)
        })
    }
}

/// Where a resident buffer lives: found by [`BufCache::slot`], used by
/// [`BufCache::refresh`], so a caller that tests for a block and then
/// takes it probes the index once. Valid until the next insert or
/// removal.
#[derive(Clone, Copy)]
pub(crate) struct Slot(u32);

/// Bounded `(ino, lblock)`-keyed block cache with dirty pinning.
pub struct BufCache {
    index: HashMap<(Ino, LBlock), u32, BlockHashBuilder>,
    slab: Slab,
    capacity_blocks: usize,
    block_size: usize,
    tick: u64,
}

impl BufCache {
    /// Creates a cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: u64, block_size: usize) -> BufCache {
        BufCache {
            index: HashMap::default(),
            slab: Slab {
                slots: Vec::new(),
                lists: [List::EMPTY; 2],
                free: NIL,
                vacant: Block::zeroed(0),
            },
            capacity_blocks: (capacity_bytes as usize / block_size).max(8),
            block_size,
            tick: 0,
        }
    }

    /// Resident block count.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// `true` if no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// `true` when the cache holds more blocks than its capacity.
    pub fn over_capacity(&self) -> bool {
        self.index.len() > self.capacity_blocks
    }

    /// `true` if the block is resident. Does not refresh it: for presence
    /// tests whose hit path goes on to `get` the same block.
    pub fn contains(&self, ino: Ino, lb: LBlock) -> bool {
        self.index.contains_key(&(ino, lb))
    }

    /// Looks up a block, refreshing its LRU position.
    pub fn get(&mut self, ino: Ino, lb: LBlock) -> Option<&Buf> {
        self.get_mut(ino, lb).map(|b| &*b)
    }

    /// Looks up a block mutably, refreshing its LRU position (does not
    /// change dirtiness by itself: follow with [`BufCache::mark_dirty`]).
    pub fn get_mut(&mut self, ino: Ino, lb: LBlock) -> Option<&mut Buf> {
        let s = self.slot(ino, lb)?;
        Some(self.refresh(s))
    }

    /// The slot of a resident block, without refreshing it.
    pub(crate) fn slot(&self, ino: Ino, lb: LBlock) -> Option<Slot> {
        self.index.get(&(ino, lb)).map(|&s| Slot(s))
    }

    /// The buffer in `slot`, refreshing its LRU position: the half of
    /// [`BufCache::get_mut`] after the probe.
    pub(crate) fn refresh(&mut self, Slot(s): Slot) -> &mut Buf {
        self.tick += 1;
        let b = &self.slab.slots[s as usize];
        // A dirty buffer's place on its list means nothing, and the
        // youngest clean buffer is already where a refresh would put it.
        if !b.dirty && b.next != NIL {
            self.slab.unlink(s);
            self.slab.push_tail(s);
        }
        let b = &mut self.slab.slots[s as usize];
        b.last_used = self.tick;
        b
    }

    /// Inserts (or replaces) a block.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block.
    pub fn insert(&mut self, ino: Ino, lb: LBlock, data: Block, dirty: bool, addr: BlockAddr) {
        assert_eq!(data.len(), self.block_size, "buffer must be one block");
        self.tick += 1;
        let buf = Buf {
            data,
            addr,
            dirty,
            last_used: self.tick,
            key: (ino, lb),
            prev: NIL,
            next: NIL,
        };
        let s = match self.index.entry((ino, lb)) {
            Entry::Occupied(e) => {
                let s = *e.get();
                self.slab.unlink(s);
                self.slab.slots[s as usize] = buf;
                s
            }
            Entry::Vacant(e) => *e.insert(self.slab.store(buf)),
        };
        self.slab.push_tail(s);
    }

    /// Marks a resident block dirty.
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident — dirtying data the cache does
    /// not hold is always a caller bug.
    pub fn mark_dirty(&mut self, ino: Ino, lb: LBlock) {
        let s = *self
            .index
            .get(&(ino, lb))
            .expect("mark_dirty on non-resident block");
        if !self.slab.slots[s as usize].dirty {
            self.slab.unlink(s);
            self.slab.slots[s as usize].dirty = true;
            self.slab.push_tail(s);
        }
    }

    /// After the segment writer persists a block: record its new device
    /// address and unpin it. No-op if the block was evicted meanwhile
    /// (cannot happen for dirty blocks, which are pinned).
    pub fn mark_clean(&mut self, ino: Ino, lb: LBlock, addr: BlockAddr) {
        let Some(&s) = self.index.get(&(ino, lb)) else {
            return;
        };
        self.slab.slots[s as usize].addr = addr;
        if !self.slab.slots[s as usize].dirty {
            return;
        }
        self.slab.unlink(s);
        let slots = &mut self.slab.slots;
        slots[s as usize].dirty = false;
        // Back among the clean buffers at the rank of its last refresh.
        // The writer reads each block it is about to clean, so the walk
        // from the young end is short.
        let used = slots[s as usize].last_used;
        let mut prev = self.slab.lists[CLEAN].tail;
        while prev != NIL && slots[prev as usize].last_used > used {
            prev = slots[prev as usize].prev;
        }
        self.slab.link_after(s, prev);
    }

    /// Records that a resident block's media copy moved without being
    /// rewritten (end-of-medium relocation, §6.3). Dirtiness and LRU
    /// position are untouched: a dirty copy still owes a log write, and
    /// that write must retire the copy at its *new* address.
    pub fn readdress(&mut self, ino: Ino, lb: LBlock, addr: BlockAddr) {
        if let Some(&s) = self.index.get(&(ino, lb)) {
            self.slab.slots[s as usize].addr = addr;
        }
    }

    /// Removes a block outright (truncate/unlink paths).
    pub fn remove(&mut self, ino: Ino, lb: LBlock) {
        if let Some(s) = self.index.remove(&(ino, lb)) {
            self.slab.release(s);
        }
    }

    fn remove_slot(&mut self, s: u32) {
        self.index.remove(&self.slab.slots[s as usize].key);
        self.slab.release(s);
    }

    /// Removes every buffer of `list` that `doomed` selects.
    fn purge(&mut self, list: usize, doomed: impl Fn(&Buf) -> bool) {
        let mut s = self.slab.lists[list].head;
        while s != NIL {
            let b = &self.slab.slots[s as usize];
            let next = b.next;
            if doomed(b) {
                self.remove_slot(s);
            }
            s = next;
        }
    }

    /// Removes every block belonging to `ino`.
    pub fn remove_file(&mut self, ino: Ino) {
        self.purge(CLEAN, |b| b.key.0 == ino);
        self.purge(DIRTY, |b| b.key.0 == ino);
    }

    /// The dirty blocks as `(ino, lblock, addr)`, in no particular order.
    pub fn dirty_blocks(&self) -> impl Iterator<Item = (Ino, LBlock, BlockAddr)> + '_ {
        self.slab.walk(DIRTY).map(|b| (b.key.0, b.key.1, b.addr))
    }

    /// All dirty block keys, grouped by inode, inodes ascending and
    /// blocks in logical order — the order the segment writer lays files
    /// out (§3: LFS sorts a file's dirty blocks to keep them contiguous).
    pub fn dirty_keys(&self) -> Vec<(Ino, Vec<LBlock>)> {
        let mut keys: Vec<(Ino, LBlock)> = self.slab.walk(DIRTY).map(|b| b.key).collect();
        keys.sort_unstable();
        let mut out: Vec<(Ino, Vec<LBlock>)> = Vec::new();
        for (ino, lb) in keys {
            match out.last_mut() {
                Some((i, blocks)) if *i == ino => blocks.push(lb),
                _ => out.push((ino, vec![lb])),
            }
        }
        out
    }

    /// Evicts clean blocks (LRU first) until the cache is within
    /// capacity. Returns how many were evicted; dirty blocks are never
    /// evicted, so the cache may remain over capacity until a flush.
    pub fn shrink_to_capacity(&mut self) -> usize {
        let mut evicted = 0;
        while self.over_capacity() && self.slab.lists[CLEAN].head != NIL {
            self.remove_slot(self.slab.lists[CLEAN].head);
            evicted += 1;
        }
        evicted
    }

    /// Drops every clean block (the paper's "buffer cache is flushed
    /// before each operation", §7.1). Dirty blocks stay pinned.
    pub fn drop_clean(&mut self) {
        self.purge(CLEAN, |_| true);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Marker address for brand-new blocks.
    const NEW_BLOCK: BlockAddr = crate::types::UNASSIGNED;

    fn block(fill: u8) -> Block {
        Block::copy_of(&[fill; 4096])
    }

    fn cache(capacity_blocks: usize) -> BufCache {
        BufCache::new(capacity_blocks as u64 * 4096, 4096)
    }

    #[test]
    fn insert_get_round_trip() {
        let mut c = cache(10);
        c.insert(5, LBlock::Data(0), block(7), false, 100);
        let b = c.get(5, LBlock::Data(0)).unwrap();
        assert_eq!(b.data[0], 7);
        assert_eq!(b.addr, 100);
        assert!(!b.is_dirty());
        assert!(c.get(5, LBlock::Data(1)).is_none());
    }

    #[test]
    fn lru_evicts_oldest_clean_block() {
        let mut c = cache(8);
        for i in 0..9 {
            c.insert(1, LBlock::Data(i), block(i as u8), false, i);
        }
        // Touch block 0 so block 1 becomes the LRU victim.
        c.get(1, LBlock::Data(0));
        assert!(c.over_capacity());
        assert_eq!(c.shrink_to_capacity(), 1);
        assert!(c.get(1, LBlock::Data(0)).is_some());
        assert!(c.get(1, LBlock::Data(1)).is_none());
    }

    #[test]
    fn dirty_blocks_are_pinned() {
        let mut c = cache(8);
        for i in 0..9 {
            c.insert(1, LBlock::Data(i), block(i as u8), true, NEW_BLOCK);
        }
        assert_eq!(c.shrink_to_capacity(), 0);
        assert_eq!(c.len(), 9);
        c.drop_clean();
        assert_eq!(c.len(), 9);
        c.mark_clean(1, LBlock::Data(0), 55);
        assert_eq!(c.shrink_to_capacity(), 1);
    }

    #[test]
    fn dirty_keys_are_grouped_and_sorted() {
        let mut c = cache(20);
        c.insert(9, LBlock::Data(5), block(0), true, NEW_BLOCK);
        c.insert(9, LBlock::Ind1, block(0), true, NEW_BLOCK);
        c.insert(9, LBlock::Data(1), block(0), true, NEW_BLOCK);
        c.insert(3, LBlock::Data(0), block(0), true, NEW_BLOCK);
        c.insert(3, LBlock::Data(7), block(0), false, 10);
        let keys = c.dirty_keys();
        assert_eq!(keys.len(), 2);
        assert_eq!(keys[0].0, 3);
        assert_eq!(keys[0].1, vec![LBlock::Data(0)]);
        assert_eq!(keys[1].0, 9);
        // Data blocks sort before indirect variants in the enum order.
        assert_eq!(
            keys[1].1,
            vec![LBlock::Data(1), LBlock::Data(5), LBlock::Ind1]
        );
    }

    #[test]
    fn remove_file_purges_all_blocks() {
        let mut c = cache(20);
        c.insert(4, LBlock::Data(0), block(0), true, NEW_BLOCK);
        c.insert(4, LBlock::Data(1), block(0), false, 3);
        c.insert(5, LBlock::Data(0), block(0), false, 4);
        c.remove_file(4);
        assert_eq!(c.len(), 1);
        assert!(c.get(5, LBlock::Data(0)).is_some());
    }

    #[test]
    #[should_panic(expected = "non-resident")]
    fn mark_dirty_missing_panics() {
        let mut c = cache(4);
        c.mark_dirty(1, LBlock::Data(0));
    }

    // -----------------------------------------------------------------
    // Differential test against the evictor this module replaced.
    //
    // Seen to go red under each of these sabotages of the code above:
    //  - `get_mut` does not refresh (no relink, no new tick);
    //  - `shrink_to_capacity` falls back to the dirty list's head when
    //    no clean buffer is left (evicts a dirty buffer);
    //  - `mark_clean` links at the clean list's tail (a refresh) instead
    //    of at the rank of the buffer's last refresh;
    //  - `insert` over a resident key overwrites the slot without
    //    unlinking it first;
    //  - `mark_dirty` leaves the buffer on the clean list;
    //  - `remove` forgets to free the slot.
    // -----------------------------------------------------------------

    type Key = (Ino, LBlock);
    /// What the two caches must agree on, per resident buffer.
    type Resident = (Key, BlockAddr, bool, u8);

    struct RefBuf {
        fill: u8,
        dirty: bool,
        addr: BlockAddr,
        last_used: u64,
    }

    /// The cache as it was: one map, a tick per buffer, and a full
    /// `min_by_key` scan per evicted block. The oracle for victim order.
    struct RefCache {
        map: HashMap<Key, RefBuf>,
        capacity_blocks: usize,
        tick: u64,
    }

    impl RefCache {
        fn touch(&mut self, key: Key) -> bool {
            self.tick += 1;
            let tick = self.tick;
            self.map.get_mut(&key).map(|b| b.last_used = tick).is_some()
        }

        fn insert(&mut self, key: Key, fill: u8, dirty: bool, addr: BlockAddr) {
            self.tick += 1;
            let last_used = self.tick;
            self.map.insert(
                key,
                RefBuf {
                    fill,
                    dirty,
                    addr,
                    last_used,
                },
            );
        }

        fn shrink_to_capacity(&mut self) -> usize {
            let mut evicted = 0;
            while self.map.len() > self.capacity_blocks {
                let victim = self
                    .map
                    .iter()
                    .filter(|(_, b)| !b.dirty)
                    .min_by_key(|(_, b)| b.last_used)
                    .map(|(&k, _)| k);
                match victim {
                    Some(k) => {
                        self.map.remove(&k);
                        evicted += 1;
                    }
                    None => break,
                }
            }
            evicted
        }

        fn dirty_keys(&self) -> Vec<(Ino, Vec<LBlock>)> {
            let mut by_ino: HashMap<Ino, Vec<LBlock>> = HashMap::new();
            for (&(ino, lb), b) in &self.map {
                if b.dirty {
                    by_ino.entry(ino).or_default().push(lb);
                }
            }
            let mut out: Vec<(Ino, Vec<LBlock>)> = by_ino.into_iter().collect();
            out.sort_by_key(|(ino, _)| *ino);
            for (_, blocks) in &mut out {
                blocks.sort();
            }
            out
        }

        fn residents(&self) -> Vec<Resident> {
            let mut out: Vec<Resident> = self
                .map
                .iter()
                .map(|(&k, b)| (k, b.addr, b.dirty, b.fill))
                .collect();
            out.sort();
            out
        }
    }

    impl BufCache {
        /// Every resident buffer, sorted by key — after checking that
        /// the lists, the index and the free chain account for every
        /// slot exactly once and that the clean list is in tick order.
        fn residents(&self) -> Vec<Resident> {
            let mut out = Vec::new();
            for list in [CLEAN, DIRTY] {
                let (mut prev, mut last_used) = (NIL, 0);
                let mut s = self.slab.lists[list].head;
                while s != NIL {
                    let b = &self.slab.slots[s as usize];
                    assert_eq!(b.prev, prev, "back link of slot {s}");
                    assert_eq!(b.dirty as usize, list, "slot {s} is on the wrong list");
                    assert_eq!(self.index.get(&b.key), Some(&s), "index entry of slot {s}");
                    if list == CLEAN {
                        assert!(b.last_used > last_used, "clean list out of tick order");
                        last_used = b.last_used;
                    }
                    out.push((b.key, b.addr, b.dirty, b.data[0]));
                    (prev, s) = (s, b.next);
                }
                assert_eq!(self.slab.lists[list].tail, prev, "tail of list {list}");
            }
            let mut free = 0;
            let mut s = self.slab.free;
            while s != NIL {
                assert!(self.slab.slots[s as usize].data.is_empty());
                free += 1;
                s = self.slab.slots[s as usize].next;
            }
            assert_eq!(out.len(), self.index.len());
            assert_eq!(out.len() + free, self.slab.slots.len());
            out.sort();
            out
        }
    }

    /// Twelve blocks per file, so keys collide often: ten data blocks
    /// and one of each indirect kind that sorts differently.
    fn lblock(sel: u32) -> LBlock {
        match sel {
            9 => LBlock::Ind1,
            10 => LBlock::Ind2,
            11 => LBlock::Ind2Child(0),
            n => LBlock::Data(n),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Random scripts over every operation, three files of twelve
        /// blocks in an eight-block cache: after every step the same
        /// buffers are resident (so every eviction chose the same
        /// victim) with the same address, dirtiness and contents, and
        /// `dirty_keys()` and `len()` agree.
        #[test]
        fn matches_the_linear_scan_evictor(
            script in prop::collection::vec((0u8..20, 0u32..3, 0u32..12, any::<bool>()), 1..400),
        ) {
            let mut fast = cache(8);
            let mut slow = RefCache {
                map: HashMap::new(),
                capacity_blocks: fast.capacity_blocks,
                tick: 0,
            };
            for (step, (op, ino, sel, flag)) in script.into_iter().enumerate() {
                let (lb, key) = (lblock(sel), (ino, lblock(sel)));
                let (fill, addr) = (step as u8, step as BlockAddr);
                match op {
                    0..=4 => {
                        fast.insert(ino, lb, block(fill), flag, addr);
                        slow.insert(key, fill, flag, addr);
                    }
                    5..=7 => prop_assert_eq!(fast.get(ino, lb).is_some(), slow.touch(key)),
                    8..=9 => prop_assert_eq!(fast.get_mut(ino, lb).is_some(), slow.touch(key)),
                    10..=11 => {
                        // Dirtying a block the cache does not hold panics.
                        if let Some(b) = slow.map.get_mut(&key) {
                            b.dirty = true;
                            fast.mark_dirty(ino, lb);
                        }
                    }
                    12..=13 => {
                        fast.mark_clean(ino, lb, addr);
                        if let Some(b) = slow.map.get_mut(&key) {
                            (b.dirty, b.addr) = (false, addr);
                        }
                    }
                    14 => {
                        fast.readdress(ino, lb, addr);
                        if let Some(b) = slow.map.get_mut(&key) {
                            b.addr = addr;
                        }
                    }
                    15 => {
                        fast.remove(ino, lb);
                        slow.map.remove(&key);
                    }
                    16 if flag => {
                        fast.remove_file(ino);
                        slow.map.retain(|&(i, _), _| i != ino);
                    }
                    16 => {
                        fast.drop_clean();
                        slow.map.retain(|_, b| b.dirty);
                    }
                    _ => prop_assert_eq!(fast.shrink_to_capacity(), slow.shrink_to_capacity()),
                }
                prop_assert_eq!(fast.residents(), slow.residents(), "after step {}", step);
                prop_assert_eq!(fast.dirty_keys(), slow.dirty_keys());
                prop_assert_eq!(fast.len(), slow.map.len());
                prop_assert_eq!(fast.contains(ino, lb), slow.map.contains_key(&key));
            }
        }
    }
}
