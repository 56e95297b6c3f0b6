//! The buffer cache.
//!
//! Blocks are cached by *file identity* `(inode, logical block)` rather
//! than by device address, because in an LFS a block's device address
//! changes every time it is rewritten. Dirty blocks are pinned until the
//! segment writer flushes them; clean blocks are evicted LRU. The cache
//! is bounded (the paper's machine had 3.2 MB of buffer cache), and the
//! benchmarks flush it between phases exactly as §7.1 describes.

use std::collections::HashMap;

use crate::types::{BlockAddr, Ino, LBlock, UNASSIGNED};

/// A cached block.
#[derive(Debug)]
pub struct Buf {
    /// Block contents (one filesystem block).
    pub data: Box<[u8]>,
    /// `true` if the block must be written by the segment writer.
    pub dirty: bool,
    /// The device address this copy was read from / last written to;
    /// `UNASSIGNED` for newly created blocks never yet on media.
    pub addr: BlockAddr,
    /// LRU timestamp.
    last_used: u64,
}

/// Bounded `(ino, lblock)`-keyed block cache with dirty pinning.
pub struct BufCache {
    map: HashMap<(Ino, LBlock), Buf>,
    capacity_blocks: usize,
    block_size: usize,
    tick: u64,
}

impl BufCache {
    /// Creates a cache bounded to `capacity_bytes`.
    pub fn new(capacity_bytes: u64, block_size: usize) -> BufCache {
        BufCache {
            map: HashMap::new(),
            capacity_blocks: (capacity_bytes as usize / block_size).max(8),
            block_size,
            tick: 0,
        }
    }

    /// Capacity in blocks.
    pub fn capacity_blocks(&self) -> usize {
        self.capacity_blocks
    }

    /// Resident block count.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// `true` if no blocks are resident.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// `true` when the cache holds more blocks than its capacity.
    pub fn over_capacity(&self) -> bool {
        self.map.len() > self.capacity_blocks
    }

    /// Looks up a block, refreshing its LRU position.
    pub fn get(&mut self, ino: Ino, lb: LBlock) -> Option<&Buf> {
        self.tick += 1;
        let tick = self.tick;
        let buf = self.map.get_mut(&(ino, lb))?;
        buf.last_used = tick;
        Some(&*buf)
    }

    /// Looks up a block mutably (does not change dirtiness by itself).
    pub fn get_mut(&mut self, ino: Ino, lb: LBlock) -> Option<&mut Buf> {
        self.tick += 1;
        let tick = self.tick;
        let buf = self.map.get_mut(&(ino, lb))?;
        buf.last_used = tick;
        Some(buf)
    }

    /// Inserts (or replaces) a block.
    ///
    /// # Panics
    ///
    /// Panics if `data` is not exactly one block.
    pub fn insert(&mut self, ino: Ino, lb: LBlock, data: Box<[u8]>, dirty: bool, addr: BlockAddr) {
        assert_eq!(data.len(), self.block_size, "buffer must be one block");
        self.tick += 1;
        self.map.insert(
            (ino, lb),
            Buf {
                data,
                dirty,
                addr,
                last_used: self.tick,
            },
        );
    }

    /// Marks a resident block dirty.
    ///
    /// # Panics
    ///
    /// Panics if the block is not resident — dirtying data the cache does
    /// not hold is always a caller bug.
    pub fn mark_dirty(&mut self, ino: Ino, lb: LBlock) {
        self.map
            .get_mut(&(ino, lb))
            .expect("mark_dirty on non-resident block")
            .dirty = true;
    }

    /// After the segment writer persists a block: record its new device
    /// address and unpin it. No-op if the block was evicted meanwhile
    /// (cannot happen for dirty blocks, which are pinned).
    pub fn mark_clean(&mut self, ino: Ino, lb: LBlock, addr: BlockAddr) {
        if let Some(b) = self.map.get_mut(&(ino, lb)) {
            b.dirty = false;
            b.addr = addr;
        }
    }

    /// Records that a resident block's media copy moved without being
    /// rewritten (end-of-medium relocation, §6.3). Dirtiness and LRU
    /// position are untouched: a dirty copy still owes a log write, and
    /// that write must retire the copy at its *new* address.
    pub fn readdress(&mut self, ino: Ino, lb: LBlock, addr: BlockAddr) {
        if let Some(b) = self.map.get_mut(&(ino, lb)) {
            b.addr = addr;
        }
    }

    /// Removes a block outright (truncate/unlink paths).
    pub fn remove(&mut self, ino: Ino, lb: LBlock) {
        self.map.remove(&(ino, lb));
    }

    /// Removes every block belonging to `ino`.
    pub fn remove_file(&mut self, ino: Ino) {
        self.map.retain(|&(i, _), _| i != ino);
    }

    /// All dirty block keys, grouped by inode, inodes ascending and
    /// blocks in logical order — the order the segment writer lays files
    /// out (§3: LFS sorts a file's dirty blocks to keep them contiguous).
    pub fn dirty_keys(&self) -> Vec<(Ino, Vec<LBlock>)> {
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

    /// Evicts clean blocks (LRU first) until the cache is within
    /// capacity. Returns how many were evicted; dirty blocks are never
    /// evicted, so the cache may remain over capacity until a flush.
    pub fn shrink_to_capacity(&mut self) -> usize {
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

    /// Drops every clean block (the paper's "buffer cache is flushed
    /// before each operation", §7.1). Dirty blocks stay pinned.
    pub fn drop_clean(&mut self) {
        self.map.retain(|_, b| b.dirty);
    }

    /// Iterates over `(ino, lblock, addr, dirty)` without touching LRU.
    pub fn iter_meta(&self) -> impl Iterator<Item = (Ino, LBlock, BlockAddr, bool)> + '_ {
        self.map
            .iter()
            .map(|(&(ino, lb), b)| (ino, lb, b.addr, b.dirty))
    }
}

/// Marker address for brand-new blocks.
pub const NEW_BLOCK: BlockAddr = UNASSIGNED;

#[cfg(test)]
mod tests {
    use super::*;

    fn block(fill: u8) -> Box<[u8]> {
        vec![fill; 4096].into_boxed_slice()
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
        assert!(!b.dirty);
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
}
