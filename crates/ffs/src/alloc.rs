//! Block allocation: first-fit with a contiguity hint.
//!
//! FFS achieves its sequential performance by placing a file's blocks
//! contiguously; the allocator honours a "next to the previous block"
//! hint and falls back to a rotor scan. The rotor avoids re-scanning the
//! full bitmap from zero on every allocation.

/// In-core block bitmap with a rotor.
#[derive(Clone, Debug)]
pub struct BlockMap {
    used: Vec<bool>,
    rotor: u64,
    free: u64,
    /// First allocatable block (the metadata region is off-limits).
    data_start: u64,
}

impl BlockMap {
    /// Creates a map over `nblocks`, with everything below `data_start`
    /// permanently allocated (superblock, inode table, bitmap region).
    pub fn new(nblocks: u64, data_start: u64) -> BlockMap {
        let mut used = vec![false; nblocks as usize];
        for slot in used.iter_mut().take(data_start as usize) {
            *slot = true;
        }
        BlockMap {
            used,
            rotor: data_start,
            free: nblocks - data_start,
            data_start,
        }
    }

    /// Free blocks remaining.
    pub fn free_blocks(&self) -> u64 {
        self.free
    }

    /// Marks a block used (mount-time reconstruction).
    fn reserve(&mut self, block: u64) {
        if !self.used[block as usize] {
            self.used[block as usize] = true;
            self.free -= 1;
        }
    }

    /// Allocates one block, preferring `hint` (for contiguity), then the
    /// rotor scan. Returns `None` when the disk is full.
    pub fn alloc(&mut self, hint: Option<u64>) -> Option<u64> {
        if self.free == 0 {
            return None;
        }
        if let Some(h) = hint {
            if h >= self.data_start && (h as usize) < self.used.len() && !self.used[h as usize] {
                self.used[h as usize] = true;
                self.free -= 1;
                return Some(h);
            }
        }
        let n = self.used.len() as u64;
        for i in 0..n - self.data_start {
            let b = self.data_start + (self.rotor - self.data_start + i) % (n - self.data_start);
            if !self.used[b as usize] {
                self.used[b as usize] = true;
                self.rotor = b + 1;
                self.free -= 1;
                return Some(b);
            }
        }
        None
    }

    /// Releases a block.
    pub fn release(&mut self, block: u64) {
        if self.used[block as usize] && block >= self.data_start {
            self.used[block as usize] = false;
            self.free += 1;
        }
    }

    /// Serializes into bitmap blocks (1 bit per block, LSB-first).
    pub fn encode(&self, out: &mut [u8]) {
        out.fill(0);
        for (i, &u) in self.used.iter().enumerate() {
            if u {
                out[i / 8] |= 1 << (i % 8);
            }
        }
    }

    /// Restores from bitmap blocks.
    pub fn decode(nblocks: u64, data_start: u64, raw: &[u8]) -> BlockMap {
        let mut m = BlockMap::new(nblocks, data_start);
        for b in data_start..nblocks {
            if raw[(b / 8) as usize] & (1 << (b % 8)) != 0 {
                m.reserve(b);
            }
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl BlockMap {
        fn is_used(&self, block: u64) -> bool {
            self.used[block as usize]
        }
    }

    #[test]
    fn hint_gives_contiguous_runs() {
        let mut m = BlockMap::new(100, 10);
        let first = m.alloc(None).unwrap();
        let mut prev = first;
        for _ in 0..20 {
            let b = m.alloc(Some(prev + 1)).unwrap();
            assert_eq!(b, prev + 1, "hint not honoured");
            prev = b;
        }
    }

    #[test]
    fn metadata_region_is_never_allocated() {
        let mut m = BlockMap::new(64, 16);
        for _ in 0..48 {
            let b = m.alloc(None).unwrap();
            assert!(b >= 16);
        }
        assert_eq!(m.alloc(None), None);
        assert_eq!(m.free_blocks(), 0);
    }

    #[test]
    fn release_makes_blocks_reusable() {
        let mut m = BlockMap::new(32, 8);
        let b = m.alloc(None).unwrap();
        m.release(b);
        assert!(!m.is_used(b));
        // Releasing a metadata block is ignored.
        m.release(3);
        assert!(m.is_used(3));
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut m = BlockMap::new(100, 10);
        for _ in 0..17 {
            m.alloc(None);
        }
        m.release(12);
        let mut raw = vec![0u8; 13];
        m.encode(&mut raw);
        let back = BlockMap::decode(100, 10, &raw);
        for b in 0..100 {
            assert_eq!(m.is_used(b), back.is_used(b), "block {b}");
        }
        assert_eq!(m.free_blocks(), back.free_blocks());
    }

    #[test]
    fn rotor_skips_fragmented_prefix() {
        let mut m = BlockMap::new(50, 10);
        let a = m.alloc(None).unwrap();
        let b = m.alloc(None).unwrap();
        m.release(a);
        // The next no-hint allocation continues from the rotor, not from
        // the freed hole.
        let c = m.alloc(None).unwrap();
        assert!(c > b);
        // But the hole is eventually reused once the tail is exhausted.
        let mut last = c;
        while let Some(x) = m.alloc(None) {
            last = x;
        }
        let _ = last;
        assert_eq!(m.free_blocks(), 0);
        assert!(m.is_used(a));
    }
}
