//! Sparse in-memory block storage.
//!
//! HighLight address spaces span terabytes (the Metrum robot alone holds
//! ≈9 TB), so backing store must be sparse: blocks that were never written
//! read back as zeros and cost nothing.
//!
//! The block index hashes with a fixed multiplicative mixer
//! ([`BlockHashBuilder`]) instead of the std `RandomState`/SipHash
//! default: block numbers are trusted simulator-internal integers (no
//! HashDoS surface), every resident-block probe sits under the device
//! hot path, and a seeded hasher would make map iteration order — and
//! thus allocator behaviour — differ run to run. One multiply and a
//! xor-shift replace a full SipHash round per probe.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// [`Hasher`] for small trusted integer keys: SplitMix64-style finalizer
/// over the written words. Deterministic across runs and processes.
#[derive(Default)]
pub struct BlockHasher(u64);

impl Hasher for BlockHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        let mut x = self.0 ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        self.0 = x ^ (x >> 27);
    }

    #[inline]
    fn write_u32(&mut self, n: u32) {
        self.write_u64(n as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Generic fallback (FNV-1a): only hit for non-integer keys.
        let mut h = self.0 ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.0 = h;
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Zero-state [`std::hash::BuildHasher`] for [`BlockHasher`].
pub type BlockHashBuilder = BuildHasherDefault<BlockHasher>;

/// A sparse store of fixed-size blocks.
///
/// # Examples
///
/// ```
/// let mut s = hl_vdev::SparseStore::new(4096);
/// let mut buf = vec![0u8; 4096];
/// s.read(7, &mut buf);            // never written: zeros
/// assert!(buf.iter().all(|&b| b == 0));
/// s.write(7, &vec![0xabu8; 4096]);
/// s.read(7, &mut buf);
/// assert!(buf.iter().all(|&b| b == 0xab));
/// ```
#[derive(Clone, Debug)]
pub struct SparseStore {
    block_size: usize,
    blocks: HashMap<u64, Box<[u8]>, BlockHashBuilder>,
}

impl SparseStore {
    /// Creates an empty store of `block_size`-byte blocks.
    ///
    /// # Panics
    ///
    /// Panics if `block_size` is zero.
    pub fn new(block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        Self {
            block_size,
            blocks: HashMap::default(),
        }
    }

    /// The store's block size in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Number of blocks that have ever been written (resident blocks).
    pub fn resident_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// Reads one block into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != block_size`.
    pub fn read(&self, block: u64, buf: &mut [u8]) {
        assert_eq!(buf.len(), self.block_size, "read buffer size mismatch");
        match self.blocks.get(&block) {
            Some(data) => buf.copy_from_slice(data),
            None => buf.fill(0),
        }
    }

    /// Writes one block from `buf`.
    ///
    /// An all-zero write still materializes the block; deduplicating zero
    /// blocks would hide bugs where a caller forgot to write real data.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != block_size`.
    pub fn write(&mut self, block: u64, buf: &[u8]) {
        assert_eq!(buf.len(), self.block_size, "write buffer size mismatch");
        match self.blocks.get_mut(&block) {
            Some(slot) => slot.copy_from_slice(buf),
            None => {
                self.blocks.insert(block, buf.to_vec().into_boxed_slice());
            }
        }
    }

    /// Reads `count` consecutive blocks into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != count * block_size`.
    pub fn read_run(&self, block: u64, count: u64, buf: &mut [u8]) {
        assert_eq!(buf.len(), count as usize * self.block_size);
        for i in 0..count {
            let off = i as usize * self.block_size;
            self.read(block + i, &mut buf[off..off + self.block_size]);
        }
    }

    /// Writes `count` consecutive blocks from `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf.len() != count * block_size`.
    pub fn write_run(&mut self, block: u64, count: u64, buf: &[u8]) {
        assert_eq!(buf.len(), count as usize * self.block_size);
        for i in 0..count {
            let off = i as usize * self.block_size;
            self.write(block + i, &buf[off..off + self.block_size]);
        }
    }

    /// Drops a block back to the implicit zero state.
    pub fn discard(&mut self, block: u64) {
        self.blocks.remove(&block);
    }

    /// Drops every block (e.g. re-initializing a volume).
    pub fn clear(&mut self) {
        self.blocks.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_blocks_read_zero() {
        let s = SparseStore::new(16);
        let mut buf = [0xffu8; 16];
        s.read(12345, &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!(s.resident_blocks(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = SparseStore::new(8);
        s.write(3, &[1, 2, 3, 4, 5, 6, 7, 8]);
        let mut buf = [0u8; 8];
        s.read(3, &mut buf);
        assert_eq!(buf, [1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(s.resident_blocks(), 1);
    }

    #[test]
    fn runs_cross_resident_and_sparse_blocks() {
        let mut s = SparseStore::new(4);
        s.write(10, &[9; 4]);
        let mut buf = [0xeeu8; 12];
        s.read_run(9, 3, &mut buf);
        assert_eq!(buf, [0, 0, 0, 0, 9, 9, 9, 9, 0, 0, 0, 0]);

        s.write_run(20, 2, &[7; 8]);
        let mut one = [0u8; 4];
        s.read(21, &mut one);
        assert_eq!(one, [7; 4]);
    }

    #[test]
    fn discard_restores_zero_state() {
        let mut s = SparseStore::new(4);
        s.write(1, &[5; 4]);
        s.discard(1);
        let mut buf = [0xaau8; 4];
        s.read(1, &mut buf);
        assert_eq!(buf, [0; 4]);
        assert_eq!(s.resident_blocks(), 0);
    }

    #[test]
    fn huge_addresses_are_cheap() {
        // A "9 TB" address: only the touched block is resident.
        let mut s = SparseStore::new(4096);
        let far = 9u64 * 1024 * 1024 * 1024 * 1024 / 4096;
        s.write(far - 1, &vec![1u8; 4096]);
        assert_eq!(s.resident_blocks(), 1);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn wrong_buffer_size_panics() {
        let s = SparseStore::new(8);
        let mut buf = [0u8; 4];
        s.read(0, &mut buf);
    }
}
