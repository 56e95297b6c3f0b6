//! Sparse in-memory block storage, and the shareable [`Block`] it holds.
//!
//! HighLight address spaces span terabytes (the Metrum robot alone holds
//! ≈9 TB), so backing store must be sparse: blocks that were never written
//! read back as zeros and cost nothing. And a segment lives at both levels
//! at once (§1), so a block's bytes are a [`Block`] that a disk and a
//! jukebox slot can both hold: moving a segment between levels moves
//! handles, not bytes.
//!
//! The block index hashes with a fixed multiplicative mixer
//! ([`BlockHashBuilder`]) instead of the std `RandomState`/SipHash
//! default: block numbers are trusted simulator-internal integers (no
//! HashDoS surface), every resident-block probe sits under the device
//! hot path, and a seeded hasher would make map iteration order — and
//! thus allocator behaviour — differ run to run. One multiply and a
//! xor-shift replace a full SipHash round per probe.

use std::borrow::Borrow;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::ops::Deref;
use std::rc::Rc;

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

/// One device block's bytes: the window `off..off + len` of a
/// reference-counted buffer that other handles — sibling windows, a disk
/// and a jukebox slot holding the same segment — may share. It derefs to
/// its bytes; cloning hands out another handle.
///
/// A shared buffer is never written: a store writes a block in place only
/// through its buffer's sole handle, and otherwise replaces the block
/// (copy-on-write per block).
#[derive(Clone)]
pub struct Block {
    buf: Rc<[u8]>,
    off: usize,
    len: usize,
}

impl Block {
    /// A block holding a copy of `bytes`, sole handle on its buffer.
    pub fn copy_of(bytes: &[u8]) -> Block {
        Block {
            buf: Rc::from(bytes),
            off: 0,
            len: bytes.len(),
        }
    }

    /// A block of `len` zero bytes, sole handle on its buffer (one
    /// allocation).
    pub fn zeroed(len: usize) -> Block {
        Block {
            buf: std::iter::repeat_n(0, len).collect(),
            off: 0,
            len,
        }
    }

    /// `buf` as consecutive `len`-byte windows (a partial tail is dropped).
    pub fn split(buf: Rc<[u8]>, len: usize) -> impl ExactSizeIterator<Item = Block> {
        (0..buf.len() / len).map(move |i| Block {
            buf: buf.clone(),
            off: i * len,
            len,
        })
    }

    /// The block's bytes for writing, if this is its buffer's only handle.
    pub(crate) fn get_mut(&mut self) -> Option<&mut [u8]> {
        let (off, len) = (self.off, self.len);
        Rc::get_mut(&mut self.buf).map(|b| &mut b[off..off + len])
    }

    /// The block's bytes for writing. The sole handle on a buffer writes
    /// it in place; a handle that shares its buffer — with a store, a
    /// sibling window, a cache line — first becomes a private copy, so
    /// no other holder ever sees the write (copy-on-write per block).
    pub fn make_mut(&mut self) -> &mut [u8] {
        if Rc::get_mut(&mut self.buf).is_none() {
            *self = Block::copy_of(self);
        }
        self.get_mut().expect("a private copy has one handle")
    }
}

impl Deref for Block {
    type Target = [u8];

    #[inline]
    fn deref(&self) -> &[u8] {
        &self.buf[self.off..self.off + self.len]
    }
}

/// Lets a run of blocks be joined with `[Block]::concat`.
impl Borrow<[u8]> for Block {
    fn borrow(&self) -> &[u8] {
        self
    }
}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

/// A sparse store of fixed-size blocks. Every method takes a run of
/// consecutive blocks starting at `block`.
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
    blocks: HashMap<u64, Block, BlockHashBuilder>,
    /// Lent for every unwritten block; the store's own handle keeps any
    /// borrower from writing it in place.
    zero: Block,
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
            zero: Block::zeroed(block_size),
        }
    }

    /// Reads `buf.len() / block_size` blocks into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not a whole number of blocks.
    pub fn read(&self, block: u64, buf: &mut [u8]) {
        let bs = self.block_size;
        assert!(buf.len().is_multiple_of(bs), "buffer size mismatch");
        for (b, chunk) in (block..).zip(buf.chunks_exact_mut(bs)) {
            match self.blocks.get(&b) {
                Some(data) => chunk.copy_from_slice(data),
                None => chunk.fill(0),
            }
        }
    }

    /// Writes `buf.len() / block_size` blocks from `buf`, each in place if
    /// the store holds its buffer's only handle, else into a fresh buffer.
    /// An all-zero write still materializes the block; deduplicating zero
    /// blocks would hide bugs where a caller forgot to write real data.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not a whole number of blocks.
    pub fn write(&mut self, block: u64, buf: &[u8]) {
        let bs = self.block_size;
        assert!(buf.len().is_multiple_of(bs), "buffer size mismatch");
        for (b, chunk) in (block..).zip(buf.chunks_exact(bs)) {
            match self.blocks.get_mut(&b).and_then(Block::get_mut) {
                Some(bytes) => bytes.copy_from_slice(chunk),
                None => {
                    self.blocks.insert(b, Block::copy_of(chunk));
                }
            }
        }
    }

    /// Replaces each of `out`'s handles with one onto the store's block
    /// (the zero block where unwritten). No bytes move.
    pub fn lend(&self, block: u64, out: &mut [Block]) {
        for (b, slot) in (block..).zip(out) {
            slot.clone_from(self.blocks.get(&b).unwrap_or(&self.zero));
        }
    }

    /// Keeps handles onto `blocks` as the store's blocks. No bytes move.
    ///
    /// # Panics
    ///
    /// Panics if a handle is not one block long.
    pub fn put(&mut self, block: u64, blocks: &[Block]) {
        for (b, data) in (block..).zip(blocks) {
            assert_eq!(data.len(), self.block_size, "block size mismatch");
            self.blocks.insert(b, data.clone());
        }
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
        assert_eq!(s.blocks.len(), 0);
    }

    #[test]
    fn runs_cross_resident_and_sparse_blocks() {
        let mut s = SparseStore::new(4);
        s.write(10, &[9; 4]);
        let mut buf = [0xeeu8; 12];
        s.read(9, &mut buf);
        assert_eq!(buf, [0, 0, 0, 0, 9, 9, 9, 9, 0, 0, 0, 0]);

        s.write(20, &[7; 8]);
        let mut one = [0u8; 4];
        s.read(21, &mut one);
        assert_eq!(one, [7; 4]);
        assert_eq!(s.blocks.len(), 3);
    }

    #[test]
    fn huge_addresses_are_cheap() {
        // A "9 TB" address: only the touched block is resident.
        let mut s = SparseStore::new(4096);
        let far = 9u64 * 1024 * 1024 * 1024 * 1024 / 4096;
        s.write(far - 1, &vec![1u8; 4096]);
        assert_eq!(s.blocks.len(), 1);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn wrong_buffer_size_panics() {
        let s = SparseStore::new(8);
        let mut buf = [0u8; 4];
        s.read(0, &mut buf);
    }

    #[test]
    fn only_a_buffers_sole_handle_writes_it() {
        let mut halves: Vec<Block> = Block::split(Rc::from(&b"abcdwxyz"[..]), 4).collect();
        assert_eq!((&*halves[0], &*halves[1]), (&b"abcd"[..], &b"wxyz"[..]));
        let copy = halves[1].clone();
        assert!(halves[1].get_mut().is_none(), "a clone sees the buffer");
        drop(copy);
        assert!(halves[1].get_mut().is_none(), "so does a sibling window");
        halves.remove(0);
        // The survivor writes its own window, not the buffer's head.
        halves[0].get_mut().unwrap()[0] = b'W';
        assert_eq!(&*halves[0], b"Wxyz");
    }

    #[test]
    fn make_mut_copies_a_shared_block_and_writes_a_sole_one_in_place() {
        let mut s = SparseStore::new(4);
        s.write(0, &[1; 4]);
        let mut held = vec![Block::zeroed(4)];
        s.lend(0, &mut held);
        let before = held[0].buf.as_ptr();
        held[0].make_mut()[0] = 9;
        assert_ne!(
            held[0].buf.as_ptr(),
            before,
            "shared with the store: copied"
        );
        let mut back = [0u8; 4];
        s.read(0, &mut back);
        assert_eq!(back, [1; 4], "the store's block is untouched");
        let private = held[0].buf.as_ptr();
        held[0].make_mut()[1] = 9;
        assert_eq!(held[0].buf.as_ptr(), private, "sole handle: in place");
        assert_eq!(&*held[0], &[9, 9, 1, 1][..]);
    }

    #[test]
    fn a_byte_write_never_reaches_another_holder_of_the_block() {
        let mut s = SparseStore::new(4);
        let lent: Vec<Block> = Block::split(Rc::from(&[1u8, 1, 1, 1, 2, 2, 2, 2][..]), 4).collect();
        s.put(0, &lent);
        s.write(1, &[9; 4]);
        // The store's copy moved; the lender's buffer did not.
        let mut back = [0u8; 8];
        s.read(0, &mut back);
        assert_eq!(back, [1, 1, 1, 1, 9, 9, 9, 9]);
        assert_eq!((&*lent[0], &*lent[1]), (&[1u8; 4][..], &[2u8; 4][..]));
        // Unwritten blocks lend the store's zero block, which the store
        // keeps a handle on: a borrower cannot write it in place.
        let mut out = vec![lent[0].clone(); 2];
        s.lend(5, &mut out);
        assert_eq!(&*out[0], &[0u8; 4][..]);
        assert!(out[0].get_mut().is_none());
    }
}
