//! Sparse in-memory block storage, the shareable [`Block`] it holds, and
//! the [`Segment`] that crosses between the levels.
//!
//! HighLight address spaces span terabytes (the Metrum robot alone holds
//! ≈9 TB), so backing store must be sparse: blocks that were never written
//! read back as zeros and cost nothing. And a segment lives at both levels
//! at once (§1): "whole segments move between levels" in one on-media
//! format (§6.4, §6.7). So a block's bytes are a [`Block`] that a disk and
//! a jukebox slot can both hold, and a segment is a [`Segment`]: one
//! shared array of those handles, which a disk run and a jukebox slot can
//! both hold. Moving a segment between levels moves one handle — not 256,
//! and no bytes.
//!
//! A [`SparseStore`] is sparse at 1 MB granularity: its index maps a
//! run of 256 blocks — one segment of 4 KB blocks — to a shared array of
//! that run's handles, with the store's zero block wherever nothing was
//! written. Runs start at [`SEGMENT_ORIGIN`], the first block of disk
//! segment 0, so one disk segment is exactly one run. A whole segment
//! put at a run boundary becomes the run (the store keeps the caller's
//! array), and a whole run is lent as the run itself; a shorter or a
//! misaligned segment moves handle by handle, one index probe per run it
//! touches. A run never touched costs nothing, and one touched block
//! costs its run's 6 KB array.
//!
//! Copy-on-write works at both grains. A write or a per-block put into a
//! run that another holder shares first copies the run's array
//! (`Rc::make_mut`), so the other holder keeps the handles it had; after
//! that, a block's bytes are written in place only through its buffer's
//! sole handle and otherwise replaced, as before.
//!
//! The index hashes with a fixed multiplicative mixer
//! ([`BlockHashBuilder`], defined in `hl-trace` at the bottom of the
//! workspace graph and re-exported here) instead of the std
//! `RandomState`/SipHash default: run numbers are trusted
//! simulator-internal integers (no HashDoS surface), every probe sits
//! under the device hot path, and a seeded hasher would make map
//! iteration order — and thus allocator behaviour — differ run to run.
//! One multiply and a xor-shift replace a full SipHash round per probe.

use std::borrow::Borrow;
use std::cell::Cell;
use std::collections::HashMap;
use std::fmt;
use std::ops::{Deref, Range};
use std::rc::Rc;

use crate::cksum::cksum;
use crate::error::DevError;

pub use hl_trace::{BlockHashBuilder, BlockHasher};

/// One device block's bytes: the window `off..off + len` of a
/// reference-counted buffer that other handles — sibling windows, a disk
/// and a jukebox slot holding the same segment — may share. It derefs to
/// its bytes; cloning hands out another handle.
///
/// A shared buffer is never written: a store writes a block in place only
/// through its buffer's sole handle, and otherwise replaces the block
/// (copy-on-write per block).
///
/// A handle remembers its bytes' [`cksum()`] once it has been asked for
/// ([`Block::sum`]), and a clone keeps the memo: the handles a disk, a
/// staging line or a jukebox slot holds of a block summed when it was
/// written all answer without reading it again. The only writes,
/// [`Block::make_mut`] and the store's in-place write, go through the
/// sole handle and drop its memo, so a memo is always the sum of the
/// bytes beside it.
pub struct Block {
    buf: Rc<[u8]>,
    off: u32,
    len: u32,
    sum: Cell<Option<u32>>,
}

// Four words, as before the memo: a wider handle costs every resident
// block's slot in the stores' run arrays.
const _: () = assert!(std::mem::size_of::<Block>() == 32);

#[cfg(test)]
thread_local! {
    /// Block handles cloned on this thread: the per-block work of a
    /// level crossing, which the unit tests pin.
    pub(crate) static BLOCK_CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl Clone for Block {
    #[inline]
    fn clone(&self) -> Block {
        #[cfg(test)]
        BLOCK_CLONES.with(|n| n.set(n.get() + 1));
        Block {
            buf: self.buf.clone(),
            off: self.off,
            len: self.len,
            sum: self.sum.clone(),
        }
    }
}

impl Block {
    /// A block holding a copy of `bytes`, sole handle on its buffer.
    pub fn copy_of(bytes: &[u8]) -> Block {
        Block::whole(Rc::from(bytes))
    }

    /// A block of `len` zero bytes, sole handle on its buffer (one
    /// allocation).
    pub fn zeroed(len: usize) -> Block {
        Block::whole(std::iter::repeat_n(0, len).collect())
    }

    /// The one block that is all of `buf`.
    fn whole(buf: Rc<[u8]>) -> Block {
        let len = u32::try_from(buf.len()).expect("a block is shorter than 4 GiB");
        Block {
            buf,
            off: 0,
            len,
            sum: Cell::new(None),
        }
    }

    /// `buf` as consecutive `len`-byte windows (a partial tail is dropped),
    /// each with a memo of its own.
    pub fn split(buf: Rc<[u8]>, len: usize) -> impl ExactSizeIterator<Item = Block> {
        assert!(
            u32::try_from(buf.len()).is_ok(),
            "a buffer shorter than 4 GiB"
        );
        (0..buf.len() / len).map(move |i| Block {
            buf: buf.clone(),
            off: (i * len) as u32,
            len: len as u32,
            sum: Cell::new(None),
        })
    }

    /// The block's [`cksum()`], computed on the first call on this handle
    /// or on the handle it was cloned from, and remembered.
    pub fn sum(&self) -> u32 {
        self.sum.get().unwrap_or_else(|| {
            let sum = cksum(self);
            self.sum.set(Some(sum));
            sum
        })
    }

    /// The block's bytes for writing, if this is its buffer's only handle;
    /// the memo of their sum goes, since they may change.
    pub(crate) fn get_mut(&mut self) -> Option<&mut [u8]> {
        *self.sum.get_mut() = None;
        let (off, len) = (self.off as usize, self.len as usize);
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
        &self.buf[self.off as usize..(self.off + self.len) as usize]
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

/// The device block where segment 0 starts on every disk: the blocks
/// before it are the boot blocks (the superblock and the checkpoints,
/// §6.3). A [`SparseStore`]'s runs start here, so that one disk segment
/// is exactly one run.
pub const SEGMENT_ORIGIN: u32 = 2;

/// Blocks per run of a [`SparseStore`]: one 1 MB segment of 4 KB
/// blocks.
const RUN: usize = 256;

/// What a block address is shifted by before it is cut into runs: block
/// [`SEGMENT_ORIGIN`] is the first slot of run 1, and the boot blocks
/// are the last slots of run 0.
const RUN_BIAS: u64 = RUN as u64 - SEGMENT_ORIGIN as u64;

/// The handles of one run of [`RUN`] blocks, the store's zero block
/// where unwritten. A disk and a jukebox slot may share it.
type Run = Rc<[Block; RUN]>;

/// Cuts the run of `n` blocks from `block` at run boundaries: for each
/// piece, its index key and its slots in that run's array.
fn pieces(block: u64, n: usize) -> impl Iterator<Item = (u64, Range<usize>)> {
    let mut b = block + RUN_BIAS;
    let end = b + n as u64;
    std::iter::from_fn(move || {
        (b < end).then(|| {
            let (key, lo) = (b / RUN as u64, (b % RUN as u64) as usize);
            let len = (RUN - lo).min((end - b) as usize);
            b += len as u64;
            (key, lo..lo + len)
        })
    })
}

/// A run of nothing but `zero`.
fn zero_run(zero: &Block) -> Run {
    Rc::new(std::array::from_fn(|_| zero.clone()))
}

/// The index key of the run that the `n` blocks from `block` fill
/// exactly, if they do: a whole segment at a run boundary.
fn whole_run(block: u64, n: usize) -> Option<u64> {
    let b = block + RUN_BIAS;
    (n == RUN && b.is_multiple_of(RUN as u64)).then_some(b / RUN as u64)
}

/// One segment's blocks: one shared array of [`Block`] handles, every
/// handle the same length. The lengths are checked once, where the
/// segment is made, so a level crossing checks one number, not 256.
/// Cloning shares the array: a segment moves between the levels as one
/// handle.
#[derive(Clone)]
pub struct Segment(pub(crate) Rc<[Block]>);

impl Segment {
    /// `buf` as consecutive `len`-byte blocks, one window each onto the
    /// one buffer (a partial tail is dropped).
    pub fn split(buf: Rc<[u8]>, len: usize) -> Segment {
        Segment(Block::split(buf, len).collect())
    }

    /// `n` handles onto `block`, in one allocation.
    pub fn repeat(block: &Block, n: usize) -> Segment {
        Segment(std::iter::repeat_n(block, n).cloned().collect())
    }

    /// The handles of a segment made here and not yet shared, for
    /// filling in place.
    pub(crate) fn blocks_mut(&mut self) -> &mut [Block] {
        Rc::get_mut(&mut self.0).expect("a fresh segment has one handle")
    }

    /// The segment's length in bytes, refusing it if its blocks are not
    /// `block_size` bytes long.
    pub fn bytes(&self, block_size: usize) -> Result<usize, DevError> {
        match self.0.first() {
            Some(b) if b.len() != block_size => Err(DevError::BadBuffer {
                expected: block_size,
                got: b.len(),
            }),
            _ => Ok(self.0.len() * block_size),
        }
    }
}

impl Deref for Segment {
    type Target = [Block];

    #[inline]
    fn deref(&self) -> &[Block] {
        &self.0
    }
}

impl fmt::Debug for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Segment({} blocks)", self.0.len())
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
    /// Run number (see [`pieces`]) to that run's handles.
    runs: HashMap<u64, Run, BlockHashBuilder>,
    /// Stands for every unwritten block; the store's own handle keeps
    /// any borrower from writing it in place.
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
            runs: HashMap::default(),
            zero: Block::zeroed(block_size),
        }
    }

    /// Run `key`'s handles for writing, made a run of zero blocks if it
    /// was never touched. A run shared with another holder — a jukebox
    /// slot, a lent segment — is first copied, handle by handle, so the
    /// caller's writes and puts never reach the other holder; the
    /// per-block copy-on-write then applies to each block.
    fn run_mut(&mut self, key: u64) -> &mut [Block; RUN] {
        let zero = &self.zero;
        Rc::make_mut(self.runs.entry(key).or_insert_with(|| zero_run(zero)))
    }

    /// The store's handle on each of the `n` blocks from `block`, `None`
    /// in a run never touched: one index probe per run touched.
    fn handles(&self, block: u64, n: usize) -> impl Iterator<Item = Option<&Block>> {
        pieces(block, n).flat_map(move |(key, slots)| {
            let run = self.runs.get(&key);
            slots.map(move |i| run.map(|run| &run[i]))
        })
    }

    /// Reads `buf.len() / block_size` blocks into `buf`.
    ///
    /// # Panics
    ///
    /// Panics if `buf` is not a whole number of blocks.
    pub fn read(&self, block: u64, buf: &mut [u8]) {
        let bs = self.block_size;
        assert!(buf.len().is_multiple_of(bs), "buffer size mismatch");
        let blocks = self.handles(block, buf.len() / bs);
        for (chunk, data) in buf.chunks_exact_mut(bs).zip(blocks) {
            // A run never touched is filled, not copied from the zero
            // block: the copy put 8-15 ns on a one-block peek.
            match data {
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
        let mut src = buf.chunks_exact(bs);
        for (key, slots) in pieces(block, buf.len() / bs) {
            for (data, chunk) in self.run_mut(key)[slots].iter_mut().zip(&mut src) {
                match data.get_mut() {
                    Some(bytes) => bytes.copy_from_slice(chunk),
                    None => *data = Block::copy_of(chunk),
                }
            }
        }
    }

    /// Replaces each of `out`'s handles with one onto the store's block
    /// (the zero block where unwritten). No bytes move.
    pub fn lend(&self, block: u64, out: &mut [Block]) {
        let blocks = self.handles(block, out.len());
        for (slot, data) in out.iter_mut().zip(blocks) {
            slot.clone_from(data.unwrap_or(&self.zero));
        }
    }

    /// The `n` blocks from `block` as one segment. A whole run lends the
    /// run's own array: one handle, whatever `n` is. Any other span
    /// takes one handle per block, in one array of exactly `n`. No bytes
    /// move.
    pub fn lend_segment(&self, block: u64, n: usize) -> Segment {
        match whole_run(block, n) {
            Some(key) => Segment(match self.runs.get(&key) {
                Some(run) => run.clone(),
                None => zero_run(&self.zero),
            }),
            None => {
                let mut seg = Segment::repeat(&self.zero, n);
                self.lend(block, seg.blocks_mut());
                seg
            }
        }
    }

    /// Keeps handles onto `blocks` as the store's blocks. No bytes move.
    ///
    /// # Panics
    ///
    /// Panics if a handle is not one block long.
    pub fn put(&mut self, block: u64, blocks: &[Block]) {
        let bs = self.block_size;
        assert!(blocks.iter().all(|b| b.len() == bs), "block size mismatch");
        self.keep(block, blocks);
    }

    /// Keeps `seg` as the store's blocks from `block`. A whole segment at
    /// a run boundary becomes the run: the store keeps the caller's
    /// array, one handle. A shorter or misaligned one is kept block by
    /// block. No bytes move.
    ///
    /// # Panics
    ///
    /// Panics if the segment's blocks are not one block long.
    pub fn put_segment(&mut self, block: u64, seg: &Segment) {
        let bs = self.block_size;
        assert!(seg.bytes(bs).is_ok(), "block size mismatch");
        if let Some(key) = whole_run(block, seg.len()) {
            let run = Run::try_from(seg.0.clone()).expect("a whole run is RUN blocks");
            self.runs.insert(key, run);
        } else {
            self.keep(block, seg);
        }
    }

    /// Keeps handles onto `blocks`, already checked to be one block long.
    fn keep(&mut self, block: u64, blocks: &[Block]) {
        let mut src = blocks.iter();
        for (key, slots) in pieces(block, blocks.len()) {
            for (data, b) in self.run_mut(key)[slots].iter_mut().zip(&mut src) {
                data.clone_from(b);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    //! The run index is checked by the counts of resident blocks and runs
    //! and by a run of blocks that straddles two index entries, at the
    //! end of the run that holds disk segment 0. Seen red, each sabotage
    //! alone: a piece's key taken one block on (`(b + 1) / RUN`: a put
    //! at the run's last block lands in the next run, so the boundary
    //! test reads B where it put A); a piece's slots one slot on (past
    //! the array in the boundary test and the 9 TB one); a piece not cut
    //! at its run's end (past the array in the boundary test).
    //!
    //! The shared runs are checked by the handle counts of a whole
    //! segment's put and lend, and by writes into a run that a lent
    //! segment shares. Seen red, each sabotage alone: `run_mut` without
    //! `Rc::make_mut` (the shared array written through a raw pointer:
    //! the caller's segment reads the store's writes); `whole_run`
    //! ignoring the alignment (a segment put one block past the boundary
    //! is kept whole, with no per-block clone, as the run it starts in);
    //! `whole_run` ignoring the length (a short segment's put at the
    //! boundary panics: it is not a whole run).

    use super::*;

    /// Blocks the store holds a handle for, other than its zero block.
    fn resident(s: &SparseStore) -> usize {
        s.runs
            .values()
            .map(|run| {
                run.iter()
                    .filter(|b| !Rc::ptr_eq(&b.buf, &s.zero.buf))
                    .count()
            })
            .sum()
    }

    /// Block handles cloned while `f` runs.
    fn clones_during(f: impl FnOnce()) -> u64 {
        let before = BLOCK_CLONES.with(std::cell::Cell::get);
        f();
        BLOCK_CLONES.with(std::cell::Cell::get) - before
    }

    /// The first block of a run: segment 0's.
    const EDGE: u64 = SEGMENT_ORIGIN as u64;

    #[test]
    fn unwritten_blocks_read_zero() {
        let s = SparseStore::new(16);
        let mut buf = [0xffu8; 16];
        s.read(12345, &mut buf);
        assert_eq!(buf, [0u8; 16]);
        assert_eq!((s.runs.len(), resident(&s)), (0, 0));
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
        assert_eq!(resident(&s), 3);
    }

    #[test]
    fn huge_addresses_are_cheap() {
        // A "9 TB" address: only the touched block is resident, in the
        // one run that holds it.
        let mut s = SparseStore::new(4096);
        let far = 9u64 * 1024 * 1024 * 1024 * 1024 / 4096;
        s.write(far - 1, &vec![1u8; 4096]);
        assert_eq!((s.runs.len(), resident(&s)), (1, 1));
    }

    #[test]
    fn a_run_across_two_index_entries_moves_every_block() {
        let mut s = SparseStore::new(4);
        // Blocks A, B, C, D at EDGE-2..EDGE+2: the boot blocks, last in
        // run 0, and the first two of segment 0, first in run 1.
        let abcd: Vec<u8> = (1..=16).collect();
        s.write(EDGE - 2, &abcd);
        assert_eq!((s.runs.len(), resident(&s)), (2, 4));
        let mut back = [0xeeu8; 20];
        s.read(EDGE - 2, &mut back);
        assert_eq!(back[..16], abcd[..]);
        assert_eq!(back[16..], [0; 4]);

        // And at the far end of run 1: A, B, C, D at EDGE+254..EDGE+258.
        let far = EDGE + RUN as u64;
        s.write(far - 2, &abcd);
        assert_eq!((s.runs.len(), resident(&s)), (3, 8));
        let mut back = [0xeeu8; 24];
        s.read(far - 3, &mut back);
        assert_eq!(back[..4], [0; 4]);
        assert_eq!(back[4..20], abcd[..]);
        assert_eq!(back[20..], [0; 4]);

        let mut lent = vec![Block::zeroed(4); 6];
        s.lend(far - 3, &mut lent);
        assert_eq!(lent.concat(), back);
        // A, B, C, D again from far-1: block far-1 is run 1's last slot.
        s.put(far - 1, &lent[1..5]);
        assert_eq!((s.runs.len(), resident(&s)), (3, 9));
        s.read(far - 3, &mut back);
        assert_eq!(back[..8], [0, 0, 0, 0, 1, 2, 3, 4]);
        assert_eq!(back[8..], abcd[..]);
        s.lend(far - 3, &mut lent);
        assert_eq!(lent.concat(), back);
        assert_eq!(s.lend_segment(far - 3, 6).concat(), back);
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

    /// A segment of `RUN` one-byte blocks, block `i` holding `tag + i`.
    fn tagged(tag: u8) -> Segment {
        let bytes: Vec<u8> = (0..RUN).map(|i| tag.wrapping_add(i as u8)).collect();
        Segment::split(Rc::from(bytes), 1)
    }

    #[test]
    fn a_whole_segment_at_a_run_boundary_moves_one_handle() {
        let mut s = SparseStore::new(1);
        let seg = tagged(10);
        let clones = clones_during(|| s.put_segment(EDGE, &seg));
        assert_eq!(clones, 0, "the store keeps the caller's array");
        let mut lent = None;
        let clones = clones_during(|| lent = Some(s.lend_segment(EDGE, RUN)));
        assert_eq!(clones, 0, "and lends the run itself");
        let lent = lent.unwrap();
        assert!(Rc::ptr_eq(&lent.0, &seg.0));
        // An unwritten run lends zeros.
        assert!(s
            .lend_segment(EDGE + RUN as u64, RUN)
            .iter()
            .all(|b| **b == [0]));
    }

    #[test]
    fn a_short_or_misaligned_segment_moves_handle_by_handle() {
        let mut s = SparseStore::new(1);
        let seg = tagged(10);
        // One block past the boundary: two runs, every handle its own.
        let clones = clones_during(|| s.put_segment(EDGE + 1, &seg));
        assert!(clones >= RUN as u64, "{clones} clones");
        let mut back = [0u8; RUN + 2];
        s.read(EDGE, &mut back);
        assert_eq!(back[0], 0);
        assert_eq!(back[1..=RUN], seg.concat()[..]);
        assert_eq!(s.lend_segment(EDGE + 1, RUN).concat(), seg.concat());
        // A segment shorter than a run, at the boundary.
        let short = Segment::split(Rc::from(&[7u8, 8, 9][..]), 1);
        s.put_segment(EDGE, &short);
        let lent = s.lend_segment(EDGE, 3);
        assert_eq!(lent.len(), 3);
        assert_eq!(lent.concat(), [7, 8, 9]);
        s.read(EDGE, &mut back[..5]);
        assert_eq!(back[..5], [7, 8, 9, 12, 13]);
    }

    #[test]
    fn a_write_into_a_shared_run_leaves_the_other_holder_alone() {
        let mut s = SparseStore::new(1);
        let seg = tagged(10);
        s.put_segment(EDGE, &seg);
        // A byte write, a per-block put and a short segment's put into
        // the run the caller still holds: the caller's array and blocks
        // keep what they had.
        s.write(EDGE + 3, &[0xee]);
        s.put(EDGE + 4, &[Block::copy_of(&[0xdd])]);
        s.put_segment(EDGE + 5, &Segment::split(Rc::from(&[0xcc][..]), 1));
        assert_eq!(seg.concat(), tagged(10).concat());
        let mut back = [0u8; 6];
        s.read(EDGE, &mut back);
        assert_eq!(back, [10, 11, 12, 0xee, 0xdd, 0xcc]);
        // A lent run is shared the same way.
        let lent = s.lend_segment(EDGE, RUN);
        s.write(EDGE, &[0xbb]);
        assert_eq!(*lent[0], [10]);
        s.read(EDGE, &mut back[..1]);
        assert_eq!(back[0], 0xbb);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn a_segment_of_other_sized_blocks_is_refused() {
        let mut s = SparseStore::new(4);
        s.put_segment(EDGE, &Segment::split(Rc::from(&[1u8; 8][..]), 2));
    }
}
