//! The block-pointer tree: the one module that knows its shape.
//!
//! An inode reaches its blocks the way every UFS descendant does — the
//! "shared FFS/LFS indirection code" of §3: `NDIRECT` direct pointers in
//! the inode (`db`), a single indirect block of `NPTR` pointers
//! (`ib[0]`, [`LBlock::Ind1`]), and a double-indirect root (`ib[1]`,
//! [`LBlock::Ind2`]) whose slots name up to `NPTR` level-1 children
//! ([`LBlock::Ind2Child`]) of `NPTR` pointers each:
//!
//! ```text
//! data block l          its pointer lives in
//! 0 .. 12               inode db[l]
//! 12 .. 1 036           Ind1 slot l − 12              Ind1 itself: inode ib[0]
//! 1 036 + 1 024·k ..    Ind2Child(k) slot l − first   Ind2Child(k): Ind2 slot k
//!                                                     Ind2 itself:  inode ib[1]
//! ```
//!
//! A file of `n` data blocks *owns* data blocks `0..n` and exactly the
//! pointer blocks with at least one of those beneath them; any of them
//! may still be a hole (pointer `UNASSIGNED`), and a hole where a
//! pointer block would be makes everything beneath it a hole. Block
//! mapping, truncation, whole-file migration, the live-byte audit, fsck
//! and the FFS baseline all read the shape from [`home`] and [`blocks`];
//! nothing else does arithmetic on `NDIRECT` or `NPTR`.

use std::ops::Range;

use hl_vdev::Block;

use crate::types::{LBlock, MAX_DATA_BLOCKS, NDIRECT, NPTR, UNASSIGNED};

/// Where the pointer to a logical block is stored.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Home {
    /// `di_db[i]`.
    Inode(usize),
    /// `di_ib[i]`.
    InodeIndirect(usize),
    /// Slot `idx` of another (indirect) logical block.
    InBlock(LBlock, usize),
    /// Beyond double-indirect reach.
    TooBig,
}

/// The first data block at or beneath `lb`.
#[inline]
fn first_under(lb: LBlock) -> u64 {
    match lb {
        LBlock::Data(l) => l as u64,
        LBlock::Ind1 => NDIRECT as u64,
        LBlock::Ind2 => (NDIRECT + NPTR) as u64,
        LBlock::Ind2Child(k) => (NDIRECT + NPTR) as u64 + k as u64 * NPTR as u64,
    }
}

/// Where the pointer to `lb` lives.
#[inline]
pub fn home(lb: LBlock) -> Home {
    match lb {
        LBlock::Data(l) => {
            let l = l as u64;
            if l < first_under(LBlock::Ind1) {
                Home::Inode(l as usize)
            } else if l < first_under(LBlock::Ind2) {
                Home::InBlock(LBlock::Ind1, (l - first_under(LBlock::Ind1)) as usize)
            } else if l < MAX_DATA_BLOCKS {
                let off = l - first_under(LBlock::Ind2);
                Home::InBlock(
                    LBlock::Ind2Child((off / NPTR as u64) as u32),
                    (off % NPTR as u64) as usize,
                )
            } else {
                Home::TooBig
            }
        }
        LBlock::Ind1 => Home::InodeIndirect(0),
        LBlock::Ind2 => Home::InodeIndirect(1),
        LBlock::Ind2Child(k) => Home::InBlock(LBlock::Ind2, k as usize),
    }
}

/// How many of indirect block `lb`'s pointers a file of `n` data blocks
/// uses: slots `0..slots(lb, n)` are in range, the rest lie past end of
/// file. Zero means the file does not own `lb` at all.
fn slots(lb: LBlock, n: u64) -> usize {
    let beneath = n.saturating_sub(first_under(lb));
    let used = match lb {
        LBlock::Data(_) => 0,
        LBlock::Ind1 | LBlock::Ind2Child(_) => beneath,
        LBlock::Ind2 => beneath.div_ceil(NPTR as u64),
    };
    used.min(NPTR as u64) as usize
}

/// Every logical block a file owns at `range.end` data blocks but not at
/// `range.start` — `0..n` is the whole file, `keep..n` what a truncate
/// frees — with every block before the one that points at it: the data
/// blocks ascending, then `Ind1`, then the `Ind2Child`ren ascending,
/// then `Ind2`.
///
/// This order reaches the media: `Lfs::whole_file_items` lays a migrated
/// file out in it (the log writer streams a batch in its own order,
/// `writer.rs`). Consumers that only read or free — truncate, the audit,
/// fsck, FFS release — need no more of it than children first.
pub fn blocks(range: Range<u64>) -> impl Iterator<Item = LBlock> {
    let n = range.end.min(MAX_DATA_BLOCKS);
    let children = (0..slots(LBlock::Ind2, n) as u32).map(LBlock::Ind2Child);
    let pointer_blocks = std::iter::once(LBlock::Ind1)
        .chain(children)
        .chain(std::iter::once(LBlock::Ind2))
        .filter(move |&lb| slots(lb, range.start) == 0 && slots(lb, n) > 0);
    (range.start..n)
        .map(|l| LBlock::Data(l as u32))
        .chain(pointer_blocks)
}

thread_local! {
    /// The one all-`UNASSIGNED` block every fresh indirect block shares
    /// until its first pointer is set.
    static FRESH_INDIRECT: Block = Block::copy_of(&UNASSIGNED.to_le_bytes().repeat(NPTR));
}

/// A new indirect block: every pointer unassigned. A handle on one shared
/// block, so it costs no allocation; the first pointer written gives the
/// buffer its own copy ([`Block::make_mut`]).
pub fn fresh_indirect() -> Block {
    FRESH_INDIRECT.with(Block::clone)
}

#[cfg(test)]
mod tests {
    use super::*;
    use LBlock::{Data, Ind1, Ind2, Ind2Child};

    const DOUBLE: u64 = 1_036;

    #[test]
    fn home_at_every_boundary() {
        assert_eq!(home(Data(0)), Home::Inode(0));
        assert_eq!(home(Data(11)), Home::Inode(11));
        assert_eq!(home(Data(12)), Home::InBlock(Ind1, 0));
        assert_eq!(home(Data(1_035)), Home::InBlock(Ind1, 1_023));
        assert_eq!(home(Data(1_036)), Home::InBlock(Ind2Child(0), 0));
        assert_eq!(home(Data(2_059)), Home::InBlock(Ind2Child(0), 1_023));
        assert_eq!(home(Data(2_060)), Home::InBlock(Ind2Child(1), 0));
        let last = (MAX_DATA_BLOCKS - 1) as u32;
        assert_eq!(home(Data(last)), Home::InBlock(Ind2Child(1_023), 1_023));
        assert_eq!(home(Data(last + 1)), Home::TooBig);
        assert_eq!(home(Ind1), Home::InodeIndirect(0));
        assert_eq!(home(Ind2), Home::InodeIndirect(1));
        assert_eq!(home(Ind2Child(7)), Home::InBlock(Ind2, 7));
    }

    #[test]
    fn slots_follow_the_file_size() {
        assert_eq!(slots(Ind1, 12), 0);
        assert_eq!(slots(Ind1, 13), 1);
        assert_eq!(slots(Ind1, 5_000), 1_024);
        assert_eq!(slots(Ind2, DOUBLE), 0);
        assert_eq!(slots(Ind2, DOUBLE + 1), 1);
        assert_eq!(slots(Ind2, DOUBLE + 1_024), 1);
        assert_eq!(slots(Ind2, DOUBLE + 1_025), 2);
        assert_eq!(slots(Ind2, MAX_DATA_BLOCKS), 1_024);
        assert_eq!(slots(Ind2Child(1), DOUBLE + 1_024), 0);
        assert_eq!(slots(Ind2Child(1), DOUBLE + 1_030), 6);
        assert_eq!(slots(Data(3), 100), 0);
    }

    #[test]
    fn blocks_lists_exactly_what_a_file_owns_children_first() {
        for n in [
            0,
            1,
            12,
            13,
            DOUBLE,
            DOUBLE + 1,
            DOUBLE + 1_024,
            DOUBLE + 1_025,
            3_400,
        ] {
            let all: Vec<LBlock> = blocks(0..n).collect();
            let nchildren = n.saturating_sub(DOUBLE).div_ceil(1_024);
            let expect = n + u64::from(n > 12) + u64::from(n > DOUBLE) + nchildren;
            assert_eq!(all.len() as u64, expect, "count at {n}");
            for (at, &lb) in all.iter().enumerate() {
                if let Home::InBlock(parent, idx) = home(lb) {
                    let p = all.iter().position(|&x| x == parent);
                    assert!(p.is_some_and(|p| p > at), "{lb:?} before {parent:?} at {n}");
                    assert!(
                        idx < slots(parent, n),
                        "{lb:?} in range of {parent:?} at {n}"
                    );
                }
            }
        }
        assert_eq!(
            blocks(0..MAX_DATA_BLOCKS + 9).count() as u64,
            MAX_DATA_BLOCKS + 1_026
        );
    }

    #[test]
    fn a_range_is_the_difference_of_two_files() {
        let sizes = [
            0,
            5,
            12,
            13,
            700,
            DOUBLE,
            DOUBLE + 1,
            DOUBLE + 1_024,
            DOUBLE + 1_025,
            3_400,
        ];
        for &keep in &sizes {
            for &n in sizes.iter().filter(|&&n| n >= keep) {
                let kept: Vec<LBlock> = blocks(0..keep).collect();
                let mut want: Vec<LBlock> = blocks(0..n).filter(|lb| !kept.contains(lb)).collect();
                let mut got: Vec<LBlock> = blocks(keep..n).collect();
                want.sort();
                got.sort();
                assert_eq!(got, want, "{keep}..{n}");
            }
        }
        assert_eq!(
            blocks(DOUBLE..DOUBLE + 1).collect::<Vec<_>>(),
            [Data(1_036), Ind2Child(0), Ind2]
        );
        assert_eq!(blocks(12..13).collect::<Vec<_>>(), [Data(12), Ind1]);
    }

    #[test]
    fn a_fresh_indirect_block_is_all_unassigned() {
        let blk = fresh_indirect();
        assert_eq!(blk.len(), hl_vdev::BLOCK_SIZE);
        assert!((0..NPTR).all(|i| crate::ondisk::get_u32(&blk, i * 4) == UNASSIGNED));
    }
}
