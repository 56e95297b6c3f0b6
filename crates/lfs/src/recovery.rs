//! Mount and crash recovery: checkpoint load plus roll-forward (§3).
//!
//! "During recovery the system scans the log, examining each partial
//! segment in sequence. When an incomplete partial segment is found,
//! recovery is complete and the state of the filesystem is the state as
//! of the last complete partial segment."
//!
//! The roll-forward chain is validated three ways: the summary checksum
//! (`ss_sumsum`), the data checksum over the entire payload
//! (`ss_datasum`), and an exact write-serial sequence starting at the
//! checkpoint's `log_serial` — the serial chain cleanly rejects stale
//! summaries left in reused segments. Because the segment writer always
//! packs a file's inode into the same batch as its blocks, applying a
//! partial segment reduces to refreshing the inode map from its inode
//! blocks; data pointers ride inside the inodes. After the scan, live
//! byte counts are re-audited from reachable metadata (the on-disk ifile
//! is only as fresh as the last checkpoint).

use std::rc::Rc;

use hl_vdev::{BlockDev, BLOCK_SIZE};

use crate::config::{AddressMap, LfsConfig, TertiaryHooks};
use crate::error::{LfsError, Result};
use crate::fs::{CachedInode, Lfs, CHECKPOINT_ADDR, SUPERBLOCK_ADDR};
use crate::ondisk::{seg_flags, Checkpoint, IfileEntry, SegUse, Superblock, SEGUSE_SIZE};
use crate::partial::{self, Partial};
use crate::types::{LBlock, IFILE_INO, INODES_PER_BLOCK, UNASSIGNED};
use crate::writer::{IFENT_PER_BLOCK, SEGUSE_PER_BLOCK};

/// What recovery did, for logging and tests.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Checkpoint serial the mount started from.
    pub checkpoint_serial: u64,
    /// Complete partial segments replayed past the checkpoint.
    pub partials_replayed: u32,
    /// Inode-map entries refreshed or added during roll-forward.
    pub inodes_recovered: u32,
}

/// Mounts and additionally returns the [`RecoveryReport`].
pub fn mount_with_report(
    dev: Rc<dyn BlockDev>,
    amap: Rc<dyn AddressMap>,
    hooks: Rc<dyn TertiaryHooks>,
    mut cfg: LfsConfig,
) -> Result<(Lfs, RecoveryReport)> {
    // Superblock.
    let mut blk = vec![0u8; BLOCK_SIZE];
    dev.peek(SUPERBLOCK_ADDR as u64, &mut blk)?;
    let sb = Superblock::decode(&blk)?;
    // The on-media geometry is authoritative over the passed config.
    cfg.seg_bytes = sb.seg_bytes;
    cfg.summary_bytes = sb.summary_bytes;
    cfg.cache_segs = sb.cache_segs;

    let mut fs = Lfs::fresh(dev, amap, hooks, cfg, sb);

    // Newest checkpoint (timed read: mounting costs real I/O).
    let ckblk = fs.read_block(CHECKPOINT_ADDR)?;
    let ckpt = Checkpoint::newest(&ckblk).ok_or(LfsError::Corrupt("no valid checkpoint"))?;
    let mut report = RecoveryReport {
        checkpoint_serial: ckpt.serial,
        ..Default::default()
    };
    fs.ckpt_serial = ckpt.serial;
    fs.log_serial = ckpt.log_serial;
    fs.tert_serial = ckpt.tert_serial;
    fs.ifile_inode_addr = ckpt.ifile_inode_addr;

    // Load the ifile inode from its inode block.
    let iblk = fs.read_block(ckpt.ifile_inode_addr)?;
    let ifile_inode =
        partial::find_inode(&iblk, IFILE_INO).ok_or(LfsError::Corrupt("ifile inode not found"))?;
    fs.inodes.insert(
        IFILE_INO,
        CachedInode {
            d: ifile_inode,
            dirty: false,
            atime_dirty: false,
        },
    );

    // Parse the ifile: cleaner info, segment usage, inode map.
    load_ifile(&mut fs)?;

    // Roll forward from the checkpoint position.
    roll_forward(&mut fs, &ckpt, &mut report)?;

    // Rebuild the free-inode list: roll-forward may have (re)allocated
    // inodes the checkpointed list still chains, and may have appended
    // map entries the list has never seen. Inodes 0 (unused), 1 (ifile)
    // and 2 (root) are never free.
    {
        let mut head = UNASSIGNED;
        for ino in (3..fs.imap.len()).rev() {
            if fs.imap[ino].daddr == UNASSIGNED {
                fs.imap[ino].free_next = head;
                head = ino as u32;
            }
        }
        fs.free_head = head;
    }

    // Live-byte audit: the checkpointed table misses everything after the
    // checkpoint (including the checkpoint's own ifile writes).
    let audited = fs.audit_live_bytes()?;
    for (seg, &live) in audited.iter().enumerate() {
        let u = &mut fs.seguse[seg];
        u.live_bytes = live;
        let special = u.flags & (seg_flags::CACHE | seg_flags::NOSTORE);
        if special == 0 {
            u.flags = if live > 0 { seg_flags::DIRTY } else { 0 };
        }
    }

    // Re-establish the log position.
    let cur = fs.cur_seg;
    {
        let u = &mut fs.seguse[cur as usize];
        u.flags |= seg_flags::ACTIVE | seg_flags::DIRTY;
        if u.write_serial == 0 {
            u.write_serial = fs.log_serial;
        }
    }
    fs.next_seg = fs.pick_clean_segment(cur).ok_or(LfsError::NoSpace)?;

    Ok((fs, report))
}

/// Parses the on-disk ifile into the in-core tables.
fn load_ifile(fs: &mut Lfs) -> Result<()> {
    // Block 0: cleaner info.
    let b0 = fs.ensure_block(IFILE_INO, LBlock::Data(0))?.data.clone();
    fs.free_head = crate::ondisk::get_u32(&b0, 4);
    let ninodes = crate::ondisk::get_u32(&b0, 8) as usize;
    let nsegs = crate::ondisk::get_u32(&b0, 12);
    if nsegs != fs.sb.nsegs {
        return Err(LfsError::Corrupt("ifile/superblock segment count mismatch"));
    }

    // Segment usage table.
    let su_blocks = (fs.sb.nsegs as usize).div_ceil(SEGUSE_PER_BLOCK);
    for bi in 0..su_blocks {
        let l = 1 + bi as u32;
        let blk = fs.ensure_block(IFILE_INO, LBlock::Data(l))?.data.clone();
        for slot in 0..SEGUSE_PER_BLOCK {
            let seg = bi * SEGUSE_PER_BLOCK + slot;
            if seg >= fs.sb.nsegs as usize {
                break;
            }
            fs.seguse[seg] = SegUse::decode(&blk[slot * SEGUSE_SIZE..]);
        }
    }

    // Inode map.
    let im_blocks = ninodes.div_ceil(IFENT_PER_BLOCK).max(1);
    fs.imap = Vec::with_capacity(ninodes);
    for bi in 0..im_blocks {
        let l = (1 + su_blocks + bi) as u32;
        let blk = fs.ensure_block(IFILE_INO, LBlock::Data(l))?.data.clone();
        for slot in 0..IFENT_PER_BLOCK {
            if fs.imap.len() >= ninodes {
                break;
            }
            fs.imap
                .push(IfileEntry::decode(&blk[slot * crate::ondisk::IFENT_SIZE..]));
        }
    }
    Ok(())
}

/// Replays complete partial segments past the checkpoint.
fn roll_forward(fs: &mut Lfs, ckpt: &Checkpoint, report: &mut RecoveryReport) -> Result<()> {
    let mut seg = ckpt.next_seg;
    let mut off = ckpt.next_off;
    let mut expect_serial = ckpt.log_serial;
    let bps = fs.bps();

    loop {
        if off + 2 > bps {
            break; // cannot hold even a summary + one block
        }
        let sum_addr = fs.amap.seg_base(seg) + off;
        let sum_blk = fs.read_block(sum_addr)?;
        // A summary that fails its checksum, breaks the serial chain or
        // describes an impossible geometry ends the log like a torn one.
        let Ok(p) = Partial::parse(&sum_blk, fs.geometry(), off, sum_addr) else {
            break;
        };
        if p.summary.serial != expect_serial {
            break;
        }
        // Verify the data checksum (atomicity of the partial, §3). It
        // covers every payload byte, so a write torn anywhere — even
        // inside a block — stops roll-forward here.
        let data = fs.read_blocks_vec(sum_addr + 1, p.nblocks())?;
        if !p.datasum_matches(&data) {
            break; // torn partial: recovery complete
        }

        // Apply: refresh the inode map from the partial's inode blocks.
        for (iaddr, d) in p.inodes(&data) {
            let ino = d.inumber as usize;
            while fs.imap.len() <= ino {
                fs.imap.push(IfileEntry::free(UNASSIGNED));
            }
            fs.imap[ino] = IfileEntry {
                version: d.gen,
                daddr: iaddr,
                free_next: UNASSIGNED,
            };
            // Invalidate any stale in-core copy loaded from the ifile.
            if d.inumber != IFILE_INO {
                fs.inodes.remove(&d.inumber);
            } else {
                fs.inodes.insert(
                    IFILE_INO,
                    CachedInode {
                        d,
                        dirty: false,
                        atime_dirty: false,
                    },
                );
                fs.ifile_inode_addr = iaddr;
            }
        }
        // Stale cached file blocks (read via the checkpoint-time ifile)
        // could shadow replayed data; drop clean buffers wholesale.
        fs.cache.drop_clean();

        report.partials_replayed += 1;
        report.inodes_recovered += (p.summary.inode_addrs.len() * INODES_PER_BLOCK) as u32;
        expect_serial += 1;
        fs.seguse[seg as usize].flags |= seg_flags::DIRTY;
        if off == 0 {
            fs.seguse[seg as usize].write_serial = p.summary.serial;
        }

        // Next position: further in this segment, else follow the thread.
        let noff = off + 1 + p.nblocks();
        if noff + 2 <= bps {
            off = noff;
        } else {
            match fs.amap.seg_of(p.summary.next) {
                Some(s) if fs.amap.is_secondary(s) => {
                    seg = s;
                    off = 0;
                }
                _ => break,
            }
        }
    }

    // A summary parse failure mid-segment may still mean the thread
    // jumped segments (the writer advances when < 2 blocks remain). The
    // chain above handles the in-segment walk; a failed parse at the
    // first offset of a threaded target simply ends recovery.
    fs.log_serial = expect_serial;
    fs.cur_seg = seg;
    fs.cur_off = off;
    Ok(())
}

#[cfg(test)]
mod tests {
    // Recovery is exercised end-to-end in the crate-level integration
    // tests (tests/ at the workspace root) where full filesystems are
    // built, crashed, and remounted.
}
