//! Filesystem consistency checking (an `fsck`-style audit).
//!
//! The on-media state is cross-checked against itself: inode map vs
//! inode blocks, directory tree vs link counts, block pointers vs
//! segment accounting, the free-inode list, and the log position. Tests
//! run this after every torture scenario; a production system would run
//! it after recovery from doubtful media.

use std::collections::{HashMap, HashSet};

use hl_vdev::BLOCK_SIZE;

use crate::error::Result;
use crate::fs::Lfs;
use crate::ondisk::seg_flags;
use crate::ptree;
use crate::types::{BlockAddr, FileKind, Ino, IFILE_INO, ROOT_INO, UNASSIGNED};
use crate::ufs::Ufs;

/// One consistency finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Finding {
    /// Two files (or one file twice) claim the same block.
    DuplicateBlock {
        /// The contested address.
        addr: BlockAddr,
        /// First claimant.
        first: (Ino, i64),
        /// Second claimant.
        second: (Ino, i64),
    },
    /// A block pointer references the boot area or the dead zone.
    BadPointer {
        /// Owning inode.
        ino: Ino,
        /// Logical block (signed, FINFO convention).
        lbn: i64,
        /// The bogus address.
        addr: BlockAddr,
    },
    /// An inode's link count disagrees with the directory tree.
    WrongLinkCount {
        /// The inode.
        ino: Ino,
        /// Count stored in the inode.
        stored: u16,
        /// Count derived from directory entries.
        derived: u16,
    },
    /// A directory entry points at a free or missing inode.
    DanglingEntry {
        /// Directory inode.
        dir: Ino,
        /// Entry name.
        name: String,
        /// Target that does not resolve.
        target: Ino,
    },
    /// An allocated inode is unreachable from the root.
    OrphanInode {
        /// The unreachable inode.
        ino: Ino,
    },
    /// A segment's recorded live bytes differ from the audited value.
    LiveBytesDrift {
        /// The segment.
        seg: u32,
        /// Value in the usage table.
        recorded: u32,
        /// Recomputed value.
        audited: u32,
    },
    /// The free-inode list is cyclic or points at an allocated inode.
    BrokenFreeList {
        /// Where the walk failed.
        at: Ino,
    },
}

/// The result of a full check.
#[derive(Clone, Debug, Default)]
pub struct CheckReport {
    /// Everything suspicious, in discovery order.
    pub findings: Vec<Finding>,
    /// Files reached from the root.
    pub files_reached: u32,
    /// Directories reached from the root.
    pub dirs_reached: u32,
}

impl CheckReport {
    /// `true` when the filesystem is fully consistent.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }
}

impl Lfs {
    /// Runs the full consistency check.
    pub fn check(&mut self) -> Result<CheckReport> {
        let mut report = CheckReport::default();

        // Pass 1: walk the namespace from the root; count link
        // references and reached inodes.
        let mut derived_links: HashMap<Ino, u16> = HashMap::new();
        let mut reached: HashSet<Ino> = HashSet::new();
        let mut stack = vec![(ROOT_INO, "/".to_string())];
        reached.insert(ROOT_INO);
        // "/" has no parent entry; its ".." self-link is counted below.
        while let Some((dino, path)) = stack.pop() {
            report.dirs_reached += 1;
            let entries = self.readdir(&path)?;
            for e in &entries {
                *derived_links.entry(e.ino).or_insert(0) += 1;
                if e.name == "." || e.name == ".." {
                    continue;
                }
                if self.imap_entry_allocated(e.ino) {
                    if reached.insert(e.ino) {
                        match e.kind {
                            FileKind::Directory => {
                                stack.push((
                                    e.ino,
                                    format!("{}/{}", path.trim_end_matches('/'), e.name),
                                ));
                            }
                            FileKind::Regular => report.files_reached += 1,
                        }
                    }
                } else {
                    report.findings.push(Finding::DanglingEntry {
                        dir: dino,
                        name: e.name.clone(),
                        target: e.ino,
                    });
                }
            }
        }

        // Pass 2: per-inode pointer sanity + duplicate block detection +
        // link counts.
        let mut owners: HashMap<BlockAddr, (Ino, i64)> = HashMap::new();
        let inos: Vec<Ino> = (0..self.imap.len() as Ino)
            .filter(|&i| self.imap_entry_allocated(i))
            .collect();
        for ino in inos {
            let st = match self.stat(ino) {
                Ok(st) => st,
                Err(_) => continue,
            };
            if ino != IFILE_INO && !reached.contains(&ino) {
                report.findings.push(Finding::OrphanInode { ino });
            }
            let derived = match st.kind {
                // A directory: one entry in its parent + its own "." +
                // one ".." per child directory — all already counted by
                // the namespace walk (each entry increments its target).
                FileKind::Directory => derived_links.get(&ino).copied().unwrap_or(0),
                FileKind::Regular => derived_links.get(&ino).copied().unwrap_or(0),
            };
            // The ifile has no directory entry. The root needs no
            // special case: its ".." is a self-link, standing in for the
            // parent entry every other directory has.
            let expect_skip = ino == IFILE_INO;
            if !expect_skip && st.nlink != derived {
                report.findings.push(Finding::WrongLinkCount {
                    ino,
                    stored: st.nlink,
                    derived,
                });
            }

            // Walk every block pointer.
            let nblocks = st.size.div_ceil(BLOCK_SIZE as u64);
            let claim = |report: &mut CheckReport,
                         owners: &mut HashMap<BlockAddr, (Ino, i64)>,
                         valid: bool,
                         addr: BlockAddr,
                         lbn: i64| {
                if addr == UNASSIGNED {
                    return;
                }
                if !valid {
                    report.findings.push(Finding::BadPointer { ino, lbn, addr });
                    return;
                }
                if let Some(&first) = owners.get(&addr) {
                    report.findings.push(Finding::DuplicateBlock {
                        addr,
                        first,
                        second: (ino, lbn),
                    });
                } else {
                    owners.insert(addr, (ino, lbn));
                }
            };
            for lb in ptree::blocks(0..nblocks) {
                let addr = self.bmap(ino, lb)?;
                let valid = addr == UNASSIGNED || self.amap.seg_of(addr).is_some();
                claim(&mut report, &mut owners, valid, addr, lb.encode());
            }
        }

        // Pass 3: free-inode list integrity.
        {
            let mut seen = HashSet::new();
            let mut cur = self.free_head;
            while cur != UNASSIGNED {
                if !seen.insert(cur) || self.imap_entry_allocated(cur) {
                    report.findings.push(Finding::BrokenFreeList { at: cur });
                    break;
                }
                cur = self
                    .imap
                    .get(cur as usize)
                    .map_or(UNASSIGNED, |e| e.free_next);
            }
        }

        // Pass 4: live-byte accounting vs a fresh audit.
        let audited = self.audit_live_bytes()?;
        for seg in 0..self.nsegs() {
            let u = self.seg_usage(seg);
            if u.flags & (seg_flags::CACHE | seg_flags::NOSTORE) != 0 {
                continue; // cache lines / retired segments are not
                          // accounted here
            }
            if u.live_bytes != audited[seg as usize] {
                report.findings.push(Finding::LiveBytesDrift {
                    seg,
                    recorded: u.live_bytes,
                    audited: audited[seg as usize],
                });
            }
        }
        Ok(report)
    }

    /// Discards inodes unreachable from the root — §8.2's fsck-style
    /// orphan sweep ("a complete traversal of the file system tree would
    /// be needed to reattach or discard any orphaned file blocks, files,
    /// or directories"). A crash can orphan an inode whose directory
    /// entry removal rolled forward while its (never-rewritten) inode
    /// did not. Returns the number of inodes reaped.
    pub fn reap_orphans(&mut self) -> Result<u32> {
        // Reachability walk.
        let mut reached: HashSet<Ino> = HashSet::new();
        reached.insert(ROOT_INO);
        reached.insert(IFILE_INO);
        let mut stack = vec!["/".to_string()];
        while let Some(path) = stack.pop() {
            for e in self.readdir(&path)? {
                if e.name == "." || e.name == ".." {
                    continue;
                }
                if reached.insert(e.ino) && e.kind == FileKind::Directory {
                    stack.push(format!("{}/{}", path.trim_end_matches('/'), e.name));
                }
            }
        }
        let orphans: Vec<Ino> = (0..self.imap.len() as Ino)
            .filter(|&i| self.imap_entry_allocated(i) && !reached.contains(&i))
            .collect();
        let mut reaped = 0;
        for ino in orphans {
            // Force the link count to the truth before releasing.
            if let Ok(ci) = self.iget_mut(ino) {
                ci.d.nlink = 1;
                ci.dirty = true;
            }
            self.release(ino)?;
            reaped += 1;
        }
        Ok(reaped)
    }

    /// `true` if the inode-map entry is allocated (on media, or created
    /// in core and not yet written).
    fn imap_entry_allocated(&self, ino: Ino) -> bool {
        self.inode_home(ino).is_some() || self.inodes.get(&ino).is_some_and(|i| i.d.nlink > 0)
    }
}

#[cfg(test)]
mod tests {
    // Exercised end-to-end from the crate's integration tests and the
    // workspace torture tests, which run `check()` after every scenario.
}
