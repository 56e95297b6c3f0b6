//! Whole-hierarchy consistency checking (`hlfsck`).
//!
//! [`hl_lfs::Lfs::check`] audits a single-level LFS: namespace, link counts,
//! block pointers, segment accounting. HighLight adds state *around*
//! that LFS — the tsegfile, the segment cache, the replica table, and
//! media the LFS never reads directly — and a crash can tear any of it.
//! `hlfsck` extends the audit across the hierarchy:
//!
//! - every tertiary address the log references resolves to a cached
//!   line or a copied-out segment whose media image actually holds data;
//! - no referenced segment lies in the dead zone or past a volume's
//!   write cursor;
//! - tsegfile live-byte accounting (per segment and in total) matches a
//!   fresh walk of the inode map;
//! - every `Clean` cache line is byte-identical to its tertiary home;
//! - every replica copy recorded by [`crate::ReplicaSet`] is readable
//!   and byte-identical to the primary.
//!
//! Findings follow the [`Finding`]-style discipline of `check.rs`: an
//! enum in discovery order with a deterministic one-line render, so the
//! torture harness can diff whole reports across seeds.

use std::fmt;
use std::fmt::Write as _;

use hl_lfs::check::Finding;
use hl_lfs::config::AddressMap;
use hl_lfs::error::Result;
use hl_lfs::types::SegNo;

use crate::fs::HighLight;
use crate::segcache::LineState;

/// One cross-level consistency finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum HlFinding {
    /// A finding from the base single-level LFS check.
    Lfs(Finding),
    /// A referenced tertiary segment is neither cached nor on media:
    /// its data exist nowhere in the hierarchy.
    UnresolvedTertiary {
        /// The referenced segment.
        seg: SegNo,
    },
    /// A live block pointer resolves to a tertiary segment number
    /// outside every volume (the dead zone, §6.3).
    DeadZoneTertiary {
        /// The bogus segment number.
        seg: SegNo,
    },
    /// The tsegfile says this segment was copied out, but its media
    /// image is blank — the copy-out never reached the medium.
    MediaMissing {
        /// The segment.
        seg: SegNo,
        /// Volume holding it.
        vol: u32,
        /// Slot within the volume.
        slot: u32,
    },
    /// The media image of a copied-out segment cannot be read.
    MediaUnreadable {
        /// The segment.
        seg: SegNo,
        /// Volume holding it.
        vol: u32,
        /// Slot within the volume.
        slot: u32,
    },
    /// A volume's next-slot cursor is at or below a slot that already
    /// holds data — the next migration would overwrite it.
    CursorBehind {
        /// Volume whose cursor lags.
        vol: u32,
        /// The recorded cursor.
        next_slot: u32,
        /// An occupied slot at or past the cursor.
        slot: u32,
        /// The segment in that slot.
        seg: SegNo,
    },
    /// A tertiary segment's recorded live bytes differ from the
    /// audited value.
    LiveBytesMismatch {
        /// The segment.
        seg: SegNo,
        /// Live bytes in the tsegfile.
        recorded: u32,
        /// Live bytes from the inode-map walk.
        audited: u64,
    },
    /// The tsegfile's total live-byte counter drifted from the audit.
    LiveTotalMismatch {
        /// Total in the tsegfile.
        recorded: u64,
        /// Total from the inode-map walk.
        audited: u64,
    },
    /// A `Clean` cache line's bytes differ from its tertiary home.
    CacheDivergence {
        /// The cached tertiary segment.
        tert_seg: SegNo,
        /// The disk segment acting as the line.
        disk_seg: SegNo,
        /// First differing byte offset.
        first_diff: usize,
    },
    /// A cache line's disk segment cannot be read.
    CacheUnreadable {
        /// The cached tertiary segment.
        tert_seg: SegNo,
        /// The disk segment acting as the line.
        disk_seg: SegNo,
    },
    /// A recorded replica copy cannot be read.
    ReplicaUnreadable {
        /// The replicated segment.
        seg: SegNo,
        /// Volume of the unreadable copy.
        vol: u32,
        /// Slot of the unreadable copy.
        slot: u32,
    },
    /// A replica copy's bytes differ from the primary copy.
    ReplicaDivergence {
        /// The replicated segment.
        seg: SegNo,
        /// Volume of the divergent copy.
        vol: u32,
        /// Slot of the divergent copy.
        slot: u32,
        /// First differing byte offset.
        first_diff: usize,
    },
}

impl fmt::Display for HlFinding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HlFinding::Lfs(inner) => write!(f, "lfs: {inner:?}"),
            HlFinding::UnresolvedTertiary { seg } => {
                write!(
                    f,
                    "tertiary seg {seg} referenced but neither cached nor on media"
                )
            }
            HlFinding::DeadZoneTertiary { seg } => {
                write!(f, "tertiary seg {seg} lies in the dead zone")
            }
            HlFinding::MediaMissing { seg, vol, slot } => {
                write!(
                    f,
                    "seg {seg} (vol {vol} slot {slot}) copied out but media is blank"
                )
            }
            HlFinding::MediaUnreadable { seg, vol, slot } => {
                write!(f, "seg {seg} (vol {vol} slot {slot}) media unreadable")
            }
            HlFinding::CursorBehind {
                vol,
                next_slot,
                slot,
                seg,
            } => write!(
                f,
                "vol {vol} cursor {next_slot} at or below occupied slot {slot} (seg {seg})"
            ),
            HlFinding::LiveBytesMismatch {
                seg,
                recorded,
                audited,
            } => write!(
                f,
                "seg {seg} live bytes: tsegfile says {recorded}, audit says {audited}"
            ),
            HlFinding::LiveTotalMismatch { recorded, audited } => {
                write!(
                    f,
                    "tertiary live total: tsegfile says {recorded}, audit says {audited}"
                )
            }
            HlFinding::CacheDivergence {
                tert_seg,
                disk_seg,
                first_diff,
            } => write!(
                f,
                "cache line {disk_seg} diverges from tertiary home {tert_seg} at byte {first_diff}"
            ),
            HlFinding::CacheUnreadable { tert_seg, disk_seg } => {
                write!(f, "cache line {disk_seg} (tertiary {tert_seg}) unreadable")
            }
            HlFinding::ReplicaUnreadable { seg, vol, slot } => {
                write!(
                    f,
                    "replica of seg {seg} at vol {vol} slot {slot} unreadable"
                )
            }
            HlFinding::ReplicaDivergence {
                seg,
                vol,
                slot,
                first_diff,
            } => write!(
                f,
                "replica of seg {seg} at vol {vol} slot {slot} diverges at byte {first_diff}"
            ),
        }
    }
}

/// The result of a whole-hierarchy check.
#[derive(Clone, Debug, Default)]
pub struct HlfsckReport {
    /// Everything suspicious, in discovery order.
    pub findings: Vec<HlFinding>,
    /// Referenced tertiary segments examined.
    pub tert_refs_checked: u32,
    /// Clean cache lines byte-compared against their homes.
    pub cache_lines_checked: u32,
    /// Replica copies byte-compared against their primaries.
    pub replica_copies_checked: u32,
}

impl HlfsckReport {
    /// `true` when the whole hierarchy is consistent.
    pub fn clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Deterministic one-line-per-finding render: same filesystem state
    /// ⇒ identical string, so torture runs can be diffed across seeds.
    pub fn render(&self) -> String {
        let mut out = format!(
            "hlfsck: {} findings ({} tert refs, {} cache lines, {} replica copies checked)\n",
            self.findings.len(),
            self.tert_refs_checked,
            self.cache_lines_checked,
            self.replica_copies_checked,
        );
        for finding in &self.findings {
            let _ = writeln!(out, "  {finding}");
        }
        out
    }
}

impl HighLight {
    /// Runs the whole-hierarchy check.
    pub fn fsck(&mut self) -> Result<HlfsckReport> {
        let mut report = HlfsckReport::default();
        let map = self.map();
        let tio = self.tio();
        let tseg = self.tseg();
        let cache = self.cache();
        let jukebox = tio.jukebox();
        let seg_bytes = jukebox.segment_bytes();

        // Pass 1: the base single-level LFS audit (namespace, link
        // counts, pointers — including dead-zone pointers —, segment
        // usage, free list).
        let base = self.lfs().check()?;
        report
            .findings
            .extend(base.findings.into_iter().map(HlFinding::Lfs));

        // Pass 2: every tertiary segment the log references must
        // resolve to real data, and the tsegfile must agree with a
        // fresh audit of the inode map.
        let (_, tert_refs) = self.lfs().audit_all_live()?;
        let mut media = vec![0u8; seg_bytes];
        for (&seg, &audited) in &tert_refs {
            report.tert_refs_checked += 1;
            let Some((vol, slot)) = map.vol_slot(seg) else {
                report.findings.push(HlFinding::DeadZoneTertiary { seg });
                continue;
            };
            let usage = tseg.borrow().seg(seg);
            let cached = cache.borrow().peek(seg).is_some();
            let on_media = usage.avail_bytes > 0;
            if !cached && !on_media {
                report.findings.push(HlFinding::UnresolvedTertiary { seg });
            }
            if on_media {
                match jukebox.peek_segment(vol, slot, &mut media) {
                    Err(_) if !cached => {
                        report
                            .findings
                            .push(HlFinding::MediaUnreadable { seg, vol, slot });
                    }
                    Ok(()) if media.iter().all(|&b| b == 0) => {
                        report
                            .findings
                            .push(HlFinding::MediaMissing { seg, vol, slot });
                    }
                    _ => {}
                }
                let vs = tseg.borrow().volume(vol);
                if slot >= vs.next_slot {
                    report.findings.push(HlFinding::CursorBehind {
                        vol,
                        next_slot: vs.next_slot,
                        slot,
                        seg,
                    });
                }
            }
            if usage.live_bytes as u64 != audited {
                report.findings.push(HlFinding::LiveBytesMismatch {
                    seg,
                    recorded: usage.live_bytes,
                    audited,
                });
            }
        }
        // Touched segments the audit no longer references must carry no
        // live bytes (migrated-away-and-cleaned segments).
        let stale: Vec<(SegNo, u32)> = tseg
            .borrow()
            .touched()
            .filter(|(seg, u)| u.live_bytes > 0 && !tert_refs.contains_key(seg))
            .map(|(seg, u)| (seg, u.live_bytes))
            .collect();
        for (seg, recorded) in stale {
            report.findings.push(HlFinding::LiveBytesMismatch {
                seg,
                recorded,
                audited: 0,
            });
        }
        let audited_total: u64 = tert_refs.values().sum();
        let recorded_total = tseg.borrow().live_total();
        if recorded_total != audited_total {
            report.findings.push(HlFinding::LiveTotalMismatch {
                recorded: recorded_total,
                audited: audited_total,
            });
        }

        // Pass 3: every Clean cache line must be byte-identical to its
        // tertiary home. (Staging and DirtyWait lines have no tertiary
        // copy yet; the line itself *is* the data.)
        let mut lines: Vec<(SegNo, SegNo, LineState)> = cache
            .borrow()
            .lines()
            .map(|l| (l.tert_seg, l.disk_seg, l.state))
            .collect();
        lines.sort_unstable_by_key(|&(tert, _, _)| tert);
        let disks = tio.disks_handle();
        let mut cached_bytes = vec![0u8; seg_bytes];
        for (tert_seg, disk_seg, state) in lines {
            if state != LineState::Clean {
                continue;
            }
            report.cache_lines_checked += 1;
            let Some((vol, slot)) = map.vol_slot(tert_seg) else {
                report
                    .findings
                    .push(HlFinding::DeadZoneTertiary { seg: tert_seg });
                continue;
            };
            if disks
                .peek(map.seg_base(disk_seg) as u64, &mut cached_bytes)
                .is_err()
            {
                report
                    .findings
                    .push(HlFinding::CacheUnreadable { tert_seg, disk_seg });
                continue;
            }
            if jukebox.peek_segment(vol, slot, &mut media).is_err() {
                report.findings.push(HlFinding::MediaUnreadable {
                    seg: tert_seg,
                    vol,
                    slot,
                });
                continue;
            }
            if let Some(first_diff) = first_difference(&cached_bytes, &media) {
                report.findings.push(HlFinding::CacheDivergence {
                    tert_seg,
                    disk_seg,
                    first_diff,
                });
            }
        }

        // Pass 4: every recorded replica copy must be readable and
        // byte-identical to the primary copy.
        let mut rsegs = tio.replicas().borrow().segments();
        rsegs.sort_unstable();
        let mut primary = vec![0u8; seg_bytes];
        for seg in rsegs {
            let homes = tio.replicas().borrow().homes(&map, seg);
            let Some(&(pvol, pslot)) = homes.first() else {
                continue;
            };
            if jukebox.peek_segment(pvol, pslot, &mut primary).is_err() {
                report.findings.push(HlFinding::ReplicaUnreadable {
                    seg,
                    vol: pvol,
                    slot: pslot,
                });
                continue;
            }
            for &(vol, slot) in &homes[1..] {
                report.replica_copies_checked += 1;
                if jukebox.peek_segment(vol, slot, &mut media).is_err() {
                    report
                        .findings
                        .push(HlFinding::ReplicaUnreadable { seg, vol, slot });
                    continue;
                }
                if let Some(first_diff) = first_difference(&primary, &media) {
                    report.findings.push(HlFinding::ReplicaDivergence {
                        seg,
                        vol,
                        slot,
                        first_diff,
                    });
                }
            }
        }

        Ok(report)
    }
}

fn first_difference(a: &[u8], b: &[u8]) -> Option<usize> {
    a.iter().zip(b.iter()).position(|(x, y)| x != y)
}
