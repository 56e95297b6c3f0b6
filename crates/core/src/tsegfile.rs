//! The tertiary segment summary table ("tsegfile", §6.4).
//!
//! "To record summary information for each tertiary volume, HighLight
//! adds a companion file similar to the ifile. It contains tertiary
//! segment summaries in the same format as the secondary segment
//! summaries found in the ifile."
//!
//! The table is authoritative in core (like the ifile's tables) and
//! serialized into a well-known disk-resident file at checkpoint — "all
//! the special files used by the base LFS and HighLight are known to the
//! migrator and always remain on disk."

use std::collections::BTreeMap;

use hl_lfs::config::TertiaryHooks;
use hl_lfs::ondisk::{self, SegUse, SEGUSE_SIZE};
use hl_lfs::types::SegNo;
use std::cell::RefCell;
use std::rc::Rc;

/// Per-volume state beyond the per-segment entries.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct VolumeSummary {
    /// Next unwritten slot (media are "consumed one at a time", §6.5).
    pub next_slot: u32,
    /// The volume hit end-of-medium and accepts no more segments (§6.3).
    pub full: bool,
    /// Serial space for migration partials written to this volume.
    pub last_serial: u64,
}

/// The in-core tertiary segment table. Sparse: a Metrum robot has
/// millions of slots, almost all forever untouched.
#[derive(Debug, Default)]
pub struct TsegTable {
    segs: BTreeMap<SegNo, SegUse>,
    vols: BTreeMap<u32, VolumeSummary>,
    /// Bytes currently live across all tertiary segments.
    live_total: i64,
}

impl TsegTable {
    /// An empty table.
    pub fn new() -> TsegTable {
        TsegTable::default()
    }

    /// Entry for a tertiary segment (zeroed default when untouched).
    pub fn seg(&self, seg: SegNo) -> SegUse {
        self.segs
            .get(&seg)
            .copied()
            .unwrap_or_else(|| SegUse::clean(0))
    }

    /// Mutable entry, materializing on first touch.
    pub fn seg_mut(&mut self, seg: SegNo) -> &mut SegUse {
        self.segs.entry(seg).or_insert_with(|| SegUse::clean(0))
    }

    /// Volume summary.
    pub fn volume(&self, vol: u32) -> VolumeSummary {
        self.vols.get(&vol).copied().unwrap_or_default()
    }

    /// Mutable volume summary.
    pub fn volume_mut(&mut self, vol: u32) -> &mut VolumeSummary {
        self.vols.entry(vol).or_default()
    }

    /// Moves a volume's write cursor past `slot` (it never moves back:
    /// media are consumed one slot at a time, §6.5).
    pub fn advance_cursor(&mut self, vol: u32, slot: u32) {
        let v = self.volume_mut(vol);
        v.next_slot = v.next_slot.max(slot + 1);
    }

    /// Adjusts a tertiary segment's live bytes (the [`TertiaryHooks`]
    /// path from the LFS core).
    pub fn add_live(&mut self, seg: SegNo, delta: i64) {
        let u = self.seg_mut(seg);
        let v = u.live_bytes as i64 + delta;
        debug_assert!(v >= 0, "tertiary segment {seg} live bytes negative");
        u.live_bytes = v.max(0) as u32;
        if v > 0 {
            u.flags |= ondisk::seg_flags::DIRTY;
        }
        self.live_total += delta;
    }

    /// Replaces every per-segment live-byte count with audited truth
    /// (crash reconciliation: the on-disk tsegfile is only as fresh as
    /// the last checkpoint, while pointers persist at every sync).
    pub fn reset_live(&mut self, audited: &std::collections::BTreeMap<SegNo, u64>) {
        for u in self.segs.values_mut() {
            u.live_bytes = 0;
        }
        let mut total: i64 = 0;
        for (&seg, &bytes) in audited {
            let u = self.seg_mut(seg);
            u.live_bytes = bytes.min(u32::MAX as u64) as u32;
            if bytes > 0 {
                u.flags |= ondisk::seg_flags::DIRTY;
                if u.write_serial == 0 {
                    u.write_serial = 1;
                }
            }
            total += bytes as i64;
        }
        self.live_total = total;
    }

    /// Total live tertiary bytes.
    pub fn live_total(&self) -> u64 {
        self.live_total.max(0) as u64
    }

    /// Live bytes on one volume (for the tertiary cleaner's victim
    /// selection, §10).
    pub fn volume_live(&self, map: &crate::UniformMap, vol: u32) -> u64 {
        (0..map.segs_per_volume)
            .map(|s| self.seg(map.tert_seg(vol, s)).live_bytes as u64)
            .sum()
    }

    /// Touched (ever-written) tertiary segments, ascending.
    pub fn touched(&self) -> impl Iterator<Item = (SegNo, &SegUse)> + '_ {
        self.segs.iter().map(|(&s, u)| (s, u))
    }

    /// Serializes the table: a count header followed by
    /// `(seg, SegUse)` records and `(vol, VolumeSummary)` records.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![0u8; 16 + self.segs.len() * (4 + SEGUSE_SIZE) + self.vols.len() * 20];
        ondisk::put_u32(&mut out, 0, self.segs.len() as u32);
        ondisk::put_u32(&mut out, 4, self.vols.len() as u32);
        ondisk::put_u64(&mut out, 8, self.live_total.max(0) as u64);
        let mut off = 16;
        for (&seg, u) in &self.segs {
            ondisk::put_u32(&mut out, off, seg);
            u.encode(&mut out[off + 4..off + 4 + SEGUSE_SIZE]);
            off += 4 + SEGUSE_SIZE;
        }
        for (&vol, v) in &self.vols {
            ondisk::put_u32(&mut out, off, vol);
            ondisk::put_u32(&mut out, off + 4, v.next_slot);
            ondisk::put_u32(&mut out, off + 8, v.full as u32);
            ondisk::put_u64(&mut out, off + 12, v.last_serial);
            off += 20;
        }
        out
    }

    /// Restores a table from [`TsegTable::encode`] output.
    pub fn decode(raw: &[u8]) -> TsegTable {
        let nsegs = ondisk::get_u32(raw, 0) as usize;
        let nvols = ondisk::get_u32(raw, 4) as usize;
        let live_total = ondisk::get_u64(raw, 8) as i64;
        let mut t = TsegTable {
            live_total,
            ..Default::default()
        };
        let mut off = 16;
        for _ in 0..nsegs {
            let seg = ondisk::get_u32(raw, off);
            t.segs.insert(seg, SegUse::decode(&raw[off + 4..]));
            off += 4 + SEGUSE_SIZE;
        }
        for _ in 0..nvols {
            let vol = ondisk::get_u32(raw, off);
            t.vols.insert(
                vol,
                VolumeSummary {
                    next_slot: ondisk::get_u32(raw, off + 4),
                    full: ondisk::get_u32(raw, off + 8) != 0,
                    last_serial: ondisk::get_u64(raw, off + 12),
                },
            );
            off += 20;
        }
        t
    }
}

/// Shared handle wiring the table into the LFS core as its
/// [`TertiaryHooks`] implementation.
#[derive(Clone, Default)]
pub struct TsegHooks {
    /// The shared table.
    pub table: Rc<RefCell<TsegTable>>,
}

impl TertiaryHooks for TsegHooks {
    fn add_live(&self, seg: SegNo, delta: i64) {
        self.table.borrow_mut().add_live(seg, delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn live_accounting_accumulates() {
        let mut t = TsegTable::new();
        t.add_live(1000, 4096);
        t.add_live(1000, 4096);
        t.add_live(2000, 128);
        assert_eq!(t.seg(1000).live_bytes, 8192);
        assert_eq!(t.live_total(), 8320);
        t.add_live(1000, -4096);
        assert_eq!(t.seg(1000).live_bytes, 4096);
        assert_eq!(t.live_total(), 4224);
    }

    #[test]
    fn untouched_segments_read_as_clean_zero() {
        let t = TsegTable::new();
        assert_eq!(t.seg(12345).live_bytes, 0);
        assert!(t.seg(12345).is_clean());
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut t = TsegTable::new();
        t.add_live(5000, 4096);
        t.add_live(7000, 12288);
        {
            let v = t.volume_mut(3);
            v.next_slot = 17;
            v.full = true;
            v.last_serial = 99;
        }
        let raw = t.encode();
        let back = TsegTable::decode(&raw);
        assert_eq!(back.seg(5000).live_bytes, 4096);
        assert_eq!(back.seg(7000).live_bytes, 12288);
        assert_eq!(back.volume(3).next_slot, 17);
        assert!(back.volume(3).full);
        assert_eq!(back.volume(3).last_serial, 99);
        assert_eq!(back.live_total(), t.live_total());
    }

    #[test]
    fn hooks_route_to_shared_table() {
        use hl_lfs::config::TertiaryHooks as _;
        let hooks = TsegHooks::default();
        hooks.add_live(42, 4096);
        assert_eq!(hooks.table.borrow().seg(42).live_bytes, 4096);
    }

    #[test]
    fn volume_live_sums_slots() {
        let map = crate::UniformMap::new(2, 256, 16, 4, 8);
        let mut t = TsegTable::new();
        t.add_live(map.tert_seg(2, 0), 4096);
        t.add_live(map.tert_seg(2, 7), 8192);
        t.add_live(map.tert_seg(1, 0), 100);
        assert_eq!(t.volume_live(&map, 2), 12288);
        assert_eq!(t.volume_live(&map, 1), 100);
        assert_eq!(t.volume_live(&map, 0), 0);
    }
}
