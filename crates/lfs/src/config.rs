//! Filesystem configuration and the extension hooks HighLight plugs into.
//!
//! §6.1: HighLight "slightly modifies various portions of the ... 4.4BSD
//! LFS implementation (such as changing the minimum allocatable block
//! size, adding conditional code based on whether segments are secondary
//! or tertiary storage resident, etc.)". Those conditionals are expressed
//! here as two small traits: [`AddressMap`] (which segment does a block
//! belong to, and is that segment secondary?) and [`TertiaryHooks`]
//! (live-byte accounting for tertiary-resident segments, which lives in
//! HighLight's tsegfile rather than the ifile).

use hl_sim::time::SimTime;
use hl_sim::Clock;

use crate::cleaner::CleanerPolicy;
use crate::types::{BlockAddr, SegNo};

/// Host CPU cost model, in microseconds.
///
/// The paper's absolute numbers include real HP 9000/370 CPU time; two
/// effects matter for Table 2's *shape*: LFS "copies block buffers into a
/// staging area before writing to disk" (making its sequential writes
/// slower than FFS despite identical media), and HighLight's modified
/// structures add a small per-block check. These constants are the only
/// tuned knobs in the reproduction; everything else is device-calibrated.
#[derive(Clone, Copy, Debug)]
pub struct CpuCosts {
    /// Per block fetched from the device on the read path.
    pub read_block: SimTime,
    /// Per block staged and written by the segment writer.
    pub write_block: SimTime,
    /// Per filesystem operation (syscall entry, name lookup step, …).
    pub per_op: SimTime,
}

impl CpuCosts {
    /// Base 4.4BSD LFS costs (tuned to Table 2's base-LFS column).
    pub fn lfs() -> CpuCosts {
        CpuCosts {
            read_block: 1550,
            write_block: 2400,
            per_op: 120,
        }
    }

    /// HighLight costs: the same plus the block-map indirection and the
    /// wider summary bookkeeping (Table 2's HighLight columns sit just
    /// below base LFS).
    pub fn highlight() -> CpuCosts {
        CpuCosts {
            read_block: 1650,
            write_block: 2650,
            per_op: 140,
        }
    }

    /// FFS costs: no staging copy on writes (in-place, write-behind)
    /// and a slightly cheaper read path (no inode-map indirection).
    pub fn ffs() -> CpuCosts {
        CpuCosts {
            read_block: 700,
            write_block: 100,
            per_op: 150,
        }
    }
}

/// Tunable filesystem parameters.
#[derive(Clone)]
pub struct LfsConfig {
    /// The shared virtual clock.
    pub clock: Clock,
    /// Segment size in bytes (the paper uses 512 KB or 1 MB; HighLight
    /// uses 1 MB, its tertiary "cache line").
    pub seg_bytes: u32,
    /// Usable bytes in a partial-segment summary (512 in base LFS,
    /// 4096 in HighLight, §6.3). The summary always occupies one 4 KB
    /// block on media; this caps how much description fits in it.
    pub summary_bytes: u32,
    /// Disk segments reserved as tertiary cache lines (0 = base LFS;
    /// static, chosen at mkfs time, §6.4).
    pub cache_segs: u32,
    /// CPU cost model.
    pub cpu: CpuCosts,
    /// The cleaner keeps at least this many clean segments available.
    pub min_clean_segs: u32,
    /// Which dirty segments the cleaner picks first.
    pub cleaner_policy: CleanerPolicy,
}

impl LfsConfig {
    /// A base-LFS configuration over the given clock.
    pub fn base(clock: Clock) -> LfsConfig {
        LfsConfig {
            clock,
            seg_bytes: 1 << 20,
            summary_bytes: 512,
            cache_segs: 0,
            cpu: CpuCosts::lfs(),
            min_clean_segs: 3,
            cleaner_policy: CleanerPolicy::CostBenefit,
        }
    }

    /// A HighLight configuration: 4 KB summaries and room for cache
    /// segments.
    pub fn highlight(clock: Clock, cache_segs: u32) -> LfsConfig {
        LfsConfig {
            summary_bytes: 4096,
            cache_segs,
            cpu: CpuCosts::highlight(),
            ..LfsConfig::base(clock)
        }
    }

    /// Blocks per segment.
    pub fn blocks_per_seg(&self) -> u32 {
        self.seg_bytes / hl_vdev::BLOCK_SIZE as u32
    }
}

/// Maps block addresses to segments and classifies segments.
///
/// The base LFS uses [`LinearMap`]; HighLight substitutes its uniform
/// secondary+tertiary space (Figure 4).
pub trait AddressMap {
    /// Segment containing `addr`, or `None` for non-segment space (the
    /// boot area, the dead zone).
    fn seg_of(&self, addr: BlockAddr) -> Option<SegNo>;

    /// First block of segment `seg`.
    fn seg_base(&self, seg: SegNo) -> BlockAddr;

    /// `true` if the segment is secondary (disk) storage, i.e. managed by
    /// the ifile's segment-usage table.
    fn is_secondary(&self, seg: SegNo) -> bool;

    /// Number of secondary segments (the ifile table length).
    fn nsegs_secondary(&self) -> u32;
}

/// The base LFS address map: one device, segments start after the boot
/// area (whose presence "renders the last addressable segment too short",
/// §6.3 — the map simply excludes it).
#[derive(Clone, Copy, Debug)]
pub struct LinearMap {
    /// First block of segment 0.
    pub seg_start: u32,
    /// Blocks per segment.
    pub blocks_per_seg: u32,
    /// Number of whole segments that fit on the device.
    pub nsegs: u32,
}

impl LinearMap {
    /// Lays segments out on a device of `nblocks`, reserving
    /// `boot_blocks` at the front.
    pub fn for_device(nblocks: u64, blocks_per_seg: u32, boot_blocks: u32) -> LinearMap {
        let usable = nblocks.saturating_sub(boot_blocks as u64);
        LinearMap {
            seg_start: boot_blocks,
            blocks_per_seg,
            nsegs: (usable / blocks_per_seg as u64) as u32,
        }
    }
}

impl AddressMap for LinearMap {
    fn seg_of(&self, addr: BlockAddr) -> Option<SegNo> {
        if addr < self.seg_start {
            return None;
        }
        let seg = (addr - self.seg_start) / self.blocks_per_seg;
        (seg < self.nsegs).then_some(seg)
    }

    fn seg_base(&self, seg: SegNo) -> BlockAddr {
        self.seg_start + seg * self.blocks_per_seg
    }

    fn is_secondary(&self, seg: SegNo) -> bool {
        seg < self.nsegs
    }

    fn nsegs_secondary(&self) -> u32 {
        self.nsegs
    }
}

/// Callbacks for segments outside the ifile's jurisdiction.
///
/// When a tertiary-resident block is overwritten or deleted, its
/// segment's live-byte count must drop — but that count lives in
/// HighLight's tertiary segment summary file, not the ifile. The LFS core
/// calls this hook; the base LFS uses [`NoTertiary`].
pub trait TertiaryHooks {
    /// Adjusts the live-byte count of tertiary segment `seg` by `delta`.
    fn add_live(&self, seg: SegNo, delta: i64);
}

/// Hook implementation for filesystems with no tertiary level.
///
/// # Panics
///
/// Any call panics: in a base LFS no block can carry a tertiary address,
/// so a call indicates a bookkeeping bug.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoTertiary;

impl TertiaryHooks for NoTertiary {
    fn add_live(&self, seg: SegNo, _delta: i64) {
        panic!("tertiary accounting for segment {seg} in a base LFS");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_map_places_segments_after_boot_area() {
        // An 848 MB RZ57 partition: 217088 blocks, 1 MB segments.
        let m = LinearMap::for_device(217_088, 256, 2);
        // The boot blocks shift segment 0 up, "rendering the last
        // addressable segment too short" (§6.3): 848 would fit without
        // the boot area, 847 fit with it.
        assert_eq!(m.nsegs, 847);
        assert_eq!(m.seg_base(0), 2);
        assert_eq!(m.seg_of(0), None);
        assert_eq!(m.seg_of(1), None);
        assert_eq!(m.seg_of(2), Some(0));
        assert_eq!(m.seg_of(2 + 256), Some(1));
        assert_eq!(m.seg_of(2 + 847 * 256), None);
        assert!(m.is_secondary(846));
    }

    #[test]
    fn blocks_per_seg_follows_config() {
        let cfg = LfsConfig::base(Clock::new());
        assert_eq!(cfg.blocks_per_seg(), 256);
        let mut half = cfg.clone();
        half.seg_bytes = 512 * 1024;
        assert_eq!(half.blocks_per_seg(), 128);
    }

    #[test]
    fn highlight_config_differs_where_the_paper_says() {
        let base = LfsConfig::base(Clock::new());
        let hl = LfsConfig::highlight(Clock::new(), 100);
        assert_eq!(base.summary_bytes, 512);
        assert_eq!(hl.summary_bytes, 4096);
        assert_eq!(hl.cache_segs, 100);
        assert!(hl.cpu.write_block > base.cpu.write_block);
    }

    #[test]
    #[should_panic(expected = "tertiary accounting")]
    fn no_tertiary_hook_panics() {
        NoTertiary.add_live(5, -4096);
    }
}
