//! The one rig builder, in two halves, for every test, bench and
//! example that needs the paper's devices.
//!
//! - [`HlRig`] is the mounted hierarchy: a clock, an RZ57 cache disk
//!   and a jukebox (optionally on one SCSI bus, as in §7's testbed),
//!   with the [`HlConfig`] that `mkfs` and every mount of them use.
//! - [`RigSpec`] is the engine alone: a cache disk, a jukebox, a
//!   segment cache and a [`TertiaryIo`] over them, with no filesystem
//!   on top. Its default is the 64-segment RZ57 test rig (4 volumes × 8
//!   slots, two drives, cache lines `40..52`). [`RigSpec::cache_disk`]
//!   is the scenario/shard shape: an RZ58 that holds nothing but the
//!   cache pool, with the deterministic [`seg_image`] poked onto every
//!   tertiary segment so fetched bytes have an oracle. The image is one
//!   block repeated, so every slot holds 256 handles onto that block.
//!
//! Both are parameterised only by what their callers vary; both cut the
//! changer down with [`hp6300`].

use std::cell::RefCell;
use std::ops::Range;
use std::rc::Rc;

use hl_footprint::{Jukebox, JukeboxConfig};
use hl_lfs::error::Result;
use hl_lfs::recovery::RecoveryReport;
use hl_lfs::types::SegNo;
use hl_sim::Clock;
use hl_vdev::{Block, BlockDev, Disk, DiskProfile, ScsiBus, BLOCK_SIZE};

use crate::segcache::{EjectPolicy, SegCache};
use crate::service::TertiaryIo;
use crate::tsegfile::TsegTable;
use crate::{HighLight, HlConfig, UniformMap};

/// Blocks per segment on every rig (1 MB segments, as in the paper).
pub const BLOCKS_PER_SEG: u32 = 256;

/// Blocks in the paper's 848 MB RZ57 partition (§7).
pub const RZ57_BLOCKS: u64 = 217_088;

/// The paper's HP 6300 changer cut down to `volumes` platters of
/// `slots` segments each.
pub fn hp6300(volumes: u32, slots: u32) -> JukeboxConfig {
    JukeboxConfig {
        volumes,
        segments_per_volume: slots,
        ..JukeboxConfig::hp6300_paper()
    }
}

/// A HighLight hierarchy's devices and configuration. A caller that
/// varies the configuration sets [`HlRig::cfg`] before it formats or
/// mounts; the torture harness mounts the same devices through a
/// crash-injecting wrapper of [`HlRig::disk`].
pub struct HlRig {
    /// The shared virtual clock (the one in `cfg`).
    pub clock: Clock,
    /// The cache disk, an RZ57.
    pub disk: Rc<Disk>,
    /// The tertiary device.
    pub jukebox: Jukebox,
    /// What `mkfs` and every mount pass to HighLight.
    pub cfg: HlConfig,
}

impl HlRig {
    /// An RZ57 of exactly `disk_blocks` blocks (its size sets the seek
    /// curve) and a `jukebox`, both on `bus` if one is given, under
    /// [`HlConfig::paper`] with `cache_lines` cache segments.
    pub fn new(
        disk_blocks: u64,
        jukebox: JukeboxConfig,
        cache_lines: u32,
        bus: Option<ScsiBus>,
    ) -> HlRig {
        let clock = Clock::new();
        HlRig {
            cfg: HlConfig::paper(clock.clone(), cache_lines),
            clock,
            disk: Rc::new(Disk::new(DiskProfile::RZ57, disk_blocks, bus.clone())),
            jukebox: Jukebox::new(jukebox, bus),
        }
    }

    /// Formats HighLight across the devices; panics on failure.
    pub fn mkfs(&self) {
        HighLight::mkfs(
            self.disk.clone(),
            Rc::new(self.jukebox.clone()),
            self.cfg.clone(),
        )
        .expect("mkfs");
    }

    /// Mounts what is on the devices; panics on failure.
    pub fn mount(&self) -> HighLight {
        self.mount_with_report().expect("mount").0
    }

    /// Mounts what is on the devices, as after a crash, with what LFS
    /// recovery did.
    pub fn mount_with_report(&self) -> Result<(HighLight, RecoveryReport)> {
        HighLight::mount_with_report(
            self.disk.clone(),
            Rc::new(self.jukebox.clone()),
            self.cfg.clone(),
        )
    }
}

/// The deterministic 1 MB byte image of tertiary segment `seg` under
/// `seed`: pre-poked onto the media, staged by writer tenants, and
/// compared by the end-of-run oracles. Byte `i` is `7 i + k mod 256`,
/// `k` from `seg` and `seed`, so the image is one 4 KB block repeated.
pub fn seg_image(seed: u64, seg: SegNo) -> Vec<u8> {
    seg_block(seed, seg).repeat(BLOCKS_PER_SEG as usize)
}

/// Every block of [`seg_image`]`(seed, seg)`: its byte pattern repeats
/// every 256 bytes, so each of the segment's blocks is this one.
fn seg_block(seed: u64, seg: SegNo) -> Block {
    let k = (seg as u8).wrapping_mul(13).wrapping_add(seed as u8);
    let mut bytes = [0u8; BLOCK_SIZE];
    for (i, b) in bytes.iter_mut().enumerate() {
        *b = (i as u8).wrapping_mul(7).wrapping_add(k);
    }
    Block::copy_of(&bytes)
}

/// Panics, listing them, if the engine's trace has tracecheck findings.
pub fn assert_clean(tio: &TertiaryIo) {
    let findings = tio.trace_findings();
    assert!(
        findings.is_empty(),
        "tracecheck findings:\n{}",
        findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// An engine over prebuilt devices (the migration pipeline shares its
/// disks and SCSI bus with other actors): a fresh segment cache over
/// disk segments `lines` and an empty tsegfile.
pub fn assemble(
    map: UniformMap,
    jukebox: &Jukebox,
    disk: Rc<dyn BlockDev>,
    lines: Range<u32>,
    eject: EjectPolicy,
) -> Rc<TertiaryIo> {
    let cache = Rc::new(RefCell::new(SegCache::new(lines.collect(), eject)));
    let tseg = Rc::new(RefCell::new(TsegTable::new()));
    Rc::new(TertiaryIo::new(
        map,
        Rc::new(jukebox.clone()),
        disk,
        cache,
        tseg,
    ))
}

/// What the engine rigs vary.
#[derive(Clone, Debug)]
pub struct RigSpec {
    /// Cache-disk model.
    pub disk: DiskProfile,
    /// Segments on the cache disk (its size sets the seek curve).
    pub disk_segs: u32,
    /// Disk segments forming the segment-cache pool.
    pub lines: Range<u32>,
    /// Jukebox volumes.
    pub volumes: u32,
    /// Segment slots per volume.
    pub slots: u32,
    /// Jukebox drives.
    pub drives: usize,
    /// Cache ejection policy.
    pub eject: EjectPolicy,
    /// Pokes [`seg_image`] under this seed onto every tertiary segment.
    pub image_seed: Option<u64>,
}

impl Default for RigSpec {
    fn default() -> RigSpec {
        RigSpec {
            disk: DiskProfile::RZ57,
            disk_segs: 64,
            lines: 40..52,
            volumes: 4,
            slots: 8,
            drives: 2,
            eject: EjectPolicy::Lru,
            image_seed: None,
        }
    }
}

impl RigSpec {
    /// The default rig with cache pool `lines`.
    pub fn with_lines(lines: Range<u32>) -> RigSpec {
        RigSpec {
            lines,
            ..RigSpec::default()
        }
    }

    /// An RZ58 holding only a `lines`-segment cache pool in front of a
    /// `volumes × slots` jukebox carrying the `seed` oracle image.
    pub fn cache_disk(lines: u32, volumes: u32, slots: u32, drives: usize, seed: u64) -> RigSpec {
        RigSpec {
            disk: DiskProfile::RZ58,
            disk_segs: lines,
            lines: 0..lines,
            volumes,
            slots,
            drives,
            eject: EjectPolicy::Lru,
            image_seed: Some(seed),
        }
    }

    /// Builds the devices and the engine; returns the engine, a handle
    /// on its jukebox (pokes, fault plans) and the address map. The
    /// cache disk is reachable through [`TertiaryIo::disks_handle`].
    pub fn build(&self) -> (Rc<TertiaryIo>, Jukebox, UniformMap) {
        let blocks = 2 + u64::from(self.disk_segs) * u64::from(BLOCKS_PER_SEG);
        let disk = Rc::new(Disk::new(self.disk, blocks, None));
        let map = UniformMap::new(2, BLOCKS_PER_SEG, self.disk_segs, self.volumes, self.slots);
        let jb = Jukebox::new(
            JukeboxConfig {
                drives: self.drives,
                ..hp6300(self.volumes, self.slots)
            },
            None,
        );
        if let Some(seed) = self.image_seed {
            // Each slot holds one block's handle 256 times: a segment's
            // oracle costs one block and one handle array, not 1 MB.
            let mut run = Vec::with_capacity(BLOCKS_PER_SEG as usize);
            for vol in 0..self.volumes {
                for slot in 0..self.slots {
                    run.clear();
                    let block = seg_block(seed, map.tert_seg(vol, slot));
                    run.resize(BLOCKS_PER_SEG as usize, block);
                    jb.poke_segment_blocks(vol, slot, &run)
                        .expect("poke oracle segment");
                }
            }
        }
        let tio = assemble(map, &jb, disk, self.lines.clone(), self.eject);
        (tio, jb, map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_footprint::Footprint;

    /// The default preset is the rig the suites hand-assembled up to
    /// PR 12 (`UniformMap::new(2, 256, 64, 4, 8)`, lines `40..52`, two
    /// drives): the drive-pool determinism scenario produces the digest
    /// that rig produces.
    #[test]
    fn default_preset_reproduces_the_hand_built_rig() {
        let (tio, jb, map) = RigSpec::default().build();
        assert_eq!(
            format!("{map:?}"),
            format!("{:?}", UniformMap::new(2, 256, 64, 4, 8))
        );
        assert_eq!(tio.disks_handle().nblocks(), 2 + 64 * 256);
        assert_eq!(tio.cache().borrow().capacity(), 12);
        for slot in 0..3 {
            jb.poke_segment(0, slot, &vec![7u8; 1 << 20]).unwrap();
            jb.poke_segment(1, slot, &vec![8u8; 1 << 20]).unwrap();
        }
        let mut tickets = vec![
            tio.enqueue_demand(0, map.tert_seg(0, 0)),
            tio.enqueue_demand(0, map.tert_seg(1, 0)),
        ];
        for slot in 1..3 {
            tickets.push(tio.enqueue_prefetch(1_000, map.tert_seg(0, slot)));
            tickets.push(tio.enqueue_prefetch(1_000, map.tert_seg(1, slot)));
        }
        tio.pump();
        for t in tickets {
            t.fetch_result().unwrap();
        }
        assert_clean(&tio);
        assert_eq!(tio.trace_digest(), 0xcbc9_cf5d_5230_417a);
    }

    #[test]
    fn seg_image_is_deterministic_and_seg_dependent() {
        assert_eq!(seg_image(1, 5), seg_image(1, 5));
        assert_ne!(seg_image(1, 5), seg_image(1, 6));
        assert_ne!(seg_image(1, 5), seg_image(2, 5));
        assert_eq!(seg_image(1, 5).len(), BLOCKS_PER_SEG as usize * BLOCK_SIZE);
    }

    /// The oracle's bytes are the per-byte formula they have always been
    /// (written out here, not shared with the code), for segments below
    /// and past 256, whose `seg as u8` wraps.
    #[test]
    fn seg_image_is_the_per_byte_formula() {
        for (seed, seg) in [(1993u64, 0), (4242, 37), (7, 300), (u64::MAX, 511)] {
            let k = (seg as u8).wrapping_mul(13).wrapping_add(seed as u8);
            let want: Vec<u8> = (0..1 << 20)
                .map(|i: usize| (i as u8).wrapping_mul(7).wrapping_add(k))
                .collect();
            assert!(seg_image(seed, seg) == want, "seed {seed} seg {seg}");
        }
    }

    /// A cache-disk rig's media hold every oracle byte, each slot as one
    /// shared block.
    #[test]
    fn cache_disk_media_hold_the_oracle() {
        let (_, jb, map) = RigSpec::cache_disk(2, 2, 3, 1, 1993).build();
        let mut back = vec![0u8; 1 << 20];
        for vol in 0..2 {
            for slot in 0..3 {
                jb.peek_segment(vol, slot, &mut back).unwrap();
                assert!(back == seg_image(1993, map.tert_seg(vol, slot)));
            }
        }
    }
}
