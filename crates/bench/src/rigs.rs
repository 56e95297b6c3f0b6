//! Paper-scale device stacks and filesystem rigs (§7's testbed).
//!
//! "The tests ran on an HP 9000/370 CPU with 32 MB of main memory (with
//! 3.2 MB of buffer cache) ... a DEC RZ57 SCSI disk drive for the tests,
//! with the on-disk filesystem occupying an 848MB partition. The tertiary
//! storage device was a SCSI-attached HP 6300 magneto-optic (MO) changer
//! with two drives and 32 cartridges ... the tests constrained
//! HighLight's use of each platter to 40MB."
//!
//! Kept here rather than merged into `highlight::rig`: it mounts `hl-ffs`,
//! which `highlight` must not depend on.

use std::rc::Rc;

use highlight::{HighLight, HlConfig};
use hl_ffs::{Ffs, FfsConfig};
use hl_footprint::{Jukebox, JukeboxConfig};
use hl_lfs::{Lfs, LfsConfig, LinearMap, NoTertiary};
use hl_sim::Clock;
use hl_vdev::{BlockDev, Disk, DiskProfile, ScsiBus};

/// Blocks in the paper's 848 MB RZ57 partition.
pub const RZ57_BLOCKS: u64 = 217_088;

/// A full paper-style rig: one RZ57, one HP 6300 changer, one SCSI bus.
pub struct Rig {
    /// The shared virtual clock.
    pub clock: Clock,
    /// The shared SCSI bus.
    pub bus: ScsiBus,
    /// The filesystem disk.
    pub disk: Rc<Disk>,
    /// The MO changer.
    pub jukebox: Jukebox,
}

impl Rig {
    /// Builds the §7 testbed.
    pub fn paper() -> Rig {
        let clock = Clock::new();
        let bus = ScsiBus::new("scsi0");
        let disk = Rc::new(Disk::new(DiskProfile::RZ57, RZ57_BLOCKS, Some(bus.clone())));
        let jukebox = Jukebox::new(JukeboxConfig::hp6300_paper(), Some(bus.clone()));
        Rig {
            clock,
            bus,
            disk,
            jukebox,
        }
    }

    /// Formats and mounts a fresh FFS on the rig's disk.
    pub fn ffs(&self) -> Ffs {
        let cfg = FfsConfig::paper(self.clock.clone());
        Ffs::mkfs(self.disk.clone() as Rc<dyn BlockDev>, cfg.clone()).expect("mkfs ffs");
        Ffs::mount(self.disk.clone() as Rc<dyn BlockDev>, cfg).expect("mount ffs")
    }

    /// Formats and mounts a fresh base LFS on the rig's disk.
    pub fn lfs(&self) -> Lfs {
        let cfg = LfsConfig::base(self.clock.clone());
        let amap = Rc::new(LinearMap::for_device(
            self.disk.nblocks(),
            cfg.blocks_per_seg(),
            hl_lfs::fs::BOOT_BLOCKS,
        ));
        Lfs::mkfs(
            self.disk.clone() as Rc<dyn BlockDev>,
            amap.clone(),
            Rc::new(NoTertiary),
            cfg.clone(),
        )
        .expect("mkfs lfs");
        Lfs::mount(
            self.disk.clone() as Rc<dyn BlockDev>,
            amap,
            Rc::new(NoTertiary),
            cfg,
        )
        .expect("mount lfs")
    }

    /// Formats and mounts a fresh HighLight with `cache_segs` cache
    /// lines.
    pub fn highlight(&self, cache_segs: u32) -> HighLight {
        let cfg = HlConfig::paper(self.clock.clone(), cache_segs);
        HighLight::mkfs(
            self.disk.clone() as Rc<dyn BlockDev>,
            Rc::new(self.jukebox.clone()),
            cfg.clone(),
        )
        .expect("mkfs highlight");
        HighLight::mount(
            self.disk.clone() as Rc<dyn BlockDev>,
            Rc::new(self.jukebox.clone()),
            cfg,
        )
        .expect("mount highlight")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_lfs::Ufs;

    #[test]
    fn paper_rig_mounts_all_three_filesystems() {
        // Three separate rigs: each mkfs reformats the disk.
        let mut ffs = Rig::paper().ffs();
        let ino = ffs.create("/x").unwrap();
        ffs.write(ino, 0, b"ffs").unwrap();

        let mut lfs = Rig::paper().lfs();
        let ino = lfs.create("/x").unwrap();
        lfs.write(ino, 0, b"lfs").unwrap();

        let mut hl = Rig::paper().highlight(16);
        let ino = hl.create("/x").unwrap();
        hl.write(ino, 0, b"hl!").unwrap();
    }
}
