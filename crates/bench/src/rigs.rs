//! The paper's testbed (§7) and its FFS and base-LFS mounts.
//!
//! "The tests ran on an HP 9000/370 CPU with 32 MB of main memory (with
//! 3.2 MB of buffer cache) ... a DEC RZ57 SCSI disk drive for the tests,
//! with the on-disk filesystem occupying an 848MB partition. The tertiary
//! storage device was a SCSI-attached HP 6300 magneto-optic (MO) changer
//! with two drives and 32 cartridges ... the tests constrained
//! HighLight's use of each platter to 40MB."
//!
//! The testbed is a [`highlight::rig::HlRig`], which also formats and
//! mounts HighLight on it. The FFS and base-LFS mounts stay here: they
//! mount `hl-ffs`, which `highlight` must not depend on.

use std::rc::Rc;

use highlight::rig::{HlRig, RZ57_BLOCKS};
use hl_ffs::{Ffs, FfsConfig};
use hl_footprint::JukeboxConfig;
use hl_lfs::{Lfs, LfsConfig, LinearMap, NoTertiary};
use hl_vdev::{BlockDev, ScsiBus};

/// Builds the §7 testbed: one 848 MB RZ57 and one HP 6300 changer on one
/// SCSI bus, with 80 cache lines for HighLight.
pub fn paper() -> HlRig {
    HlRig::new(
        RZ57_BLOCKS,
        JukeboxConfig::hp6300_paper(),
        80,
        Some(ScsiBus::new("scsi0")),
    )
}

/// Formats and mounts a fresh FFS on the rig's disk.
pub fn ffs(rig: &HlRig) -> Ffs {
    let cfg = FfsConfig::paper(rig.clock.clone());
    Ffs::mkfs(rig.disk.clone() as Rc<dyn BlockDev>, cfg.clone()).expect("mkfs ffs");
    Ffs::mount(rig.disk.clone() as Rc<dyn BlockDev>, cfg).expect("mount ffs")
}

/// Formats and mounts a fresh base LFS on the rig's disk.
pub fn lfs(rig: &HlRig) -> Lfs {
    let cfg = LfsConfig::base(rig.clock.clone());
    let amap = Rc::new(LinearMap::for_device(
        rig.disk.nblocks(),
        cfg.blocks_per_seg(),
        hl_lfs::fs::BOOT_BLOCKS,
    ));
    let disk = rig.disk.clone() as Rc<dyn BlockDev>;
    Lfs::mkfs(disk.clone(), amap.clone(), Rc::new(NoTertiary), cfg.clone()).expect("mkfs lfs");
    Lfs::mount(disk, amap, Rc::new(NoTertiary), cfg).expect("mount lfs")
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_lfs::Ufs;

    #[test]
    fn paper_rig_mounts_all_three_filesystems() {
        // Three separate rigs: each mkfs reformats the disk.
        let mut ffs = ffs(&paper());
        let ino = ffs.create("/x").unwrap();
        ffs.write(ino, 0, b"ffs").unwrap();

        let mut lfs = lfs(&paper());
        let ino = lfs.create("/x").unwrap();
        lfs.write(ino, 0, b"lfs").unwrap();

        let rig = paper();
        rig.mkfs();
        let mut hl = rig.mount();
        let ino = hl.create("/x").unwrap();
        hl.write(ino, 0, b"hl!").unwrap();
    }
}
