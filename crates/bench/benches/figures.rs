//! Figures 1–5, regenerated as ASCII renderings of live system state.
//!
//! The paper's figures are structural diagrams (data layouts, the
//! address-space map, the software stack); this harness builds a small
//! HighLight instance, exercises it so every depicted state exists
//! (clean/dirty/active segments, a cached tertiary segment, a staging
//! line's history, live tsegfile entries), and renders each figure from
//! the actual data structures.

use std::rc::Rc;

use highlight::rig::{hp6300, HlRig};
use highlight::stack;
use hl_lfs::{Lfs, LfsConfig, LinearMap, NoTertiary, Ufs};
use hl_sim::Clock;
use hl_vdev::{BlockDev, Disk, DiskProfile};

fn main() {
    // `cargo bench -- fig3` narrows to one figure; harness flags like
    // `--bench` are ignored.
    let only: Option<String> = std::env::args().skip(1).find(|a| a.starts_with("fig"));
    let want = |name: &str| only.as_deref().map(|o| o.contains(name)).unwrap_or(true);

    // Figure 1: a small base LFS with a few segments in each state.
    if want("fig1") {
        let clock = Clock::new();
        let disk = Rc::new(Disk::new(DiskProfile::RZ57, 2 + 8 * 256, None));
        let amap = Rc::new(LinearMap::for_device(disk.nblocks(), 256, 2));
        let cfg = LfsConfig::base(clock.clone());
        Lfs::mkfs(
            disk.clone() as Rc<dyn BlockDev>,
            amap.clone(),
            Rc::new(NoTertiary),
            cfg.clone(),
        )
        .expect("mkfs");
        let mut fs =
            Lfs::mount(disk as Rc<dyn BlockDev>, amap, Rc::new(NoTertiary), cfg).expect("mount");
        let ino = fs.create("/data").expect("create");
        fs.write(ino, 0, &vec![1u8; 1_500_000]).expect("write");
        fs.sync().expect("sync");
        // Overwrite half so one segment turns partly dead (dirty).
        fs.write(ino, 0, &vec![2u8; 700_000]).expect("rewrite");
        fs.sync().expect("sync");
        println!("{}", stack::render_fig1(&fs));
    }

    // Figures 2–5 share one HighLight instance with migration history.
    let rig = HlRig::new(2 + 24 * 256, hp6300(4, 8), 5, None);
    rig.mkfs();
    let mut hl = rig.mount();
    let ino = hl.create("/archive").expect("create");
    hl.write(ino, 0, &vec![3u8; 1_800_000]).expect("write");
    hl.sync().expect("sync");
    hl.migrate_file("/archive", true, None).expect("migrate");
    let mut tail = Default::default();
    hl.seal_staging(&mut tail).expect("seal");
    // Fetch one segment back so a cached line exists.
    let mut buf = vec![0u8; 4096];
    hl.drop_caches();
    let ino = hl.lookup("/archive").expect("lookup");
    hl.read(ino, 0, &mut buf).expect("read");

    if want("fig2") {
        println!("{}", stack::render_fig2(&hl));
    }
    if want("fig3") {
        println!("{}", stack::render_fig3(&mut hl));
    }
    if want("fig4") {
        println!("{}", stack::render_fig4(&hl));
    }
    if want("fig5") {
        println!("{}", stack::render_fig5(&hl));
    }
}
