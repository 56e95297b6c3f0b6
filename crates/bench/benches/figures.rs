//! Figures 1–5, regenerated as ASCII renderings of live system state.
//!
//! The paper's figures are structural diagrams (data layouts, the
//! address-space map, the software stack); this harness builds a small
//! HighLight instance, exercises it so every depicted state exists
//! (clean/dirty/active segments, a cached tertiary segment, a staging
//! line's history, live tsegfile entries), and renders each figure from
//! the actual data structures.
//!
//! Each figure with a claim about its content is checked from the
//! rendered text, and the bench exits non-zero when one fails:
//! - Fig 1 shows a clean, a dirty and an active segment. Seen red with
//!   the bench's writes taken out (no dirty segment).
//! - Fig 3 lists a tsegfile row, and one of those rows is cached in a
//!   disk segment the secondary table marks `cached`. Seen red with the
//!   read-back before the render swapped for an `eject_all` (no row
//!   names a disk segment), and with the migration taken out (no
//!   tsegfile row).
//! - Every boxed row of Fig 4 has the same width, and its block
//!   addresses ascend. Seen red with the old renderer, whose "disk
//!   segments" and "tertiary: vol N lowest" rows had no right border,
//!   and with the dead zone's and the tertiary start's addresses
//!   swapped.

use std::rc::Rc;

use highlight::rig::{hp6300, HlRig};
use highlight::stack;
use hl_bench::report::Checks;
use hl_lfs::{Lfs, LfsConfig, LinearMap, NoTertiary, Ufs};
use hl_sim::Clock;
use hl_vdev::{BlockDev, Disk, DiskProfile};

/// The state column (second field) of each segment row: a row that
/// starts with a segment number.
fn states(fig: &str) -> impl Iterator<Item = &str> {
    fig.lines().filter_map(|l| {
        let mut f = l.split_whitespace();
        f.next()?.parse::<u32>().ok()?;
        f.next()
    })
}

fn check_fig1(checks: &mut Checks, fig: &str) {
    for (label, want) in [
        ("a clean", "clean"),
        ("a dirty", "dirty"),
        ("an active", "dirty,act"),
    ] {
        checks.row(
            format!("fig 1 shows {label} segment"),
            states(fig).any(|s| s == want),
        );
    }
}

fn check_fig3(checks: &mut Checks, fig: &str) {
    let (disk, tert) = fig
        .split_once("-- tertiary")
        .expect("fig 3 has a tertiary section");
    let cached: Vec<u32> = disk
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let seg = f.next()?.parse().ok()?;
            (f.next()? == "cached").then_some(seg)
        })
        .collect();
    let rows: Vec<&str> = tert.lines().skip(2).collect();
    checks.row("fig 3 lists a tsegfile row", !rows.is_empty());
    checks.row(
        "fig 3 shows a cached line: a tsegfile row held in a `cached` disk segment",
        rows.iter().any(|r| {
            r.split_once("disk seg ")
                .and_then(|(_, s)| s.split_whitespace().next()?.parse().ok())
                .is_some_and(|seg: u32| cached.contains(&seg))
        }),
    );
}

fn check_fig4(checks: &mut Checks, fig: &str) {
    let boxed: Vec<&str> = fig.lines().filter(|l| l.contains(['|', '+'])).collect();
    let width = boxed[0].len();
    checks.row(
        format!(
            "fig 4: all {} boxed rows are {width} wide and end on the box",
            boxed.len()
        ),
        boxed
            .iter()
            .all(|l| l.len() == width && l.ends_with(['|', '+'])),
    );
    let addrs: Vec<u64> = fig
        .lines()
        .filter_map(|l| u64::from_str_radix(l.strip_prefix("block 0x")?.get(..8)?, 16).ok())
        .collect();
    checks.row(
        format!("fig 4: its {} block addresses ascend", addrs.len()),
        addrs.windows(2).all(|w| w[0] < w[1]),
    );
}

fn main() {
    // `cargo bench -- fig3` narrows to one figure; harness flags like
    // `--bench` are ignored.
    let only: Option<String> = std::env::args().skip(1).find(|a| a.starts_with("fig"));
    let want = |name: &str| only.as_deref().map(|o| o.contains(name)).unwrap_or(true);
    let mut checks = Checks::new("Figure checks");

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
        let fig = stack::render_fig1(&fs);
        println!("{fig}");
        check_fig1(&mut checks, &fig);
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
        let fig = stack::render_fig3(&mut hl);
        println!("{fig}");
        check_fig3(&mut checks, &fig);
    }
    if want("fig4") {
        let fig = stack::render_fig4(&hl);
        println!("{fig}");
        check_fig4(&mut checks, &fig);
    }
    if want("fig5") {
        println!("{}", stack::render_fig5(&hl));
    }
    checks.finish();
}
