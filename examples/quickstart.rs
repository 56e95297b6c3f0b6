//! Quickstart: build the paper's testbed, write a file, migrate it to
//! the magneto-optical jukebox, and watch a demand fetch bring it back.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use highlight::rig::{HlRig, RZ57_BLOCKS};
use hl_footprint::JukeboxConfig;
use hl_sim::time::as_secs;
use hl_vdev::ScsiBus;

fn main() {
    // The §7 testbed: an 848 MB RZ57 and an HP 6300 MO changer sharing
    // one SCSI bus, under a virtual clock. Format and mount HighLight
    // with 64 cache lines.
    let rig = HlRig::new(
        RZ57_BLOCKS,
        JukeboxConfig::hp6300_paper(),
        64,
        Some(ScsiBus::new("scsi0")),
    );
    rig.mkfs();
    let mut hl = rig.mount();
    let clock = &rig.clock;

    // Applications see a normal filesystem (§4).
    hl.mkdir("/data").expect("mkdir");
    let ino = hl.create("/data/results.bin").expect("create");
    let payload: Vec<u8> = (0..3 * 1024 * 1024u32).map(|i| (i % 251) as u8).collect();
    let t0 = clock.now();
    hl.write(ino, 0, &payload).expect("write");
    hl.sync().expect("sync");
    println!(
        "wrote 3 MB to the disk log in {:.2} s (simulated)",
        as_secs(clock.now() - t0)
    );

    // Migrate the file (data + metadata) to tertiary storage.
    let t1 = clock.now();
    let stats = hl
        .migrate_file("/data/results.bin", true, None)
        .expect("migrate");
    let mut tail = Default::default();
    hl.seal_staging(&mut tail).expect("seal");
    println!(
        "migrated {} blocks + {} inode(s) in {} segment(s), {:.1} s \
         (includes MO writes and a volume load)",
        stats.blocks,
        stats.inodes,
        stats.segments_sealed + tail.segments_sealed,
        as_secs(clock.now() - t1)
    );
    println!("tertiary live bytes: {}", hl.tertiary_live_bytes());

    // Eject the cached copies and read the file back: a demand fetch.
    hl.eject_all();
    hl.drop_caches();
    let t2 = clock.now();
    let mut first = [0u8; 4096];
    let ino = hl.lookup("/data/results.bin").expect("lookup");
    hl.read(ino, 0, &mut first).expect("read");
    println!(
        "cold first byte after {:.2} s (the migrated inode's segment, then \
         the first data segment, each an MO seek + 1 MB fetch)",
        as_secs(clock.now() - t2)
    );
    let mut back = vec![0u8; payload.len()];
    hl.read(ino, 0, &mut back).expect("read all");
    assert_eq!(back, payload, "data corrupted through the hierarchy!");
    println!(
        "full 3 MB readable again after {:.2} s total; bytes verified identical",
        as_secs(clock.now() - t2)
    );

    let svc = hl.tio().stats();
    println!(
        "service process: {} demand fetches, {} copy-outs",
        svc.demand_fetches, svc.copyouts
    );
    // Persist everything (ifile, tsegfile, cache tags, checkpoint).
    hl.checkpoint().expect("checkpoint");
    println!("checkpoint taken; remount would recover this state.");
}
