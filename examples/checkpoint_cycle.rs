//! Scientific-simulation checkpoint cycle (§5.2): "Scientific application
//! checkpoints ... tend to be read completely and sequentially. (Such
//! checkpoints typically dump the internal state of a computation to
//! files, so that the state may be reconstituted and the computation
//! resumed at a later time.)"
//!
//! A simulation dumps a checkpoint every epoch; the watermark-driven
//! migrator (STP policy) continuously shuffles old checkpoints to tape,
//! keeping disk space free; a restart demand-fetches the newest dump
//! sequentially. Finally the tertiary cleaner reclaims a volume full of
//! deleted checkpoints (§10).
//!
//! ```text
//! cargo run --release --example checkpoint_cycle
//! ```

use highlight::rig::{hp6300, HlRig};
use highlight::Migrator;
use hl_sim::time::{as_secs, secs};
use hl_workload::sequoia::CheckpointCycle;

const CKPT_BYTES: u64 = 6 * 1024 * 1024;

fn main() {
    // A deliberately small disk (48 MB) so migration pressure is real.
    let rig = HlRig::new(2 + 48 * 256, hp6300(6, 20), 8, None);
    rig.mkfs();
    let mut hl = rig.mount();
    let clock = &rig.clock;
    hl.mkdir("/ckpt").expect("mkdir");

    let cycle = CheckpointCycle::new(CKPT_BYTES);
    let mut migrator = Migrator::stp();
    migrator.low_water_segs = 20;
    migrator.high_water_segs = 30;

    // The simulation runs 8 epochs, dumping a checkpoint each time. The
    // migrator daemon watches the watermarks after every dump.
    let state = |epoch: u32| -> Vec<u8> {
        (0..CKPT_BYTES)
            .map(|i| (i as u8).wrapping_add(epoch as u8))
            .collect()
    };
    for epoch in 0..8u32 {
        let path = cycle.path(epoch);
        let ino = hl.create(&path).expect("create");
        hl.write(ino, 0, &state(epoch)).expect("dump");
        hl.sync().expect("sync");
        clock.advance_by(secs(3600.0)); // an epoch of computation
        let moved = migrator.run_once(&mut hl).expect("migrator");
        println!(
            "epoch {epoch}: dumped {} MB; clean disk segments now {}; \
             migrator moved {} blocks this pass",
            CKPT_BYTES / (1 << 20),
            hl.lfs().clean_segs(),
            moved.blocks
        );
    }

    // Restart: read the newest checkpoint completely and sequentially.
    hl.eject_all();
    hl.drop_caches();
    let t0 = clock.now();
    let path = cycle.path(7);
    let ino = hl.lookup(&path).expect("lookup newest");
    let mut buf = vec![0u8; 256 * 1024];
    let mut off = 0u64;
    let expect = state(7);
    while off < CKPT_BYTES {
        let n = hl.read(ino, off, &mut buf).expect("restore");
        assert_eq!(
            &buf[..n],
            &expect[off as usize..off as usize + n],
            "checkpoint corrupted through the hierarchy"
        );
        off += n as u64;
    }
    println!(
        "restart restored {} MB in {:.1} s (sequential demand fetches)",
        CKPT_BYTES / (1 << 20),
        as_secs(clock.now() - t0)
    );

    // Old checkpoints are deleted; the tertiary cleaner reclaims media.
    for epoch in 0..6u32 {
        if hl.lookup(&cycle.path(epoch)).is_ok() {
            hl.unlink(&cycle.path(epoch)).expect("unlink");
        }
    }
    hl.sync().expect("sync");
    if let Some(vol) = highlight::tcleaner::select_victim_volume(&mut hl) {
        let report = highlight::tcleaner::clean_volume(&mut hl, vol).expect("tclean");
        println!(
            "tertiary cleaner reclaimed volume {vol}: scanned {} segments, \
             re-migrated {} live blocks; volume is blank again",
            report.segments_scanned, report.blocks_moved
        );
    } else {
        println!("no tertiary volume qualified for cleaning yet");
    }
    hl.checkpoint().expect("checkpoint");
}
