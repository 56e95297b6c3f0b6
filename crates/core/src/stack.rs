//! Renderers that regenerate the paper's structural figures from live
//! system state.
//!
//! Figures 1–5 of the paper are diagrams of data structures and the
//! software stack, not measurement plots; the faithful way to
//! "regenerate" them is to draw the *actual* state of a running instance.

use hl_lfs::ondisk::seg_flags;
use hl_lfs::types::UNASSIGNED;
use hl_lfs::Lfs;

use crate::fs::HighLight;
use hl_lfs::config::AddressMap;

/// Figure 1: the base LFS data layout — per-segment state plus the log
/// structure, straight from the (in-core, checkpoint-authoritative)
/// segment usage table.
pub fn render_fig1(fs: &Lfs) -> String {
    let mut out = String::new();
    out.push_str("LFS data layout (Figure 1)\n");
    out.push_str("seg  state      live-bytes  summary\n");
    for seg in 0..fs.nsegs() {
        let u = fs.seg_usage(seg);
        let state = seg_state(u.flags);
        out.push_str(&format!(
            "{seg:>4} {state:<10} {:>10}  {}\n",
            u.live_bytes,
            if u.flags & seg_flags::ACTIVE != 0 {
                "<- tail of log"
            } else if u.is_clean() {
                "(empty segment)"
            } else {
                "log contents"
            }
        ));
    }
    out
}

/// Figure 2: the storage hierarchy — disk farm, migration path, jukebox.
pub fn render_fig2(hl: &HighLight) -> String {
    let map = hl.map();
    let cache = hl.cache();
    let cache = cache.borrow();
    format!(
        r#"The storage hierarchy (Figure 2)

reads; initial writes
        |
+-------v---------------------------+
|            file system            |
+-----------------------------------+
|  disk farm: {:>6} segments       |
|  segment cache: {:>3}/{:<3} lines     |
+------------------+----------------+
        caching ^  |  automigration
                |  v
+-----------------------------------+
|  tertiary jukebox(es):            |
|  {:>4} volumes x {:>5} segments    |
+-----------------------------------+
"#,
        map.nsegs_disk,
        cache.len(),
        cache.capacity(),
        map.volumes,
        map.segs_per_volume,
    )
}

/// Figure 3: HighLight's data layout — disk segments (including cache
/// lines, `C`) and the touched tertiary segments from the tsegfile.
pub fn render_fig3(hl: &mut HighLight) -> String {
    let mut out = String::new();
    out.push_str("HighLight data layout (Figure 3)\n");
    out.push_str("-- secondary (in ifile) --\n");
    out.push_str("seg  state      live-bytes  cache-tag\n");
    let nsegs = hl.lfs().nsegs();
    for seg in 0..nsegs {
        let u = hl.lfs().seg_usage(seg);
        let tag = if u.cache_tag == UNASSIGNED {
            "-".to_string()
        } else {
            format!("t{}", u.cache_tag)
        };
        out.push_str(&format!(
            "{seg:>4} {:<10} {:>10}  {tag}\n",
            seg_state(u.flags),
            u.live_bytes
        ));
    }
    out.push_str("-- tertiary (in tsegfile) --\n");
    out.push_str("seg        vol slot  live-bytes  cached\n");
    let map = hl.map();
    let tseg = hl.tseg();
    let cache = hl.cache();
    for (seg, u) in tseg.borrow().touched() {
        let (vol, slot) = map.vol_slot(seg).unwrap_or((u32::MAX, u32::MAX));
        let cached = match cache.borrow().peek(seg) {
            Some(line) => format!("disk seg {} ({:?})", line.disk_seg, line.state),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{seg:>10} {vol:>3} {slot:>4}  {:>10}  {cached}\n",
            u.live_bytes
        ));
    }
    out
}

/// Figure 4: allocation of block addresses to devices.
pub fn render_fig4(hl: &HighLight) -> String {
    let map = hl.map();
    let disk_end = map.seg_base(map.nsegs_disk);
    let tert_start = map.seg_base(map.tertiary_base());
    format!(
        r#"Allocation of block addresses to devices (Figure 4)

block 0x{:08x}  +--------------------------+
..                |  boot blocks             |
block 0x{:08x}  |  {:<24}|
..                |  (disk farm, ascending)  |
block 0x{:08x}  +--------------------------+
..                |  DEAD ZONE (invalid)     |
block 0x{:08x}  +--------------------------+
..                |  {:<24}|
..                |  ... volumes descend ... |
..                |  vol 0 at the top        |
block 0x{:08x}  +--------------------------+
block 0xffffffff  (out-of-band UNASSIGNED)
"#,
        0,
        map.seg_start,
        format!("disk segments 0..{}", map.nsegs_disk),
        disk_end,
        tert_start,
        format!("tertiary: vol {} lowest", map.volumes - 1),
        map.seg_base(map.total_segs() - 1) + map.blocks_per_seg - 1,
    )
}

/// Figure 5: the layered architecture, annotated with live statistics —
/// including the request and device queues the tertiary path now runs
/// through (service process above, I/O server below).
pub fn render_fig5(hl: &HighLight) -> String {
    let tio = hl.tio();
    let s = tio.stats();
    let (reqq, devq) = tio.queue_depths();
    let cache = hl.cache();
    let cache = cache.borrow();
    format!(
        r#"The layered architecture (Figure 5)

user space      | regular cleaner | migration "cleaner"
----------------+-----------------+--------------------
kernel space    |        HighLight LFS
                |             |
                |   block map driver & segment cache
                |   ({} lines, {} hits / {} misses)
                |      |                |
                | concatenated     tertiary driver
                | disk driver           |
----------------+------------------+----------------
user space      |   == request queue ==
                |   ({} now, hwm {}, {} queued,
                |    {} coalesced)
                |           |
                |   service process
                |           |
                |   == device queue ==
                |   ({} now, hwm {})
                |           |
                |   I/O server
                |   ({} fetches, {} copyouts,
                |    {} device ops, peak {} in flight,
                |    waits: demand {} copyout {}
                |           prefetch {} scrub {})
                |        Footprint
                |           |
                |   tertiary device(s)
"#,
        cache.capacity(),
        cache.stats().hits,
        cache.stats().misses,
        reqq,
        s.reqq_hwm,
        s.queued_requests,
        s.coalesced_fetches,
        devq,
        s.devq_hwm,
        s.demand_fetches,
        s.copyouts,
        tio.io_ops(),
        tio.io_peak_in_flight(),
        s.wait_demand,
        s.wait_copyout,
        s.wait_prefetch,
        s.wait_scrub,
    )
}

fn seg_state(flags: u32) -> &'static str {
    if flags & seg_flags::CACHE != 0 {
        "cached"
    } else if flags & seg_flags::ACTIVE != 0 {
        "dirty,act"
    } else if flags & seg_flags::DIRTY != 0 {
        "dirty"
    } else if flags & seg_flags::NOSTORE != 0 {
        "no-store"
    } else {
        "clean"
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn state_labels_cover_flags() {
        use super::seg_state;
        use hl_lfs::ondisk::seg_flags as f;
        assert_eq!(seg_state(0), "clean");
        assert_eq!(seg_state(f::DIRTY), "dirty");
        assert_eq!(seg_state(f::DIRTY | f::ACTIVE), "dirty,act");
        assert_eq!(seg_state(f::CACHE), "cached");
        assert_eq!(seg_state(f::NOSTORE), "no-store");
    }
}
