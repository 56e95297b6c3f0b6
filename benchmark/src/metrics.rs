//! The metric names of `BENCHMARK.json`, in its order. Every run prints
//! every end-to-end metric (`--trace 0`) or every per-layer metric
//! (`--trace 1`); a per-layer metric of a layer the workload bypasses
//! reads 0.

#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Better {
    Higher,
    Lower,
}

/// An end-to-end metric and the share of the parent's median by which it
/// may worsen before a change counts as a regression.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 5] = [
    e2e("sim_throughput_kbs", "KB/s", Better::Higher, 0.15),
    e2e("io_amp", "x", Better::Lower, 0.10),
    e2e("host_ops_per_s", "1/s", Better::Higher, 0.25),
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.05),
];

/// `(name, unit)` of the per-layer metrics, grouped by layer.
pub const PER_LAYER: [(&str, &str); 83] = [
    // The simulated latency distribution of the sampled ops.
    ("e2e.sim_op_p50_ms", "ms"),
    ("e2e.sim_op_p99_ms", "ms"),
    ("e2e.sim_op_samples", "count"),
    ("e2e.sim_makespan_s", "s"),
    // hl-lfs
    ("lfs.write.calls", "count"),
    ("lfs.write.kb", "KB"),
    ("lfs.write.host_ns_per_kb", "ns/KB"),
    ("lfs.write.sim_ms", "ms"),
    ("lfs.sync.calls", "count"),
    ("lfs.sync.host_ms", "ms"),
    ("lfs.sync.sim_ms", "ms"),
    ("lfs.partials_written", "count"),
    ("lfs.ondisk.cksum_ns_per_kb", "ns/KB"),
    ("lfs.ondisk.summary_encode_us", "us"),
    ("lfs.ondisk.summary_decode_us", "us"),
    ("lfs.read.calls", "count"),
    ("lfs.read.kb", "KB"),
    ("lfs.read.host_ns_per_kb", "ns/KB"),
    ("lfs.read.sim_ms", "ms"),
    ("lfs.buffer.hit_pct", "%"),
    ("lfs.clean.host_ms", "ms"),
    ("lfs.clean.sim_ms", "ms"),
    ("lfs.clean.blocks_cleaned", "count"),
    ("lfs.clean.segs_reclaimed", "count"),
    ("lfs.write_amp", "x"),
    ("lfs.mount.host_ms", "ms"),
    // highlight (crates/core)
    ("core.migrate.host_ms", "ms"),
    ("core.migrate.sim_ms", "ms"),
    ("core.migrate.blocks", "count"),
    ("core.copyout.host_ms", "ms"),
    ("core.copyout.sim_ms", "ms"),
    ("core.copyout.count", "count"),
    ("core.eject.host_ms", "ms"),
    ("core.fetch.count", "count"),
    ("core.fetch.sim_ms_mean", "ms"),
    ("core.fetch.coalesced", "count"),
    ("core.segcache.hit_pct", "%"),
    ("core.segcache.ejections", "count"),
    ("core.segcache.stalls", "count"),
    ("core.requests.wait_demand_ms", "ms"),
    ("core.requests.wait_copyout_ms", "ms"),
    ("core.requests.devq_hwm", "count"),
    ("core.requests.tenant_throttles", "count"),
    ("core.service.drive_busy_pct", "%"),
    ("core.requests.ticket_ns", "ns"),
    ("core.blockmap.route_ns", "ns"),
    // hl-footprint
    ("footprint.reads", "count"),
    ("footprint.writes", "count"),
    ("footprint.swaps", "count"),
    ("footprint.swap_s", "s"),
    ("footprint.transfer_s", "s"),
    // hl-vdev
    ("vdev.disk.reads", "count"),
    ("vdev.disk.writes", "count"),
    ("vdev.disk.mb_moved", "MB"),
    ("vdev.disk.seeks", "count"),
    ("vdev.disk.seek_s", "s"),
    ("vdev.disk.host_ns_per_block", "ns"),
    // hl-sim
    ("sim.sched.host_ns_per_step", "ns"),
    ("sim.sched.park_wake_ns", "ns"),
    // hl-server
    ("server.proto.encode_ns", "ns"),
    ("server.proto.decode_ns", "ns"),
    ("server.connection.roundtrip_ns", "ns"),
    ("server.pool.dispatch_ns", "ns"),
    ("server.pool.steals", "count"),
    ("server.shard.locate_ns", "ns"),
    ("server.fleet.host_us_per_req", "us"),
    ("server.fleet.attributed_ns_per_req", "ns"),
    ("server.fleet.unattributed_pct", "%"),
    ("server.shard.build_ms", "ms"),
    ("server.fleet.coalesced_pct", "%"),
    ("server.fleet.tenant_p99_spread", "x"),
    ("server.fleet.lost_tickets", "count"),
    // hl-trace
    ("trace.emit_ns_per_event", "ns"),
    ("trace.check_ms", "ms"),
    // The harness itself: these qualify the host numbers.
    ("bench.reps", "count"),
    ("bench.anchor_ns", "ns"),
    ("bench.anchor_scale", "x"),
    ("bench.rep_spread_pct", "%"),
    ("bench.span_overhead_pct", "%"),
    ("bench.spans_per_rep", "count"),
    ("bench.ledger_host_gap_pct", "%"),
    ("bench.host_ops_per_s_raw", "1/s"),
    ("bench.run_wall_over_cpu", "x"),
];

#[cfg(test)]
mod tests {
    use super::*;

    /// The names in `section` of BENCHMARK.json, in order.
    fn names_in(json: &str, section: &str) -> Vec<String> {
        let start = json
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &json[start..];
        let body = &body[..body.find(']').expect("section is a list")];
        body.split("\"name\":")
            .skip(1)
            .map(|s| s.split('"').nth(1).expect("quoted name").to_string())
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let e2e: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        let layers: Vec<String> = PER_LAYER.iter().map(|m| m.0.to_string()).collect();
        assert_eq!(names_in(&json, "end_to_end"), e2e);
        assert_eq!(names_in(&json, "per_layer"), layers);
        for m in &END_TO_END {
            let better = if m.better == Better::Higher {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                m.name, m.unit, m.bound
            );
            assert!(json.contains(&entry), "BENCHMARK.json has {entry}");
        }
        for (name, unit) in &PER_LAYER {
            assert!(
                json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} is listed with unit {unit}"
            );
        }
    }
}
