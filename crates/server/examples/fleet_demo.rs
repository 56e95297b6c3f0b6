//! Minimal client-fleet demo (README quickstart for the server layer).
//!
//! Runs a small closed-loop fleet — 24 protocol clients, 4 tenants,
//! 4 workers on one shared queue — against a 2-shard engine, then runs
//! it again to show the whole thing is deterministic (same seed, same
//! trace digest and end time). Exits non-zero if the two runs differ.
//! Everything below is simulated virtual time; the run itself takes
//! milliseconds.
//!
//! ```sh
//! cargo run --release -p hl-server --example fleet_demo
//! ```

use std::process::ExitCode;

use hl_server::fleet::{run_fleet, FleetConfig};

fn main() -> ExitCode {
    let a = run_fleet(&FleetConfig::small(7));
    println!("completed  errors   p50(ms)   p95(ms)   p99(ms)");
    println!(
        "{:>9} {:>7} {:>9.1} {:>9.1} {:>9.1}",
        a.completed,
        a.errors,
        a.p50 as f64 / 1e3,
        a.p95 as f64 / 1e3,
        a.p99 as f64 / 1e3
    );
    println!(
        "    tenants: {} | fair queue: {} admits, {} throttles | media: {} demand fetches, {} coalesced | tracecheck: {} findings",
        a.per_tenant.len(),
        a.tenant_admits,
        a.tenant_throttles,
        a.demand_fetches,
        a.coalesced_fetches,
        a.findings
    );

    let b = run_fleet(&FleetConfig::small(7));
    let same = a.digest == b.digest && a.end_time == b.end_time;
    println!(
        "deterministic replay: digest {:016x} == {:016x}, end {} == {} us -> {}",
        a.digest, b.digest, a.end_time, b.end_time, same
    );
    if same {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
