//! Benchmark harnesses reproducing every table and figure of the paper.
//!
//! Each table has a `cargo bench` target (plain binaries — they report
//! *simulated* time, so Criterion's wall-clock statistics would measure
//! the simulator, not the system):
//!
//! | target   | reproduces |
//! |----------|------------|
//! | `table2` | Large-object performance (FFS / LFS / HighLight on-disk / in-cache) |
//! | `table3` | Access delays (first byte + total; cached vs uncached) |
//! | `table4` | Migration elapsed-time breakdown |
//! | `table5` | Raw device measurements |
//! | `table6` | Migrator throughput with/without disk-arm contention |
//! | `figures`| Figures 1–5 as ASCII renderings of live state |
//! | `ablation_*` | design-choice studies listed in DESIGN.md |
//!
//! Shared machinery lives here: [`rigs`] is the §7 testbed and its FFS
//! and base-LFS mounts (every rig comes from `highlight::rig`), [`fsx`]
//! unifies the three filesystems under one trait,
//! [`pipeline`] is the virtual-time actor pipeline for the concurrent
//! experiments, [`scenarios`] is the adversarial scenario runner
//! (Zipfian flash crowds, hierarchy scans, tenant thrash — each with a
//! per-run trace gate), [`table`] prints paper-vs-measured rows, and
//! [`report`] is the check block, tracecheck gate and JSON writer every
//! bench exits through.

pub mod fsx;
pub mod pipeline;
pub mod policies;
pub mod report;
pub mod rigs;
pub mod scenarios;
pub mod table;
pub mod torture;
