//! Workload generators for the HighLight reproduction.
//!
//! - [`large_object`]: the Stonebraker/Olson large-object benchmark the
//!   paper runs in §7.1 (51.2 MB file of 12 500 × 4 KB frames; sequential,
//!   random, and 80/20-locality read/replace phases);
//! - [`sequoia`]: Sequoia-flavoured scenarios (§2, §8.2) — satellite
//!   image archives, database page access, simulation checkpoints;
//! - [`trees`]: software-development directory trees for the namespace
//!   policy (§5.3);
//! - [`zipf`]: seeded Zipfian popularity and the flash-crowd object
//!   store (adversarial suite, ROADMAP item 5);
//! - [`scan`]: whole-hierarchy backup/restore streaming scans;
//! - [`ops`]: replayable file-operation streams with input-trace digests
//!   for the policy ablation harness (ROADMAP item 3);
//! - [`tenants`]: mixed reader/writer tenants with conflicting working
//!   sets larger than the segment cache.
//!
//! All generators are deterministic given a seed (the paper seeded
//! `random()` with time-of-day + pid; reproducibility wins here).

pub mod large_object;
pub mod ops;
pub mod scan;
pub mod sequoia;
pub mod tenants;
pub mod trees;
pub mod zipf;

pub use large_object::{LargeObject, Phase};
pub use ops::{Op, OpStream};
pub use scan::{HierarchyScan, ScanStep};
pub use tenants::{Tenant, TenantKind, TenantMix};
pub use zipf::{FlashCrowd, ZipfStore, Zipfian};
