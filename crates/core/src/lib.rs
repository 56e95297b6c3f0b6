//! HighLight: LFS-based secondary/tertiary storage hierarchy management.
//!
//! This crate is the paper's contribution (§4–§6): it extends the
//! log-structured file system in `hl-lfs` with
//!
//! - a **uniform block address space** over disks and tertiary volumes
//!   ([`addr`], Figure 4): disks fill the bottom of the 32-bit space,
//!   tertiary volumes hang from the top, a dead zone in between;
//! - a **segment cache** ([`segcache`]): a statically bounded set of disk
//!   segments holding read-only copies of tertiary segments, plus staging
//!   lines being assembled for migration;
//! - the **block-map pseudo-device** ([`blockmap`], Figure 5): dispatches
//!   each block I/O to a disk, a cached copy, or a demand fetch from
//!   tertiary storage — the filesystem above neither knows nor cares;
//! - the **service process / I/O server** pair ([`service`]): demand
//!   fetches, copy-outs (immediate or delayed, §5.4), end-of-medium
//!   recovery, with the per-phase timing Table 4 reports;
//! - the **migrator** ([`migrator`]): a second cleaner implementing the
//!   space-time-product policy the paper's migrator uses (§5.1), plus the
//!   namespace-unit (§5.3) and block-range (§5.2) policies it proposes,
//!   hot/cold generational separation, and adaptive load throttling;
//! - the **tertiary segment summary file** ([`tsegfile`], §6.4);
//! - **prefetch** policies ([`prefetch`], §5.3–5.4), **segment replicas**
//!   (§5.4), and the **tertiary volume cleaner** (§10 future work,
//!   implemented here).
//!
//! Applications "see only a normal filesystem" (§4): the [`HighLight`]
//! façade exposes the same create/read/write/unlink API as the base LFS.

pub mod addr;
pub mod blockmap;
pub mod fault;
pub mod fs;
pub mod hlfsck;
mod ioserver;
mod lanes;
pub mod migrator;
pub mod prefetch;
pub mod recovery;
pub mod replicas;
pub mod requests;
pub mod rig;
pub mod segcache;
pub mod service;
pub mod stack;
pub mod tcleaner;
pub mod tsegfile;

pub use addr::UniformMap;
pub use fault::HlError;
pub use fs::{CopyOutMode, HighLight, HlConfig, MigrateStats};
pub use hlfsck::{HlFinding, HlfsckReport};
pub use migrator::{
    AdaptiveThrottle, BlockRangePolicy, GenerationalPolicy, MigrationPolicy, Migrator,
    NamespacePolicy, StpPolicy,
};
pub use prefetch::PrefetchPolicy;
pub use recovery::{RecoveryPolicy, RecoveryState};
pub use replicas::ReplicaSet;
pub use requests::{Outcome, ReqClass, TenantId, Ticket, DISPATCH_CPU};
pub use segcache::{EjectPolicy, SegCache};
pub use service::{EngineSession, ScrubReport, SvcStats, TertiaryIo, MAX_DRIVES};
pub use tsegfile::TsegTable;
