//! A 4.4BSD-style log-structured file system (§3 of the paper).
//!
//! All data live in a segmented log: the disk is divided into large
//! (512 KB or 1 MB) segments, written sequentially and threaded together.
//! Auxiliary state lives in the *ifile* — a regular file holding the
//! cleaner info block, the segment usage table, and the inode map. A
//! user-level-style cleaner reclaims space by copying live data from dirty
//! segments to the log tail.
//!
//! This implementation is faithful to the paper's description where it
//! matters for the experiments:
//!
//! - real byte-level on-media formats (partial-segment summaries exactly
//!   shaped like Table 1, packed inode blocks, ifile entries), parsed
//!   back during crash recovery's roll-forward;
//! - write gathering through a bounded buffer cache and large sequential
//!   partial-segment writes;
//! - `lfs_bmapv` / `lfs_markv` cleaner system-call analogues, plus the
//!   `lfs_migratev` variant HighLight adds (§6.7);
//! - hooks ([`config::TertiaryHooks`], [`config::AddressMap`]) that let
//!   the `highlight` crate graft a tertiary address range and a segment
//!   cache underneath without forking this crate — mirroring how
//!   HighLight "slightly modifies" the base LFS (§6.1).
//!
//! Every device operation is timed against the shared virtual clock, so
//! filesystem benchmarks report simulated elapsed time comparable to the
//! paper's tables.

pub mod buffer;
pub mod check;
pub mod cleaner;
pub mod config;
pub mod dir;
pub mod error;
pub mod fileops;
pub mod fs;
pub mod migrate;
pub mod ondisk;
mod partial;
pub mod ptree;
pub mod recovery;
pub mod stats;
pub mod types;
pub mod ufs;
pub mod writer;

pub use check::{CheckReport, Finding};
pub use cleaner::CleanerPolicy;
pub use config::{AddressMap, CpuCosts, LfsConfig, LinearMap, NoTertiary, TertiaryHooks};
pub use error::LfsError;
pub use fs::{Lfs, Stat};
pub use stats::LfsStats;
pub use types::{BlockAddr, FileKind, Ino, LBlock, SegNo, UNASSIGNED};
pub use ufs::Ufs;
