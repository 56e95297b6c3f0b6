//! A Berkeley Fast File System baseline with read/write clustering.
//!
//! Table 2 and Table 3 compare HighLight against "a version of FFS with
//! read- and write-clustering, which coalesces adjacent block I/O
//! operations for better performance" (§7). This crate is that baseline:
//! an update-in-place filesystem with
//!
//! - per-file contiguous block allocation (a rotor-based first-fit
//!   allocator with a next-block hint, `maxcontig = 16` → 64 KB
//!   clusters),
//! - a write-behind buffer cache whose flush sorts dirty blocks by disk
//!   address and coalesces adjacent runs (the elevator: this is why the
//!   paper's FFS random writes at 315 KB/s beat its random reads at
//!   152 KB/s),
//! - clustered read-ahead with the same rule and the same limit as the
//!   LFS's ([`hl_lfs::ufs::MAXCONTIG`]; 4.4BSD shares that code, §3 —
//!   here each file system keeps its own loop, because sharing it would
//!   cost more primitives than it saves), and
//! - the name space of the LFS, not a copy of it: 4.4BSD builds both file
//!   systems on one UFS layer, and [`Ffs`] likewise implements the ten
//!   [`hl_lfs::Ufs`] primitives and takes `lookup`, `create`, `mkdir`,
//!   `unlink`, `rmdir`, `rename`, `readdir` and `stat` from the trait.
//!   The dinode and directory formats, the buffer cache and the
//!   block-pointer tree are `hl-lfs`'s too.
//!
//! Crash recovery is out of scope (the paper does not benchmark FFS
//! recovery); mounting assumes a clean unmount.

pub mod alloc;
pub mod fs;

pub use fs::{Ffs, FfsConfig};
