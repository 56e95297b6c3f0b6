//! Simulated storage devices for the HighLight reproduction.
//!
//! The paper's testbed (§7) was an HP 9000/370 with DEC RZ57/RZ58 SCSI
//! disks, an HP 7958A HPIB disk, and an HP 6300 magneto-optical changer,
//! all of whose raw throughput it reports in Table 5. This crate provides:
//!
//! - calibrated performance [`profile`]s for those devices (and for the
//!   Metrum tape and Sony WORM media Sequoia planned to use),
//! - a seek/rotation/transfer [`disk`] model with a shared-arm resource so
//!   that interleaved access streams pay seeks (the paper's "disk arm
//!   contention"),
//! - a SCSI [`bus`] that serializes transfers and is *hogged* during media
//!   swaps (the paper notes its autochanger driver never disconnects),
//! - sparse in-memory [`backing`] stores so terabyte address spaces cost
//!   only what is actually written, and
//! - fault injection for the reliability experiments (§10).

pub mod backing;
pub mod blockdev;
pub mod bus;
pub mod crash;
pub mod disk;
pub mod error;
pub mod fault;
pub mod profile;

pub use backing::{Block, SparseStore};
pub use blockdev::{BlockDev, IoSlot};
pub use bus::ScsiBus;
pub use crash::{CrashDev, CrashPlan, TornWrite};
pub use disk::{Disk, DiskStats};
pub use error::DevError;
pub use fault::{DriveFault, FaultConfig, FaultPlan, MediaFault, SwapFault};
pub use profile::{DiskProfile, TapeProfile};

/// The filesystem block size used throughout the reproduction (§6.2:
/// HighLight's pointers address 4-kilobyte units).
pub const BLOCK_SIZE: usize = 4096;
