//! Deterministic simulation substrate for the HighLight reproduction.
//!
//! The paper's evaluation (§7) reports elapsed times measured on real
//! hardware. This crate replaces wall-clock time with a *virtual clock*:
//! every device operation computes its duration from a calibrated model and
//! advances simulated time. Concurrent activities (the migrator, the I/O
//! server, the cleaner, applications) are [`Actor`]s driven by a
//! virtual-time [`Scheduler`] that always steps the actor with the smallest
//! local time, so interleavings — and hence disk-arm contention, the key
//! phenomenon in the paper's Table 6 — are fully deterministic.
//!
//! Everything is single-threaded on purpose: reproducibility of the tables
//! matters more than host parallelism, and the simulated machine (an HP
//! 9000/370) had a single CPU anyway.

pub mod clock;
pub mod resource;
pub mod rng;
pub mod sched;
pub mod stats;
pub mod time;

pub use clock::Clock;
pub use resource::Resource;
pub use rng::DetRng;
pub use sched::{Actor, ActorId, Scheduler, Step, Waker};
pub use time::SimTime;
