//! HighLight service layer: a framed request/response server
//! multiplexing simulated client fleets onto the engine.
//!
//! The paper's HighLight ran inside one kernel serving local FFS-style
//! callers; the question this crate answers is what its engine layer
//! looks like when *many logical clients* drive it at once, the way a
//! mass-storage front end (or a Lustre-style object server) would be
//! driven. Four pieces:
//!
//! * [`proto`] — a tiny length-prefixed get/put/scan/stat protocol,
//!   every request tagged with its tenant.
//! * [`connection`] — duplex in-simulation byte pipes the frames cross.
//! * [`pool`] — a fixed pool of server workers draining one shared
//!   queue of ready connections.
//! * [`shard`] / [`fleet`] — the engine split into address-range
//!   shards, and the client-fleet harness that runs thousands of
//!   closed- or open-loop clients against it deterministically,
//!   reporting client-observed latency percentiles per tenant.
//!
//! Everything runs on `hl-sim`'s virtual-time scheduler: a fleet run
//! is a pure function of its [`fleet::FleetConfig`], so latency
//! distributions, fair-queue decisions, and trace digests are
//! byte-stable run to run.

pub mod connection;
pub mod fleet;
pub mod pool;
pub mod proto;
pub mod shard;

pub use connection::Connection;
pub use fleet::{run_fleet, FleetConfig, FleetReport, StormConfig, TenantLat};
pub use pool::{PoolKind, PoolState, WakeHint};
pub use proto::{Req, RequestFrame, ResponseFrame};
pub use shard::{Shard, ShardSpec, ShardedEngine};
