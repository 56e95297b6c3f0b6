//! The disk cleaner under an explicit victim-selection policy.
//!
//! HighLight §5 leaves victim selection open ("based upon some policy").
//! The two reclaimers in the hierarchy — the disk log cleaner (`hl-lfs`)
//! and the tertiary volume cleaner (`tcleaner.rs`) — score candidates
//! with the same [`CleanerPolicy`] in the same `(live, capacity, age)`
//! vocabulary, and both record the pick as a `policy_decision` mark.

use crate::fs::HighLight;
use hl_lfs::cleaner::{CleanReport, CleanerPolicy};
use hl_lfs::error::Result;

/// Runs one disk-cleaner pass with the victim selected by `policy`
/// (instead of the one baked into `LfsConfig`). The decision is recorded
/// as a [`policy_decision`](hl_trace::Tracer::policy_decision) mark.
/// Returns `None` when nothing is cleanable.
pub fn disk_clean_once(hl: &mut HighLight, policy: CleanerPolicy) -> Result<Option<CleanReport>> {
    let Some(victim) = hl.lfs().select_victim(policy) else {
        return Ok(None);
    };
    hl.tio().tracer().policy_decision(
        hl.clock().now(),
        policy.name(),
        &format!("disk clean seg {victim}"),
    );
    let report = hl.lfs().clean_segment(victim)?;
    Ok(Some(report))
}
