//! Tertiary segment replicas (§5.4).
//!
//! "A variant on this scheme is to maintain several segment replicas on
//! tertiary storage, and to have the staging code simply read the
//! 'closest' copy, where close means quickest access — whether that means
//! seeking on a volume already in a drive, or selecting a volume that
//! will incur a shorter seek time to the proper segment ... One potential
//! problem with this approach is the bookkeeping associated with
//! determining when a tertiary-resident segment contains valid data ...
//! This problem could be sidestepped simply by not counting the replicas
//! as live data."
//!
//! Exactly that: [`ReplicaSet`] records extra physical homes for a
//! logical tertiary segment; replicas never appear in the tsegfile's
//! live accounting, so reclamation logic is untouched. The fetch path
//! reads an unreplicated segment from the home the address map gives
//! it ([`ReplicaSet::has_extra`] says which), and otherwise asks
//! [`ReplicaSet::homes`] for every copy and orders them by what is in
//! the drives.
//!
//! The directory is a plain map: it is consulted once per media fetch
//! (a 1 MB transfer behind a robot), never on a resident hit, so its
//! lookup cost is not on any benchmarked path (DESIGN.md §6j).

use std::collections::HashMap;

use hl_lfs::types::SegNo;

use crate::addr::UniformMap;

/// Replica bookkeeping: logical tertiary segment → extra `(vol, slot)`
/// homes (the primary home is implied by the address map).
#[derive(Debug, Default)]
pub struct ReplicaSet {
    extra: HashMap<SegNo, Vec<(u32, u32)>>,
}

impl ReplicaSet {
    /// An empty set.
    pub fn new() -> ReplicaSet {
        ReplicaSet::default()
    }

    /// Records that `seg` also lives at `(vol, slot)`.
    pub fn add(&mut self, seg: SegNo, vol: u32, slot: u32) {
        let homes = self.extra.entry(seg).or_default();
        if !homes.contains(&(vol, slot)) {
            homes.push((vol, slot));
        }
    }

    /// `true` when `seg` has a home beyond its primary.
    pub fn has_extra(&self, seg: SegNo) -> bool {
        self.extra.contains_key(&seg)
    }

    /// All physical homes of `seg`: the primary first, replicas after.
    pub fn homes(&self, map: &UniformMap, seg: SegNo) -> Vec<(u32, u32)> {
        let mut out: Vec<(u32, u32)> = map.vol_slot(seg).into_iter().collect();
        if let Some(extra) = self.extra.get(&seg) {
            out.extend_from_slice(extra);
        }
        out
    }

    /// Drops the replica records of a segment (e.g. after the tertiary
    /// cleaner reclaims it).
    pub fn forget(&mut self, seg: SegNo) {
        self.extra.remove(&seg);
    }

    /// Drops every replica that lives on `vol` (the volume is being
    /// erased). Returns how many records were dropped.
    pub fn forget_volume(&mut self, vol: u32) -> usize {
        let mut dropped = 0;
        self.extra.retain(|_, homes| {
            let before = homes.len();
            homes.retain(|&(v, _)| v != vol);
            dropped += before - homes.len();
            !homes.is_empty()
        });
        dropped
    }

    /// Number of segments with at least one replica.
    pub fn replicated_segments(&self) -> usize {
        self.extra.len()
    }

    /// Segments with at least one extra home, sorted so callers (the
    /// scrub pass) walk them deterministically.
    pub fn segments(&self) -> Vec<SegNo> {
        let mut v: Vec<SegNo> = self.extra.keys().copied().collect();
        v.sort_unstable();
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> UniformMap {
        UniformMap::new(2, 256, 64, 4, 8)
    }

    #[test]
    fn primary_home_comes_from_the_address_map() {
        let m = map();
        let r = ReplicaSet::new();
        let seg = m.tert_seg(1, 3);
        assert_eq!(r.homes(&m, seg), vec![(1, 3)]);
        assert!(!r.has_extra(seg));
    }

    #[test]
    fn replicas_are_deduplicated_and_appended() {
        let m = map();
        let mut r = ReplicaSet::new();
        let seg = m.tert_seg(0, 0);
        r.add(seg, 2, 5);
        r.add(seg, 2, 5);
        r.add(seg, 3, 1);
        assert_eq!(r.homes(&m, seg), vec![(0, 0), (2, 5), (3, 1)]);
        assert_eq!(r.replicated_segments(), 1);
    }

    #[test]
    fn forgetting_volumes_prunes_records() {
        let m = map();
        let mut r = ReplicaSet::new();
        let a = m.tert_seg(0, 0);
        let b = m.tert_seg(1, 1);
        r.add(a, 2, 0);
        r.add(a, 3, 0);
        r.add(b, 2, 1);
        assert_eq!(r.forget_volume(2), 2);
        assert_eq!(r.homes(&m, a), vec![(0, 0), (3, 0)]);
        assert_eq!(r.homes(&m, b), vec![(1, 1)]);
        assert_eq!(r.segments(), vec![a], "emptied records are pruned");
        assert!(r.has_extra(a) && !r.has_extra(b));
        r.forget(a);
        assert_eq!(r.homes(&m, a), vec![(0, 0)]);
    }
}
