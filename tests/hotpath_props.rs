//! Property suite for two structures on the request path (DESIGN.md
//! §6j), each held to a reference model:
//!
//! - The [`ReplicaSet`] must agree with a plain `HashMap` reference
//!   directory under any interleaving of `add` / `forget` /
//!   `forget_volume`: primary home first, extras in insertion order, no
//!   duplicates, emptied records pruned.
//! - A [`Ticket`] must lose no wakeups: any clone of a completed ticket
//!   observes the outcome, and no clone resolves before its ticket.

use std::collections::HashMap;

use highlight::{ReplicaSet, Ticket, UniformMap};
use proptest::prelude::*;

/// A small uniform map: 8 disk segments, 4 volumes × 16 slots. Tertiary
/// segment numbers start at `nsegs_disk`.
fn tiny_map() -> UniformMap {
    UniformMap::new(2, 16, 8, 4, 16)
}

/// Reference replica directory.
#[derive(Default)]
struct RefDir {
    extra: HashMap<u32, Vec<(u32, u32)>>,
}

impl RefDir {
    fn add(&mut self, seg: u32, vol: u32, slot: u32) {
        let homes = self.extra.entry(seg).or_default();
        if !homes.contains(&(vol, slot)) {
            homes.push((vol, slot));
        }
    }
    fn forget(&mut self, seg: u32) {
        self.extra.remove(&seg);
    }
    fn forget_volume(&mut self, vol: u32) {
        for homes in self.extra.values_mut() {
            homes.retain(|&(v, _)| v != vol);
        }
        self.extra.retain(|_, h| !h.is_empty());
    }
    fn extras(&self, seg: u32) -> Vec<(u32, u32)> {
        self.extra.get(&seg).cloned().unwrap_or_default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random add/forget/forget_volume histories: `homes` must stay
    /// exactly equal to the reference for every segment, not just the
    /// touched key.
    #[test]
    fn replica_set_matches_the_reference_directory(
        ops in prop::collection::vec((0u8..4, 0u32..64, 0u32..4, 0u32..16), 1..200),
    ) {
        let map = tiny_map();
        let mut fast = ReplicaSet::new();
        let mut slow = RefDir::default();
        for (kind, seg_off, vol, slot) in ops {
            // Tertiary segment numbers live above the disk range.
            let seg = map.nsegs_disk + seg_off;
            match kind {
                0 | 1 => {
                    fast.add(seg, vol, slot);
                    slow.add(seg, vol, slot);
                }
                2 => {
                    fast.forget(seg);
                    slow.forget(seg);
                }
                _ => {
                    fast.forget_volume(vol);
                    slow.forget_volume(vol);
                }
            }
            for s in std::iter::once(seg).chain(slow.extra.keys().copied()) {
                // Primary first (from the address map), then the extras.
                let mut want: Vec<(u32, u32)> = map.vol_slot(s).into_iter().collect();
                want.extend(slow.extras(s));
                prop_assert_eq!(fast.homes(&map, s), want, "homes diverged for seg {}", s);
            }
            let mut keys: Vec<u32> = slow.extra.keys().copied().collect();
            keys.sort_unstable();
            prop_assert_eq!(fast.segments(), keys, "emptied records must be pruned");
            for homes in slow.extra.values() {
                let mut dedup = homes.clone();
                dedup.sort_unstable();
                dedup.dedup();
                prop_assert_eq!(dedup.len(), homes.len(), "duplicate home recorded");
            }
        }
    }

    /// N tickets with random clone fan-out and completion order: every
    /// observer of a completed ticket sees the outcome (zero lost
    /// wakeups), and an uncompleted one reports `is_done() == false`.
    #[test]
    fn tickets_lose_no_wakeups(
        fanout in prop::collection::vec(1usize..5, 1..64),
        complete_first in any::<bool>(),
    ) {
        use highlight::Outcome;
        let mut all: Vec<(Ticket, Vec<Ticket>)> = Vec::new();
        for (i, &n) in fanout.iter().enumerate() {
            let t = Ticket::new();
            let clones: Vec<Ticket> = (0..n).map(|_| t.clone()).collect();
            if complete_first || i % 2 == 0 {
                t.complete_for_test(Outcome::Eject(i % 3 == 0));
            }
            all.push((t, clones));
        }
        for (i, (t, clones)) in all.iter().enumerate() {
            if !t.is_done() {
                for c in clones {
                    prop_assert!(!c.is_done(), "clone resolved before its ticket");
                }
                t.complete_for_test(Outcome::Eject(i % 3 == 0));
            }
            for c in clones {
                prop_assert!(c.is_done(), "clone lost its wakeup");
                prop_assert_eq!(c.eject_result(), i % 3 == 0);
            }
        }
    }
}
