//! Whole-hierarchy streaming scans (backup).
//!
//! A backup streams every tertiary segment through the cache exactly
//! once — the adversarial opposite of a skewed workload: zero reuse, a
//! media swap at every volume boundary, and (with readahead) a steady
//! stream of prefetches for the demand stream to coalesce onto.

/// One step of a hierarchy scan: the segment to read now, plus the
/// positions to prefetch behind it.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScanStep {
    /// Volume of the segment to demand-read.
    pub vol: u32,
    /// Slot within the volume.
    pub slot: u32,
    /// Upcoming `(vol, slot)` positions to prefetch (readahead window).
    pub readahead: Vec<(u32, u32)>,
}

/// A deterministic streaming scan of a `volumes × segments_per_volume`
/// hierarchy with a fixed readahead window, volume-major ascending:
/// vol 0 slot 0 … vol V-1 slot S-1.
#[derive(Clone, Debug)]
pub struct HierarchyScan {
    /// Volumes in the hierarchy.
    pub volumes: u32,
    /// Segment slots per volume.
    pub segments_per_volume: u32,
    /// Prefetch lookahead per step (0 = pure demand).
    pub readahead: u32,
}

impl HierarchyScan {
    /// A backup-direction scan.
    pub fn backup(volumes: u32, segments_per_volume: u32, readahead: u32) -> HierarchyScan {
        HierarchyScan {
            volumes,
            segments_per_volume,
            readahead,
        }
    }

    /// Total segments the scan touches.
    pub fn len(&self) -> usize {
        (self.volumes * self.segments_per_volume) as usize
    }

    /// `true` for an empty hierarchy.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The `(vol, slot)` of scan position `i`.
    fn position(&self, i: u32) -> (u32, u32) {
        (i / self.segments_per_volume, i % self.segments_per_volume)
    }

    /// The full step sequence: every segment exactly once, each step
    /// carrying the next `readahead` positions.
    pub fn steps(&self) -> Vec<ScanStep> {
        let n = self.len() as u32;
        (0..n)
            .map(|i| {
                let (vol, slot) = self.position(i);
                let readahead = (i + 1..n.min(i + 1 + self.readahead))
                    .map(|j| self.position(j))
                    .collect();
                ScanStep {
                    vol,
                    slot,
                    readahead,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backup_covers_every_segment_exactly_once() {
        let scan = HierarchyScan::backup(3, 4, 2);
        let steps = scan.steps();
        assert_eq!(steps.len(), 12);
        let mut seen: Vec<(u32, u32)> = steps.iter().map(|s| (s.vol, s.slot)).collect();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 12, "a scan position repeated or was skipped");
        assert_eq!(
            steps[0],
            ScanStep {
                vol: 0,
                slot: 0,
                readahead: vec![(0, 1), (0, 2)]
            }
        );
    }

    #[test]
    fn readahead_window_shrinks_at_the_end() {
        let scan = HierarchyScan::backup(2, 2, 3);
        let steps = scan.steps();
        assert_eq!(steps[0].readahead, vec![(0, 1), (1, 0), (1, 1)]);
        assert_eq!(steps[2].readahead, vec![(1, 1)]);
        assert!(steps[3].readahead.is_empty());
    }
}
