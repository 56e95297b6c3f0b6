//! Prefetch policies for the segment cache (§5.3, §5.4).
//!
//! "The cache may prefetch segments it expects to be needed in the near
//! future. These prefetching decisions may be based on hints left by the
//! migrator when it wrote the data to tertiary storage, or they may be
//! based on observations of recent accesses."

use std::collections::HashMap;

use hl_lfs::types::SegNo;

/// How to prefetch around a demand fetch.
#[derive(Clone, Debug, Default)]
pub enum PrefetchPolicy {
    /// No prefetching.
    #[default]
    None,
    /// Fetch the next `n` segments of the same volume (sequential-layout
    /// assumption: the migrator fills volumes front to back).
    NextSegments(u32),
    /// Unit hints left by the namespace migrator (§5.3): "a natural
    /// prefetch policy on a cache miss is to load the missed segment and
    /// prefetch remaining segments of the unit."
    UnitHints,
}

/// Hint store: which migration *unit* each tertiary segment belongs to.
#[derive(Clone, Debug, Default)]
pub struct UnitHintMap {
    seg_unit: HashMap<SegNo, u32>,
    unit_segs: HashMap<u32, Vec<SegNo>>,
}

impl UnitHintMap {
    /// Records that `seg` holds data of `unit`.
    pub fn record(&mut self, seg: SegNo, unit: u32) {
        if self.seg_unit.insert(seg, unit) != Some(unit) {
            self.unit_segs.entry(unit).or_default().push(seg);
        }
    }

    /// Sibling segments of `seg`'s unit (excluding `seg`).
    fn siblings(&self, seg: SegNo) -> Vec<SegNo> {
        match self.seg_unit.get(&seg) {
            Some(unit) => self.unit_segs[unit]
                .iter()
                .copied()
                .filter(|&s| s != seg)
                .collect(),
            None => Vec::new(),
        }
    }
}

/// Computes the segments to prefetch after demand-fetching `seg`.
pub fn prefetch_targets(
    policy: &PrefetchPolicy,
    map: &crate::UniformMap,
    hints: &UnitHintMap,
    seg: SegNo,
) -> Vec<SegNo> {
    match policy {
        PrefetchPolicy::None => Vec::new(),
        PrefetchPolicy::NextSegments(n) => {
            let Some((vol, slot)) = map.vol_slot(seg) else {
                return Vec::new();
            };
            (1..=*n)
                .filter_map(|i| {
                    let s = slot + i;
                    (s < map.segs_per_volume).then(|| map.tert_seg(vol, s))
                })
                .collect()
        }
        PrefetchPolicy::UnitHints => hints.siblings(seg),
    }
}

/// Leaves a trace breadcrumb for a prefetch batch: which demand fetch
/// seeded it and how many speculative fetches it queued.
pub(crate) fn trace_batch(
    tracer: &hl_trace::Tracer,
    at: hl_sim::time::SimTime,
    seed: SegNo,
    queued: usize,
) {
    tracer.mark(at, format!("prefetch seed {seed} queued {queued}"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> crate::UniformMap {
        crate::UniformMap::new(2, 256, 16, 4, 8)
    }

    #[test]
    fn none_prefetches_nothing() {
        let m = map();
        let h = UnitHintMap::default();
        assert!(prefetch_targets(&PrefetchPolicy::None, &m, &h, m.tert_seg(0, 0)).is_empty());
    }

    #[test]
    fn next_segments_stay_within_the_volume() {
        let m = map();
        let h = UnitHintMap::default();
        let t = prefetch_targets(&PrefetchPolicy::NextSegments(3), &m, &h, m.tert_seg(1, 6));
        assert_eq!(t, vec![m.tert_seg(1, 7)]); // slot 8,9 do not exist
        let t = prefetch_targets(&PrefetchPolicy::NextSegments(2), &m, &h, m.tert_seg(2, 0));
        assert_eq!(t, vec![m.tert_seg(2, 1), m.tert_seg(2, 2)]);
    }

    #[test]
    fn unit_hints_return_siblings() {
        let m = map();
        let mut h = UnitHintMap::default();
        let a = m.tert_seg(0, 0);
        let b = m.tert_seg(0, 1);
        let c = m.tert_seg(0, 2);
        h.record(a, 7);
        h.record(b, 7);
        h.record(c, 9);
        let t = prefetch_targets(&PrefetchPolicy::UnitHints, &m, &h, a);
        assert_eq!(t, vec![b]);
        assert!(prefetch_targets(&PrefetchPolicy::UnitHints, &m, &h, m.tert_seg(3, 3)).is_empty());
    }

    #[test]
    fn trace_batch_leaves_one_mark_per_batch() {
        let tracer = hl_trace::Tracer::new();
        tracer.retain_events();
        trace_batch(&tracer, 1_000, 42, 3);
        trace_batch(&tracer, 2_000, 7, 1);
        let marks: Vec<(u64, String)> = tracer
            .events()
            .iter()
            .filter_map(|ev| match &ev.kind {
                hl_trace::EventKind::Mark { label } => Some((ev.at, label.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(
            marks,
            vec![
                (1_000, "prefetch seed 42 queued 3".to_string()),
                (2_000, "prefetch seed 7 queued 1".to_string()),
            ]
        );
        // Breadcrumbs feed the digest: the same batch sequence hashes
        // identically on a fresh recorder.
        let again = hl_trace::Tracer::new();
        trace_batch(&again, 1_000, 42, 3);
        trace_batch(&again, 2_000, 7, 1);
        assert_eq!(tracer.digest(), again.digest());
    }

    #[test]
    fn duplicate_records_do_not_duplicate_siblings() {
        let m = map();
        let mut h = UnitHintMap::default();
        let a = m.tert_seg(0, 0);
        let b = m.tert_seg(0, 1);
        h.record(a, 1);
        h.record(a, 1);
        h.record(b, 1);
        assert_eq!(h.siblings(b), vec![a]);
    }
}
