//! Mixed reader/writer tenants with conflicting working sets.
//!
//! The thrash case from Lomet & Luo's space-reclamation work (PAPERS.md):
//! several reader tenants whose combined working set exceeds the segment
//! cache, plus writer tenants staging fresh segments out through the
//! same line pool and the same drive pool. Every reader miss costs an
//! eviction *and* competes with the copy-out stream for drives, so cache
//! hit rate and demand residency degrade together — the scenario future
//! cleaning/migration policies are measured against.
//!
//! Readers draw Zipfian-skewed targets from seeded working sets inside
//! the *read region* (volumes `0..volumes - writers`); each writer owns
//! one private volume at the top of the hierarchy so staging never
//! collides with a cached read line.

use hl_sim::DetRng;

use crate::zipf::Zipfian;

/// Arrival stagger between consecutive tenants, µs: tenant `i` starts
/// issuing at `i × ARRIVAL_STAGGER`. Half a second keeps ramp-up
/// visible in traces without serializing the mix.
const ARRIVAL_STAGGER: u64 = 500_000;

/// What a tenant does to the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum TenantKind {
    /// Issues closed-loop demand reads over its working set.
    Reader,
    /// Stages fresh segments and copies them out to its private volume.
    Writer,
}

/// One tenant of the mix.
#[derive(Clone, Debug)]
pub struct Tenant {
    /// Tenant index within the mix.
    pub id: u32,
    /// Reader or writer.
    pub kind: TenantKind,
    /// `(vol, slot)` targets: a reader's working set (sampled with
    /// skew), or a writer's copy-out slots (consumed in order).
    pub working_set: Vec<(u32, u32)>,
    /// Think time between requests, µs.
    pub think: u64,
    /// When this tenant starts issuing, µs from run start. Stable per
    /// id, so the same mix drives the thrash scenario and the server
    /// fleet with identical ramp-up.
    pub arrival: u64,
    zipf: Zipfian,
}

impl Tenant {
    /// The next read target: a Zipfian draw over the working set, so
    /// each tenant has its own hot spot inside its set.
    pub fn next_target(&mut self) -> (u32, u32) {
        self.working_set[self.zipf.draw()]
    }
}

/// The seeded tenant mix.
#[derive(Clone, Debug)]
pub struct TenantMix {
    /// All tenants, readers first.
    pub tenants: Vec<Tenant>,
    /// Volumes in the hierarchy (writers own the top `writers` of them).
    pub volumes: u32,
    /// Segment slots per volume.
    pub segments_per_volume: u32,
}

impl TenantMix {
    /// Builds `readers` reader tenants with `set_size`-segment working
    /// sets drawn from the read region, plus `writers` writer tenants
    /// each owning one private volume. Panics if the geometry cannot
    /// host the mix.
    pub fn new(
        seed: u64,
        readers: u32,
        writers: u32,
        set_size: u32,
        volumes: u32,
        segments_per_volume: u32,
        think: u64,
    ) -> TenantMix {
        assert!(volumes > writers, "no read region left for the readers");
        let read_vols = volumes - writers;
        let region = read_vols * segments_per_volume;
        assert!(
            set_size <= region,
            "working set {set_size} exceeds the read region {region}"
        );
        let mut tenants = Vec::new();
        for id in 0..readers {
            // Each reader draws its own shuffled subset of the read
            // region: sets overlap freely, and their union is what
            // outsizes the cache.
            let mut rng = DetRng::new(seed ^ (0x7e_4a17 + id as u64 * 0x9e37_79b9));
            let mut all: Vec<(u32, u32)> = (0..region)
                .map(|i| (i / segments_per_volume, i % segments_per_volume))
                .collect();
            rng.shuffle(&mut all);
            all.truncate(set_size as usize);
            tenants.push(Tenant {
                id,
                kind: TenantKind::Reader,
                working_set: all,
                think,
                arrival: id as u64 * ARRIVAL_STAGGER,
                zipf: Zipfian::new(seed ^ (0xbead + id as u64), set_size as usize, 1.0),
            });
        }
        for w in 0..writers {
            let vol = volumes - 1 - w;
            tenants.push(Tenant {
                id: readers + w,
                kind: TenantKind::Writer,
                working_set: (0..segments_per_volume).map(|s| (vol, s)).collect(),
                think,
                arrival: (readers + w) as u64 * ARRIVAL_STAGGER,
                zipf: Zipfian::new(seed ^ (0x3017 + w as u64), 1, 1.0),
            });
        }
        TenantMix {
            tenants,
            volumes,
            segments_per_volume,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_per_seed() {
        let a = TenantMix::new(42, 3, 1, 10, 6, 8, 1_000_000);
        let b = TenantMix::new(42, 3, 1, 10, 6, 8, 1_000_000);
        for (x, y) in a.tenants.iter().zip(&b.tenants) {
            assert_eq!(x.working_set, y.working_set);
        }
        let c = TenantMix::new(43, 3, 1, 10, 6, 8, 1_000_000);
        assert_ne!(a.tenants[0].working_set, c.tenants[0].working_set);
    }

    #[test]
    fn readers_stay_inside_the_read_region() {
        let m = TenantMix::new(7, 4, 2, 12, 6, 8, 0);
        for t in m.tenants.iter().filter(|t| t.kind == TenantKind::Reader) {
            assert!(t.working_set.iter().all(|&(v, s)| v < 4 && s < 8), "{t:?}");
            assert_eq!(t.working_set.len(), 12);
        }
    }

    #[test]
    fn writers_own_disjoint_private_volumes() {
        let m = TenantMix::new(7, 2, 2, 8, 6, 8, 0);
        let writer_vols: Vec<u32> = m
            .tenants
            .iter()
            .filter(|t| t.kind == TenantKind::Writer)
            .map(|t| t.working_set[0].0)
            .collect();
        assert_eq!(writer_vols, [5, 4]);
        for t in m.tenants.iter().filter(|t| t.kind == TenantKind::Writer) {
            let vol = t.working_set[0].0;
            assert!(t.working_set.iter().all(|&(v, _)| v == vol));
            assert_eq!(t.working_set.len(), 8);
        }
    }

    #[test]
    fn reader_draws_are_skewed_and_repeatable() {
        let m = TenantMix::new(9, 1, 0, 16, 4, 8, 0);
        let mut t1 = m.tenants[0].clone();
        let mut t2 = m.tenants[0].clone();
        let xs: Vec<(u32, u32)> = (0..100).map(|_| t1.next_target()).collect();
        let ys: Vec<(u32, u32)> = (0..100).map(|_| t2.next_target()).collect();
        assert_eq!(xs, ys);
        // The Zipfian draw concentrates on the set's head.
        let head = m.tenants[0].working_set[0];
        let head_hits = xs.iter().filter(|&&p| p == head).count();
        assert!(head_hits > 10, "head of the set drew {head_hits}/100");
    }

    #[test]
    fn arrivals_follow_the_stagger() {
        let m = TenantMix::new(5, 2, 1, 8, 6, 8, 0);
        let arrivals: Vec<(u32, u64)> = m.tenants.iter().map(|t| (t.id, t.arrival)).collect();
        assert_eq!(
            arrivals,
            [(0, 0), (1, ARRIVAL_STAGGER), (2, 2 * ARRIVAL_STAGGER)]
        );
    }

    #[test]
    fn union_of_working_sets_outgrows_one_set() {
        let m = TenantMix::new(11, 3, 1, 10, 6, 8, 0);
        let mut union: Vec<(u32, u32)> = m
            .tenants
            .iter()
            .filter(|t| t.kind == TenantKind::Reader)
            .flat_map(|t| t.working_set.iter().copied())
            .collect();
        union.sort_unstable();
        union.dedup();
        assert!(union.len() > 10);
        assert!(union.len() <= 40);
    }
}
