//! Address-range sharding of the engine.
//!
//! The service layer's scaling decision (DESIGN.md §6h): rather than
//! one engine instance guarding one set of queues, the object space is
//! split into contiguous address ranges, each owned by a full engine
//! shard — its own jukebox, cache disk, segment cache, and
//! `SvcActor`/`IoActor` pipeline — all cohabiting one deterministic
//! scheduler. `obj → shard` is a pure function, so every fetch of an
//! object lands on the same shard and duplicate-fetch coalescing keeps
//! its N-readers-one-media-read guarantee per shard with no
//! cross-shard coordination at all.

use std::rc::Rc;

use highlight::rig::RigSpec;
use highlight::segcache::EjectPolicy;
use highlight::{TertiaryIo, UniformMap};
use hl_footprint::Jukebox;
use hl_lfs::types::SegNo;
use hl_sim::Scheduler;

/// Geometry of one engine shard.
#[derive(Clone, Copy, Debug)]
pub struct ShardSpec {
    /// Jukebox volumes per shard.
    pub volumes: u32,
    /// Segment slots per volume.
    pub segments_per_volume: u32,
    /// Segment-cache lines per shard.
    pub cache_lines: u32,
    /// Jukebox drives per shard.
    pub drives: usize,
}

impl ShardSpec {
    /// Objects a shard of this geometry serves (one per tertiary
    /// segment).
    pub fn objects(&self) -> u64 {
        self.volumes as u64 * self.segments_per_volume as u64
    }
}

/// One engine shard: a full `TertiaryIo` rig plus its address map.
pub struct Shard {
    /// The engine instance.
    pub tio: Rc<TertiaryIo>,
    /// The shard's block-address map.
    pub map: UniformMap,
    /// Jukebox handle (oracle pokes, fault injection).
    pub jukebox: Jukebox,
    spv: u32,
}

impl Shard {
    /// The tertiary segment backing shard-local object `local`.
    pub fn seg_of(&self, local: u64) -> SegNo {
        self.map.tert_seg(
            (local / self.spv as u64) as u32,
            (local % self.spv as u64) as u32,
        )
    }
}

/// N engine shards keyed by contiguous object ranges.
pub struct ShardedEngine {
    /// The shards, in address order.
    pub shards: Vec<Shard>,
    per_shard: u64,
}

impl ShardedEngine {
    /// Builds `shards` identical engine shards, pokes the deterministic
    /// oracle image onto every tertiary segment, and attaches each
    /// shard's actors to `sched`. Spawn order (shard 0 first) is part
    /// of the deterministic schedule.
    pub fn build<W: 'static>(
        seed: u64,
        shards: usize,
        spec: ShardSpec,
        sched: &mut Scheduler<W>,
    ) -> ShardedEngine {
        ShardedEngine::build_with_eject(seed, shards, spec, sched, EjectPolicy::Lru)
    }

    /// [`ShardedEngine::build`] with an explicit cache-ejection policy
    /// per shard (the policy ablation harness varies it; everything else
    /// about the shard geometry stays identical).
    pub fn build_with_eject<W: 'static>(
        seed: u64,
        shards: usize,
        spec: ShardSpec,
        sched: &mut Scheduler<W>,
        eject: EjectPolicy,
    ) -> ShardedEngine {
        assert!(shards > 0, "at least one shard");
        let mut built = Vec::new();
        for s in 0..shards {
            // Per-shard seed offset: shards hold distinct object ranges,
            // so their images must differ too.
            let shard_seed = seed ^ (s as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            let (tio, jb, map) = RigSpec {
                eject,
                ..RigSpec::cache_disk(
                    spec.cache_lines,
                    spec.volumes,
                    spec.segments_per_volume,
                    spec.drives,
                    shard_seed,
                )
            }
            .build();
            tio.attach_engine(sched);
            built.push(Shard {
                tio,
                map,
                jukebox: jb,
                spv: spec.segments_per_volume,
            });
        }
        ShardedEngine {
            shards: built,
            per_shard: spec.objects(),
        }
    }

    /// Total objects across all shards.
    pub fn objects(&self) -> u64 {
        self.per_shard * self.shards.len() as u64
    }

    /// The shard owning `obj` (address-range division).
    fn shard_of(&self, obj: u64) -> usize {
        ((obj / self.per_shard) as usize).min(self.shards.len() - 1)
    }

    /// Resolves `obj` to its shard index and tertiary segment.
    pub fn locate(&self, obj: u64) -> (usize, SegNo) {
        let s = self.shard_of(obj);
        (s, self.shards[s].seg_of(obj % self.per_shard))
    }

    /// FNV-1a fold of the per-shard trace digests: byte-identical runs
    /// (all shards) hash equal.
    pub fn combined_digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for s in &self.shards {
            for b in s.tio.trace_digest().to_le_bytes() {
                h ^= b as u64;
                h = h.wrapping_mul(0x100_0000_01b3);
            }
        }
        h
    }

    /// Total tracecheck findings across the shards.
    pub fn total_findings(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.tio.trace_findings().len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> ShardSpec {
        ShardSpec {
            volumes: 4,
            segments_per_volume: 8,
            cache_lines: 8,
            drives: 2,
        }
    }

    #[test]
    fn objects_map_onto_stable_shard_ranges() {
        let mut sched: Scheduler<()> = Scheduler::new();
        let eng = ShardedEngine::build(1, 3, spec(), &mut sched);
        assert_eq!(eng.objects(), 96);
        assert_eq!(eng.shard_of(0), 0);
        assert_eq!(eng.shard_of(31), 0);
        assert_eq!(eng.shard_of(32), 1);
        assert_eq!(eng.shard_of(95), 2);
        // A function of the address alone: repeated lookups agree.
        for obj in 0..eng.objects() {
            let (s1, seg1) = eng.locate(obj);
            let (s2, seg2) = eng.locate(obj);
            assert_eq!((s1, seg1), (s2, seg2));
        }
    }

    #[test]
    fn per_shard_fetches_serve_the_oracle_image() {
        let mut sched: Scheduler<()> = Scheduler::new();
        let eng = ShardedEngine::build(2, 2, spec(), &mut sched);
        // One object per shard, fetched through tenant sessions driven
        // by the shared external scheduler.
        let fetch = |obj, tenant| {
            let (si, seg) = eng.locate(obj);
            eng.shards[si].tio.session(tenant).enqueue_demand(0, seg)
        };
        let (t0, t1) = (fetch(0, 1), fetch(40, 2));
        sched.run(&mut ());
        assert!(t0.fetch_result().is_ok());
        assert!(t1.fetch_result().is_ok());
        assert_eq!(eng.total_findings(), 0);
    }
}
