//! Open-addressed cache directory keyed by segment number.
//!
//! The paper's cache directory is "a simple hash table indexed by [the
//! tertiary] segment number" (§6.3). The std `HashMap` it used to be
//! pays SipHash plus a bucket indirection on every probe — measurable
//! on the resident hot path, where every block translation starts with
//! a directory lookup. This table is the flat alternative:
//!
//! - **Fibonacci hashing** (`key · 2^64/φ`, top bits) — one multiply,
//!   one shift, and strong spread for the small dense integer keys
//!   segment numbers are;
//! - **linear probing** over a power-of-two slot array — the probe walk
//!   is a cache-friendly sequential scan;
//! - **tombstones** for deletion, with the table rebuilt (not resized)
//!   when live + dead slots pass ⅞ occupancy so probe chains stay
//!   short.
//!
//! Determinism: iteration order is slot order, a pure function of the
//! operation history — unlike `RandomState` maps, two replays of the
//! same run enumerate lines identically. Callers rely on that order:
//! `HighLight` picks with unsorted `min_by_key`/`max_by_key` over
//! `SegCache::lines()`, so a tie goes to the line in the earliest slot,
//! and `eject_all` ejects in slot order. A change to the hash, the probe
//! or the rebuild rule therefore changes those choices and the trace
//! digests with them. Only `SegCache::pick_victim` sorts by key first.
//!
//! `tests/hotpath_props.rs` drives this table against a `HashMap`
//! oracle under random fill/eject/rekey sequences.

use hl_lfs::types::SegNo;

/// Slot-key sentinel: never a real `SegNo` (keys are stored as `u64`,
/// real segments occupy `0..=u32::MAX`).
const EMPTY: u64 = u64::MAX;
/// Deleted-slot sentinel: probes continue past it, inserts may reuse it.
const TOMB: u64 = u64::MAX - 1;

/// 2^64 / φ, the multiplicative-hash constant.
const PHI: u64 = 0x9e37_79b9_7f4a_7c15;

/// Open-addressed `SegNo → V` map with linear probing.
#[derive(Clone, Debug)]
pub struct SegDir<V> {
    /// Slot keys: a real segment number, [`EMPTY`], or [`TOMB`].
    keys: Vec<u64>,
    /// Slot values; `Some` exactly where `keys` holds a real segment.
    vals: Vec<Option<V>>,
    /// `keys.len() - 1` (capacity is a power of two).
    mask: usize,
    /// `64 - log2(capacity)`: Fibonacci hash shift.
    shift: u32,
    /// Live entries.
    len: usize,
    /// Tombstoned slots (reclaimed by `rebuild`).
    tombs: usize,
}

impl<V> Default for SegDir<V> {
    fn default() -> SegDir<V> {
        SegDir::new()
    }
}

impl<V> SegDir<V> {
    /// An empty directory (8 slots; grows as needed).
    pub fn new() -> SegDir<V> {
        SegDir::with_capacity(8)
    }

    /// An empty directory pre-sized so `cap` entries fit below the ⅞
    /// load factor.
    pub fn with_capacity(cap: usize) -> SegDir<V> {
        let slots = (cap.max(7) * 8 / 7 + 1).next_power_of_two();
        SegDir {
            keys: vec![EMPTY; slots],
            vals: (0..slots).map(|_| None).collect(),
            mask: slots - 1,
            shift: 64 - slots.trailing_zeros(),
            len: 0,
            tombs: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` when no entries are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Home slot for `key`.
    #[inline]
    fn slot_of(&self, key: SegNo) -> usize {
        ((key as u64).wrapping_mul(PHI) >> self.shift) as usize
    }

    /// Finds the slot holding `key`, if present.
    #[inline]
    fn find(&self, key: SegNo) -> Option<usize> {
        let k = key as u64;
        let mut i = self.slot_of(key);
        loop {
            let slot = self.keys[i];
            if slot == k {
                return Some(i);
            }
            if slot == EMPTY {
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Immutable lookup.
    #[inline]
    pub fn get(&self, key: SegNo) -> Option<&V> {
        self.find(key).and_then(|i| self.vals[i].as_ref())
    }

    /// Mutable lookup.
    #[inline]
    pub fn get_mut(&mut self, key: SegNo) -> Option<&mut V> {
        match self.find(key) {
            Some(i) => self.vals[i].as_mut(),
            None => None,
        }
    }

    /// Membership test.
    #[inline]
    pub fn contains_key(&self, key: SegNo) -> bool {
        self.find(key).is_some()
    }

    /// Inserts, returning the previous value if the key was present.
    pub fn insert(&mut self, key: SegNo, val: V) -> Option<V> {
        if (self.len + self.tombs + 1) * 8 > (self.mask + 1) * 7 {
            self.rebuild();
        }
        let k = key as u64;
        let mut i = self.slot_of(key);
        let mut first_tomb: Option<usize> = None;
        loop {
            let slot = self.keys[i];
            if slot == k {
                return self.vals[i].replace(val);
            }
            if slot == TOMB {
                first_tomb.get_or_insert(i);
            } else if slot == EMPTY {
                let dst = match first_tomb {
                    Some(t) => {
                        self.tombs -= 1;
                        t
                    }
                    None => i,
                };
                self.keys[dst] = k;
                self.vals[dst] = Some(val);
                self.len += 1;
                return None;
            }
            i = (i + 1) & self.mask;
        }
    }

    /// Removes, returning the value if the key was present.
    pub fn remove(&mut self, key: SegNo) -> Option<V> {
        let i = self.find(key)?;
        self.keys[i] = TOMB;
        self.tombs += 1;
        self.len -= 1;
        self.vals[i].take()
    }

    /// Re-hashes every live entry into a table sized for the current
    /// population (at least double the live count, so a rebuild always
    /// frees headroom even when tombstones caused it).
    fn rebuild(&mut self) {
        let new = SegDir::with_capacity((self.len + 1) * 2);
        let (mut keys, mut vals) = (new.keys, new.vals);
        let (mask, shift) = (new.mask, new.shift);
        for (k, v) in self.keys.iter().zip(self.vals.iter_mut()) {
            if *k == EMPTY || *k == TOMB {
                continue;
            }
            let mut i = (k.wrapping_mul(PHI) >> shift) as usize;
            while keys[i] != EMPTY {
                i = (i + 1) & mask;
            }
            keys[i] = *k;
            vals[i] = v.take();
        }
        self.keys = keys;
        self.vals = vals;
        self.mask = mask;
        self.shift = shift;
        self.tombs = 0;
    }

    /// Iterates live values in slot order (a deterministic function of
    /// the operation history).
    pub fn values(&self) -> impl Iterator<Item = &V> + '_ {
        self.vals.iter().filter_map(|v| v.as_ref())
    }

    /// Iterates live keys in slot order.
    pub fn keys(&self) -> impl Iterator<Item = SegNo> + '_ {
        self.keys
            .iter()
            .filter(|&&k| k != EMPTY && k != TOMB)
            .map(|&k| k as SegNo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut d: SegDir<u64> = SegDir::new();
        assert!(d.is_empty());
        assert_eq!(d.insert(7, 70), None);
        assert_eq!(d.insert(7, 71), Some(70));
        assert_eq!(d.get(7), Some(&71));
        *d.get_mut(7).unwrap() += 1;
        assert_eq!(d.remove(7), Some(72));
        assert_eq!(d.remove(7), None);
        assert!(d.is_empty());
    }

    #[test]
    fn grows_past_initial_capacity() {
        let mut d: SegDir<u32> = SegDir::new();
        for i in 0..10_000u32 {
            d.insert(i * 3, i);
        }
        assert_eq!(d.len(), 10_000);
        for i in 0..10_000u32 {
            assert_eq!(d.get(i * 3), Some(&i));
        }
        assert_eq!(d.get(1), None);
    }

    #[test]
    fn tombstones_do_not_break_probe_chains() {
        let mut d: SegDir<u32> = SegDir::with_capacity(16);
        // Force collisions by inserting many keys, then delete some in
        // the middle of chains and verify the rest stay findable.
        for i in 0..12u32 {
            d.insert(i, i);
        }
        for i in (0..12u32).step_by(2) {
            assert_eq!(d.remove(i), Some(i));
        }
        for i in (1..12u32).step_by(2) {
            assert_eq!(d.get(i), Some(&i), "lost key {i} after deletions");
        }
        // Reinsertion reuses tombstones.
        for i in (0..12u32).step_by(2) {
            d.insert(i, i + 100);
        }
        for i in (0..12u32).step_by(2) {
            assert_eq!(d.get(i), Some(&(i + 100)));
        }
    }

    #[test]
    fn heavy_churn_stays_consistent() {
        let mut d: SegDir<u32> = SegDir::new();
        for round in 0..50u32 {
            for i in 0..64u32 {
                d.insert(i, round);
            }
            for i in 0..64u32 {
                if (i + round) % 3 == 0 {
                    d.remove(i);
                }
            }
        }
        let live: Vec<SegNo> = d.keys().collect();
        assert_eq!(live.len(), d.len());
        for k in live {
            assert!(d.get(k).is_some());
        }
    }

    #[test]
    fn u32_max_is_a_valid_key() {
        let mut d: SegDir<&'static str> = SegDir::new();
        d.insert(u32::MAX, "top");
        d.insert(u32::MAX - 1, "next");
        assert_eq!(d.get(u32::MAX), Some(&"top"));
        assert_eq!(d.remove(u32::MAX - 1), Some("next"));
        assert_eq!(d.get(u32::MAX), Some(&"top"));
    }
}
