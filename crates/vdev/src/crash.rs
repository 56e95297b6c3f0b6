//! Deterministic crash injection at write boundaries (§3 recovery).
//!
//! The paper's recovery argument is that a crash leaves the log intact up
//! to the first incomplete partial segment: roll-forward replays complete
//! partials and stops at the tear. Testing that argument requires
//! *producing* such tears on demand. A [`CrashPlan`] counts the timed
//! block writes flowing through a [`CrashDev`] wrapper and, at a chosen
//! write index, tears that write — a deterministic byte prefix of the new
//! image reaches the medium, the rest keeps its old contents — and then
//! fails every subsequent operation as if the machine lost power.
//!
//! A scenario with `N` writes therefore has `N` distinct crash points.
//! A [`CrashPlan::counting`] dry run learns `N`; a torture driver then
//! replays the same seeded scenario `N` times, crashing at each write in
//! turn with [`CrashPlan::at_write`], and remounts over the raw device
//! underneath the wrapper, which holds the surviving media image.
//!
//! Like [`crate::fault::FaultPlan`], the plan is shared: `Clone` hands
//! out another handle to the same schedule, and the torn-write shape is
//! drawn from a seeded [`hl_sim::DetRng`], so the same seed and call
//! sequence always tear the same bytes.

use std::cell::RefCell;
use std::rc::Rc;

use hl_sim::time::SimTime;
use hl_sim::DetRng;

use crate::blockdev::{BlockDev, IoSlot};
use crate::error::DevError;

/// The record of the one torn write a crashed plan performed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TornWrite {
    /// Simulated time of the torn write.
    pub at: SimTime,
    /// First block of the interrupted write.
    pub block: u64,
    /// Length of the interrupted write, in bytes.
    pub len: usize,
    /// Byte prefix of the new image that reached the medium; the
    /// remainder of the range keeps its previous contents. May be `0`
    /// (nothing landed) or `len` (the image landed but the completion
    /// was lost with the machine).
    pub kept: usize,
}

struct CrashInner {
    /// Write index (0-based) at which to tear; `None` = count only.
    crash_at: Option<u64>,
    /// Timed writes observed so far.
    writes_seen: u64,
    /// Chooses the torn prefix length; seeded per plan.
    rng: DetRng,
    /// Set once the crash fires; all I/O through the wrapper fails after.
    torn: Option<TornWrite>,
    /// Optional trace recorder: the torn write leaves a `fault` event.
    tracer: Option<hl_trace::Tracer>,
}

/// What a [`CrashPlan`] decides about one timed write.
enum WriteFate {
    /// The machine is already down.
    Dead,
    /// Write normally.
    Pass,
    /// Tear the write: land this many bytes, then die.
    Tear(usize),
}

/// A shared crash schedule. Cloning shares the schedule, so a counting
/// pass and the device wrapper observe one write stream.
#[derive(Clone)]
pub struct CrashPlan {
    inner: Rc<RefCell<CrashInner>>,
}

impl CrashPlan {
    fn with(seed: u64, crash_at: Option<u64>) -> CrashPlan {
        // Mix the crash index into the seed so each crash point draws an
        // independent tear shape while staying reproducible.
        let mix = crash_at
            .unwrap_or(0)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(1);
        CrashPlan {
            inner: Rc::new(RefCell::new(CrashInner {
                crash_at,
                writes_seen: 0,
                rng: DetRng::new(seed ^ mix),
                torn: None,
                tracer: None,
            })),
        }
    }

    /// An inert plan that only counts writes — the dry run that
    /// discovers how many crash points a scenario has.
    pub fn counting(seed: u64) -> CrashPlan {
        CrashPlan::with(seed, None)
    }

    /// A plan armed to tear the `index`-th (0-based) timed write.
    pub fn at_write(seed: u64, index: u64) -> CrashPlan {
        CrashPlan::with(seed, Some(index))
    }

    /// Attaches a trace recorder: the torn write (if the plan fires)
    /// emits a `fault` event at its injection time.
    pub fn set_tracer(&self, tracer: hl_trace::Tracer) {
        self.inner.borrow_mut().tracer = Some(tracer);
    }

    /// Timed writes observed so far.
    pub fn writes_seen(&self) -> u64 {
        self.inner.borrow().writes_seen
    }

    /// Whether the crash has fired.
    pub fn crashed(&self) -> bool {
        self.inner.borrow().torn.is_some()
    }

    /// The torn write, once the crash has fired.
    pub fn torn(&self) -> Option<TornWrite> {
        self.inner.borrow().torn
    }

    /// Decides the fate of one timed write of `len` bytes.
    fn on_write(&self, at: SimTime, block: u64, len: usize) -> WriteFate {
        let mut p = self.inner.borrow_mut();
        if p.torn.is_some() {
            return WriteFate::Dead;
        }
        let index = p.writes_seen;
        p.writes_seen += 1;
        if p.crash_at == Some(index) {
            let kept = p.rng.below(len as u64 + 1) as usize;
            p.torn = Some(TornWrite {
                at,
                block,
                len,
                kept,
            });
            if let Some(t) = &p.tracer {
                t.fault(at, &format!("torn write b{block}+{kept}/{len}"));
            }
            WriteFate::Tear(kept)
        } else {
            WriteFate::Pass
        }
    }

    fn dead(&self) -> bool {
        self.inner.borrow().torn.is_some()
    }
}

/// A [`BlockDev`] wrapper that tears the scheduled write and then plays
/// dead. Stack it directly over the raw disk so every durable write —
/// partial segments, checkpoint read-modify-writes, cache fills — counts
/// as a crash boundary.
pub struct CrashDev {
    inner: Rc<dyn BlockDev>,
    plan: CrashPlan,
}

impl CrashDev {
    /// Wraps `inner` with `plan`.
    pub fn new(inner: Rc<dyn BlockDev>, plan: CrashPlan) -> CrashDev {
        CrashDev { inner, plan }
    }
}

impl BlockDev for CrashDev {
    fn nblocks(&self) -> u64 {
        self.inner.nblocks()
    }

    fn block_size(&self) -> usize {
        self.inner.block_size()
    }

    fn read(&self, at: SimTime, block: u64, buf: &mut [u8]) -> Result<IoSlot, DevError> {
        if self.plan.dead() {
            return Err(DevError::Offline);
        }
        self.inner.read(at, block, buf)
    }

    fn write(&self, at: SimTime, block: u64, buf: &[u8]) -> Result<IoSlot, DevError> {
        match self.plan.on_write(at, block, buf.len()) {
            WriteFate::Dead => Err(DevError::Offline),
            WriteFate::Pass => self.inner.write(at, block, buf),
            WriteFate::Tear(kept) => {
                // Land a byte prefix of the new image; the rest of the
                // range keeps its old device contents. Done with untimed
                // access: the machine is dying, nobody observes timing.
                let bs = self.inner.block_size();
                if kept > 0 && buf.len().is_multiple_of(bs) {
                    let nblocks = buf.len() / bs;
                    let mut old = vec![0u8; nblocks * bs];
                    if self.inner.peek(block, &mut old).is_ok() {
                        old[..kept].copy_from_slice(&buf[..kept]);
                        let _ = self.inner.poke(block, &old);
                    }
                }
                Err(DevError::Offline)
            }
        }
    }

    fn peek(&self, block: u64, buf: &mut [u8]) -> Result<(), DevError> {
        if self.plan.dead() {
            return Err(DevError::Offline);
        }
        self.inner.peek(block, buf)
    }

    fn poke(&self, block: u64, buf: &[u8]) -> Result<(), DevError> {
        if self.plan.dead() {
            return Err(DevError::Offline);
        }
        self.inner.poke(block, buf)
    }

    fn flush(&self, at: SimTime) -> Result<IoSlot, DevError> {
        if self.plan.dead() {
            return Err(DevError::Offline);
        }
        self.inner.flush(at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::Disk;
    use crate::profile::DiskProfile;

    fn disk() -> Rc<Disk> {
        Rc::new(Disk::new(DiskProfile::RZ57, 1024, None))
    }

    #[test]
    fn counting_plan_never_crashes() {
        let d = disk();
        let plan = CrashPlan::counting(1);
        let dev = CrashDev::new(d.clone(), plan.clone());
        let buf = vec![7u8; dev.block_size() * 3];
        for i in 0..10 {
            dev.write(0, i * 4, &buf).unwrap();
        }
        assert_eq!(plan.writes_seen(), 10);
        assert!(!plan.crashed());
    }

    #[test]
    fn armed_plan_tears_exactly_one_write_then_plays_dead() {
        let d = disk();
        let plan = CrashPlan::at_write(42, 2);
        let dev = CrashDev::new(d.clone(), plan.clone());
        let bs = dev.block_size();
        let a = vec![0xaau8; bs];
        let b = vec![0xbbu8; 2 * bs];
        dev.write(0, 0, &a).unwrap();
        dev.write(0, 1, &a).unwrap();
        // Third write (index 2) tears.
        assert_eq!(dev.write(0, 10, &b), Err(DevError::Offline));
        let torn = plan.torn().expect("crash fired");
        assert_eq!((torn.block, torn.len), (10, 2 * bs));
        assert!(torn.kept <= torn.len);
        // The medium holds exactly the torn prefix of the new image.
        let mut got = vec![0u8; 2 * bs];
        d.peek(10, &mut got).unwrap();
        assert!(got[..torn.kept].iter().all(|&x| x == 0xbb));
        assert!(got[torn.kept..].iter().all(|&x| x == 0x00));
        // All subsequent I/O fails.
        let mut one = vec![0u8; bs];
        assert_eq!(dev.read(0, 0, &mut one), Err(DevError::Offline));
        assert_eq!(dev.write(0, 0, &a), Err(DevError::Offline));
        assert_eq!(dev.peek(0, &mut one), Err(DevError::Offline));
        assert_eq!(dev.poke(0, &a), Err(DevError::Offline));
        assert_eq!(dev.flush(0), Err(DevError::Offline));
    }

    #[test]
    fn same_seed_same_tear() {
        for index in 0..5u64 {
            let run = |seed| {
                let d = disk();
                let plan = CrashPlan::at_write(seed, index);
                let dev = CrashDev::new(d, plan.clone());
                let buf = vec![0x5au8; dev.block_size() * 4];
                for i in 0..=index {
                    let _ = dev.write(0, i * 4, &buf);
                }
                plan.torn().expect("crash fired")
            };
            assert_eq!(run(7), run(7));
        }
        // Distinct crash indices draw independent tear shapes.
        let tears: Vec<usize> = (0..8)
            .map(|i| {
                let plan = CrashPlan::at_write(7, i);
                let dev = CrashDev::new(disk(), plan.clone());
                let buf = vec![1u8; dev.block_size() * 4];
                for k in 0..=i {
                    let _ = dev.write(0, k * 4, &buf);
                }
                plan.torn().unwrap().kept
            })
            .collect();
        assert!(
            tears.windows(2).any(|w| w[0] != w[1]),
            "tear shapes all identical: {tears:?}"
        );
    }

    #[test]
    fn plan_k_tears_write_k() {
        for i in 0..4 {
            let plan = CrashPlan::at_write(3, i);
            let dev = CrashDev::new(disk(), plan.clone());
            let buf = vec![2u8; dev.block_size()];
            let mut completed = 0u64;
            for k in 0..4u64 {
                match dev.write(0, k, &buf) {
                    Ok(_) => completed += 1,
                    Err(_) => break,
                }
            }
            assert_eq!(completed, i, "plan {i} must tear write {i}");
            assert!(plan.crashed());
        }
    }
}
