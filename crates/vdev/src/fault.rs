//! Deterministic, seeded fault injection (§10).
//!
//! The paper's reliability discussion lists the ways robotic tertiary
//! storage fails that disks do not: arm jams, failed volume swaps, media
//! decay, and compression shortfalls that end a medium early. A
//! [`FaultPlan`] is a seeded schedule of such faults over simulated
//! time: devices consult it at each operation and it answers "inject
//! this fault here" or "proceed". Because every decision is drawn from a
//! [`hl_sim::DetRng`] in device-call order — and the simulation itself
//! is deterministic — the same seed always produces the same fault
//! sequence, which is what makes the recovery layer testable.
//!
//! Faults can also be *scripted* ([`FaultPlan::fail_volume_at`]) for
//! regression tests that need one precise failure rather than a rate.
//!
//! The plan is shared (`Clone` hands out another handle to the same
//! schedule), so the test that scripted it can keep adding faults after
//! handing it to the jukebox. Every injected fault leaves a `fault`
//! event in the attached trace recorder, in call order, and is recorded
//! nowhere else.

use std::cell::RefCell;
use std::rc::Rc;

use hl_sim::time::{SimTime, SEC};
use hl_sim::DetRng;

/// Extra time a jammed robot swap spends stuck.
const SWAP_STUCK_TIME: SimTime = 60 * SEC;

/// Fault rates and shapes. All probabilities are per-operation.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// RNG seed; two plans with the same seed and the same call sequence
    /// inject identical faults.
    pub seed: u64,
    /// Probability a segment (or block) read fails transiently
    /// (`DevError::ReadError`); a retry may succeed.
    pub transient_read_p: f64,
    /// Probability a segment read kills the whole volume
    /// (`DevError::MediaFailure`); the volume stays dead.
    pub media_failure_p: f64,
    /// Probability a robot swap jams, adding a minute stuck to the swap
    /// before it completes.
    pub swap_jam_p: f64,
    /// Probability a robot swap fails outright (`DevError::Offline`).
    pub swap_fail_p: f64,
    /// Probability a segment write reports `EndOfMedium` early (a
    /// compression shortfall beyond what the volume already declared).
    pub early_eom_p: f64,
}

impl FaultConfig {
    /// A plan that injects nothing (useful as a base for struct update).
    pub fn none(seed: u64) -> FaultConfig {
        FaultConfig {
            seed,
            transient_read_p: 0.0,
            media_failure_p: 0.0,
            swap_jam_p: 0.0,
            swap_fail_p: 0.0,
            early_eom_p: 0.0,
        }
    }
}

/// What the plan decided to inject on a read or write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MediaFault {
    /// Fail this operation with `ReadError`; the medium is fine.
    Transient,
    /// Fail this operation and the volume with `MediaFailure`.
    Permanent,
    /// Fail this write with `EndOfMedium` (the volume is now full).
    EarlyEom,
}

/// What the plan decided to inject on a robot swap.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SwapFault {
    /// The arm jammed: the swap completes after this much extra time.
    Jam {
        /// Extra stuck time added to the swap.
        stuck: SimTime,
    },
    /// The swap failed; the volume is not loaded (`DevError::Offline`).
    Failed,
}

/// What the plan decided to inject on an operation routed to a drive.
/// Drive faults are scripted-only (no RNG draw), so adding them to a
/// plan never perturbs the seeded media-fault stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DriveFault {
    /// The drive has failed hard and stays dead.
    Dead,
    /// The drive hangs: the op never completes (a watchdog must fire).
    /// It heals on its own when the scripted hang window ends.
    Hang,
}

struct PlanInner {
    cfg: FaultConfig,
    rng: DetRng,
    /// Scripted permanent failures: `(vol, not-before time)`; consumed
    /// on first matching operation.
    scripted_kills: Vec<(u32, SimTime)>,
    /// Volumes this plan has already permanently failed (scripted kills
    /// fire once; probabilistic kills don't re-fire on a dead volume).
    killed: Vec<u32>,
    /// Scripted hard drive failures: `(drive, from)`; permanent.
    drive_deaths: Vec<(u32, SimTime)>,
    /// Drives whose death has already been logged (detection fires once).
    dead_logged: Vec<u32>,
    /// Scripted drive hangs: `(drive, from, until)`; ops started inside
    /// the window hang, and the drive heals at `until`.
    drive_hangs: Vec<(u32, SimTime, SimTime)>,
    /// Scripted degradation: `(drive, factor, from)` — media transfers on
    /// the drive take `factor`× their nominal time from `from` onward.
    drive_slows: Vec<(u32, f64, SimTime)>,
    /// Robot jam windows `(from, until)`: swaps started inside a window
    /// stall until it ends (the arm is stuck holding a platter).
    robot_jams: Vec<(SimTime, SimTime)>,
    /// Optional trace recorder: each injected fault leaves a `fault`
    /// event so traces can be correlated with recovery activity. It is
    /// the only record of what was injected.
    tracer: Option<hl_trace::Tracer>,
}

impl PlanInner {
    fn trace(&self, at: SimTime, label: String) {
        if let Some(t) = &self.tracer {
            t.fault(at, label);
        }
    }
}

/// A shared, seeded fault schedule. Cloning shares the schedule.
#[derive(Clone)]
pub struct FaultPlan {
    inner: Rc<RefCell<PlanInner>>,
}

impl FaultPlan {
    /// Builds a plan from rates. A `FaultConfig::none(seed)` plan is
    /// inert until scripted faults are added.
    pub fn new(cfg: FaultConfig) -> FaultPlan {
        FaultPlan {
            inner: Rc::new(RefCell::new(PlanInner {
                rng: DetRng::new(cfg.seed),
                cfg,
                scripted_kills: Vec::new(),
                killed: Vec::new(),
                drive_deaths: Vec::new(),
                dead_logged: Vec::new(),
                drive_hangs: Vec::new(),
                drive_slows: Vec::new(),
                robot_jams: Vec::new(),
                tracer: None,
            })),
        }
    }

    /// Attaches a trace recorder: every injected fault also emits a
    /// `fault` event into the trace at its injection time.
    pub fn set_tracer(&self, tracer: hl_trace::Tracer) {
        self.inner.borrow_mut().tracer = Some(tracer);
    }

    /// Scripts a permanent media failure: the first read of `vol` at or
    /// after `at` fails the volume.
    pub fn fail_volume_at(&self, vol: u32, at: SimTime) {
        self.inner.borrow_mut().scripted_kills.push((vol, at));
    }

    /// Scripts a hard drive failure: every operation routed to `drive`
    /// at or after `at` fails with [`DriveFault::Dead`]. Scripted-only —
    /// no RNG draw, so the seeded media-fault stream is unperturbed.
    pub fn fail_drive_at(&self, drive: u32, at: SimTime) {
        self.inner.borrow_mut().drive_deaths.push((drive, at));
    }

    /// Scripts a drive hang: operations routed to `drive` inside
    /// `[at, at + dur)` hang ([`DriveFault::Hang`]); the drive heals at
    /// `at + dur` (health probes start succeeding again).
    pub fn hang_drive_at(&self, drive: u32, at: SimTime, dur: SimTime) {
        self.inner
            .borrow_mut()
            .drive_hangs
            .push((drive, at, at.saturating_add(dur)));
    }

    /// Scripts degradation: media transfers on `drive` starting at or
    /// after `at` take `factor`× their nominal time.
    pub fn slow_drive_from(&self, drive: u32, factor: f64, at: SimTime) {
        self.inner
            .borrow_mut()
            .drive_slows
            .push((drive, factor, at));
    }

    /// Scripts a robot jam: swaps started inside `[at, at + dur)` stall
    /// until the window ends (the arm is stuck while loaded).
    pub fn jam_robot_during(&self, at: SimTime, dur: SimTime) {
        self.inner
            .borrow_mut()
            .robot_jams
            .push((at, at.saturating_add(dur)));
    }

    /// Decides the fate of an operation routed to `drive` at `at`.
    /// Consults only the scripted drive-fault schedule (never the RNG).
    pub fn on_drive_op(&self, at: SimTime, drive: u32) -> Option<DriveFault> {
        let mut p = self.inner.borrow_mut();
        let p = &mut *p;
        if p.drive_deaths.iter().any(|&(d, t)| d == drive && at >= t) {
            if !p.dead_logged.contains(&drive) {
                p.dead_logged.push(drive);
                p.trace(at, format!("drive dead d{drive}"));
            }
            return Some(DriveFault::Dead);
        }
        if p.drive_hangs
            .iter()
            .any(|&(d, from, until)| d == drive && at >= from && at < until)
        {
            p.trace(at, format!("drive hang d{drive}"));
            return Some(DriveFault::Hang);
        }
        None
    }

    /// Health probe: `true` when `drive` would service an op started at
    /// `at` (not dead, not inside a hang window). Draws nothing and logs
    /// nothing — probing is free to repeat.
    pub fn drive_healthy(&self, at: SimTime, drive: u32) -> bool {
        let p = self.inner.borrow();
        !p.drive_deaths.iter().any(|&(d, t)| d == drive && at >= t)
            && !p
                .drive_hangs
                .iter()
                .any(|&(d, from, until)| d == drive && at >= from && at < until)
    }

    /// Degradation factor for a media transfer on `drive` at `at`
    /// (1.0 = nominal). Multiple overlapping slowdowns compound.
    pub fn drive_slow_factor(&self, at: SimTime, drive: u32) -> f64 {
        self.inner
            .borrow()
            .drive_slows
            .iter()
            .filter(|&&(d, _, from)| d == drive && at >= from)
            .map(|&(_, f, _)| f)
            .product()
    }

    /// If a swap started at `at` falls inside a robot jam window,
    /// returns when the robot unjams (the swap may proceed then).
    pub fn robot_jam_until(&self, at: SimTime) -> Option<SimTime> {
        let mut p = self.inner.borrow_mut();
        let p = &mut *p;
        let until = p
            .robot_jams
            .iter()
            .filter(|&&(from, until)| at >= from && at < until)
            .map(|&(_, until)| until)
            .max()?;
        p.trace(at, format!("robot jam until t{until}"));
        Some(until)
    }

    /// Decides the fate of a segment read of `(vol, slot)`.
    pub fn on_read(&self, at: SimTime, vol: u32, slot: u32) -> Option<MediaFault> {
        let mut p = self.inner.borrow_mut();
        let p = &mut *p;
        if let Some(i) = p
            .scripted_kills
            .iter()
            .position(|&(v, t)| v == vol && at >= t)
        {
            p.scripted_kills.remove(i);
            p.killed.push(vol);
            p.trace(at, format!("media failure v{vol}"));
            return Some(MediaFault::Permanent);
        }
        if p.killed.contains(&vol) {
            // Already dead; the device reports MediaFailure on its own.
            return None;
        }
        if p.cfg.media_failure_p > 0.0 && p.rng.chance(p.cfg.media_failure_p) {
            p.killed.push(vol);
            p.trace(at, format!("media failure v{vol}"));
            return Some(MediaFault::Permanent);
        }
        if p.cfg.transient_read_p > 0.0 && p.rng.chance(p.cfg.transient_read_p) {
            p.trace(at, format!("transient read v{vol} s{slot}"));
            return Some(MediaFault::Transient);
        }
        None
    }

    /// Decides the fate of a segment write to `(vol, slot)`.
    pub fn on_write(&self, at: SimTime, vol: u32, slot: u32) -> Option<MediaFault> {
        let mut p = self.inner.borrow_mut();
        let p = &mut *p;
        if p.cfg.early_eom_p > 0.0 && p.rng.chance(p.cfg.early_eom_p) {
            p.trace(at, format!("early eom v{vol} s{slot}"));
            return Some(MediaFault::EarlyEom);
        }
        None
    }

    /// Decides the fate of a robot swap loading `vol`.
    pub fn on_swap(&self, at: SimTime, vol: u32) -> Option<SwapFault> {
        let mut p = self.inner.borrow_mut();
        let p = &mut *p;
        if p.cfg.swap_fail_p > 0.0 && p.rng.chance(p.cfg.swap_fail_p) {
            p.trace(at, format!("swap fail v{vol}"));
            return Some(SwapFault::Failed);
        }
        if p.cfg.swap_jam_p > 0.0 && p.rng.chance(p.cfg.swap_jam_p) {
            let stuck = SWAP_STUCK_TIME;
            p.trace(at, format!("swap jam v{vol} +{stuck}"));
            return Some(SwapFault::Jam { stuck });
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hl_trace::{EventKind, Tracer};

    /// Attaches a fresh recorder to `plan`.
    fn traced(plan: &FaultPlan) -> Tracer {
        let t = Tracer::new();
        t.retain_events();
        plan.set_tracer(t.clone());
        t
    }

    /// The `(time, label)` of every `fault` event, in emission order.
    fn faults(t: &Tracer) -> Vec<(SimTime, String)> {
        let events = t.events().into_iter();
        let faults = events.filter_map(|ev| match ev.kind {
            EventKind::Fault { label } => Some((ev.at, label)),
            _ => None,
        });
        faults.collect()
    }

    fn noisy(seed: u64) -> FaultPlan {
        FaultPlan::new(FaultConfig {
            transient_read_p: 0.3,
            media_failure_p: 0.05,
            swap_jam_p: 0.2,
            swap_fail_p: 0.1,
            early_eom_p: 0.1,
            ..FaultConfig::none(seed)
        })
    }

    #[test]
    fn same_seed_same_schedule() {
        let a = noisy(42);
        let b = noisy(42);
        let (ta, tb) = (traced(&a), traced(&b));
        for t in 0..200u64 {
            assert_eq!(a.on_read(t, 1, 2), b.on_read(t, 1, 2));
            assert_eq!(a.on_write(t, 1, 2), b.on_write(t, 1, 2));
            assert_eq!(a.on_swap(t, 3), b.on_swap(t, 3));
        }
        assert_eq!(faults(&ta), faults(&tb));
        assert!(!faults(&ta).is_empty(), "rates this high must fire");
    }

    #[test]
    fn different_seeds_diverge() {
        let a = noisy(1);
        let b = noisy(2);
        let seq_a: Vec<_> = (0..100u64).map(|t| a.on_read(t, 0, 0)).collect();
        let seq_b: Vec<_> = (0..100u64).map(|t| b.on_read(t, 0, 0)).collect();
        assert_ne!(seq_a, seq_b);
    }

    #[test]
    fn scripted_kill_fires_once_at_its_time() {
        let plan = FaultPlan::new(FaultConfig::none(7));
        let t = traced(&plan);
        plan.fail_volume_at(3, 1000);
        assert_eq!(plan.on_read(999, 3, 0), None, "not yet due");
        assert_eq!(plan.on_read(1000, 3, 0), Some(MediaFault::Permanent));
        assert_eq!(plan.on_read(1001, 3, 0), None, "already dead");
        assert_eq!(faults(&t), [(1000, "media failure v3".to_string())]);
    }

    #[test]
    fn scripted_drive_faults_fire_without_touching_the_rng() {
        let a = noisy(42);
        let b = noisy(42);
        // b carries drive faults; a does not. The media streams stay
        // identical because drive faults never draw from the RNG.
        let tb = traced(&b);
        b.fail_drive_at(1, 500);
        b.hang_drive_at(0, 100, 300);
        b.slow_drive_from(2, 3.0, 0);
        for t in 0..200u64 {
            assert_eq!(a.on_read(t, 1, 2), b.on_read(t, 1, 2));
            assert_eq!(a.on_swap(t, 3), b.on_swap(t, 3));
        }
        assert_eq!(b.on_drive_op(499, 1), None, "not yet due");
        assert_eq!(b.on_drive_op(500, 1), Some(DriveFault::Dead));
        assert_eq!(b.on_drive_op(600, 1), Some(DriveFault::Dead), "stays dead");
        assert_eq!(b.on_drive_op(50, 0), None);
        assert_eq!(b.on_drive_op(100, 0), Some(DriveFault::Hang));
        assert_eq!(b.on_drive_op(400, 0), None, "healed after the window");
        assert!(!b.drive_healthy(600, 1));
        assert!(b.drive_healthy(200, 2));
        assert!(!b.drive_healthy(250, 0));
        assert!(b.drive_healthy(400, 0));
        assert_eq!(b.drive_slow_factor(10, 2), 3.0);
        assert_eq!(b.drive_slow_factor(10, 0), 1.0);
        // Dead detection is traced once; each hang fire is traced.
        let drive_faults: Vec<_> = faults(&tb)
            .into_iter()
            .filter(|(_, label)| label.starts_with("drive"))
            .collect();
        assert_eq!(
            drive_faults,
            [
                (500, "drive dead d1".to_string()),
                (100, "drive hang d0".to_string()),
            ]
        );
    }

    #[test]
    fn robot_jam_window_stalls_swaps_until_it_ends() {
        let plan = FaultPlan::new(FaultConfig::none(9));
        let t = traced(&plan);
        plan.jam_robot_during(1_000, 500);
        assert_eq!(plan.robot_jam_until(999), None);
        assert_eq!(plan.robot_jam_until(1_000), Some(1_500));
        assert_eq!(plan.robot_jam_until(1_499), Some(1_500));
        assert_eq!(plan.robot_jam_until(1_500), None);
        assert_eq!(
            faults(&t),
            [
                (1_000, "robot jam until t1500".to_string()),
                (1_499, "robot jam until t1500".to_string()),
            ]
        );
    }

    #[test]
    fn inert_plan_injects_nothing() {
        let plan = FaultPlan::new(FaultConfig::none(0));
        let tracer = traced(&plan);
        for t in 0..1000u64 {
            assert_eq!(plan.on_read(t, 0, 0), None);
            assert_eq!(plan.on_write(t, 0, 0), None);
            assert_eq!(plan.on_swap(t, 0), None);
        }
        assert!(tracer.is_empty());
    }
}
