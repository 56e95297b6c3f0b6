//! One trait over the three filesystems, so benchmark drivers are
//! written once.

use highlight::HighLight;
use hl_ffs::Ffs;
use hl_lfs::error::Result;
use hl_lfs::types::Ino;
use hl_lfs::{Lfs, Ufs};
use hl_sim::time::SimTime;
use hl_sim::Clock;
use hl_workload::large_object::{LargeObject, Phase, FRAME, TOTAL_FRAMES};

/// The operations the benchmarks drive.
pub trait BenchFs {
    /// Creates a file.
    fn create(&mut self, path: &str) -> Result<Ino>;
    /// Resolves a path.
    fn lookup(&mut self, path: &str) -> Result<Ino>;
    /// Reads.
    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize>;
    /// Writes.
    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()>;
    /// Flushes dirty state.
    fn sync(&mut self) -> Result<()>;
    /// Drops clean caches (§7.1 methodology).
    fn drop_caches(&mut self);
    /// The shared clock.
    fn clock(&self) -> Clock;
}

impl BenchFs for Ffs {
    fn create(&mut self, path: &str) -> Result<Ino> {
        Ufs::create(self, path)
    }
    fn lookup(&mut self, path: &str) -> Result<Ino> {
        Ufs::lookup(self, path)
    }
    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        Ffs::read(self, ino, offset, buf)
    }
    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()> {
        Ffs::write(self, ino, offset, data)
    }
    fn sync(&mut self) -> Result<()> {
        Ffs::sync(self)
    }
    fn drop_caches(&mut self) {
        Ffs::drop_caches(self)
    }
    fn clock(&self) -> Clock {
        // The FFS keeps its clock in its config; expose via stat? The
        // benches construct rigs, so they already hold the clock — this
        // accessor exists for the generic driver.
        self.clock_handle()
    }
}

impl BenchFs for Lfs {
    fn create(&mut self, path: &str) -> Result<Ino> {
        Ufs::create(self, path)
    }
    fn lookup(&mut self, path: &str) -> Result<Ino> {
        Ufs::lookup(self, path)
    }
    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        Lfs::read(self, ino, offset, buf)
    }
    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()> {
        Lfs::write(self, ino, offset, data)
    }
    fn sync(&mut self) -> Result<()> {
        Lfs::sync(self)
    }
    fn drop_caches(&mut self) {
        Lfs::drop_caches(self)
    }
    fn clock(&self) -> Clock {
        Lfs::clock(self)
    }
}

impl BenchFs for HighLight {
    fn create(&mut self, path: &str) -> Result<Ino> {
        HighLight::create(self, path)
    }
    fn lookup(&mut self, path: &str) -> Result<Ino> {
        HighLight::lookup(self, path)
    }
    fn read(&mut self, ino: Ino, offset: u64, buf: &mut [u8]) -> Result<usize> {
        HighLight::read(self, ino, offset, buf)
    }
    fn write(&mut self, ino: Ino, offset: u64, data: &[u8]) -> Result<()> {
        HighLight::write(self, ino, offset, data)
    }
    fn sync(&mut self) -> Result<()> {
        HighLight::sync(self)
    }
    fn drop_caches(&mut self) {
        HighLight::drop_caches(self)
    }
    fn clock(&self) -> Clock {
        HighLight::clock(self)
    }
}

/// Creates the 51.2 MB large object (generation 0), synced to media.
pub fn build_large_object<F: BenchFs>(fs: &mut F, path: &str) -> Result<Ino> {
    let ino = fs.create(path)?;
    // Write in 1 MB slabs to keep host memory reasonable.
    let frames_per_slab = 256u64;
    let mut slab = vec![0u8; frames_per_slab as usize * FRAME];
    let mut frame = 0u64;
    while frame < TOTAL_FRAMES {
        let n = frames_per_slab.min(TOTAL_FRAMES - frame);
        for i in 0..n {
            let data = LargeObject::frame_data(frame + i, 0);
            slab[(i as usize) * FRAME..(i as usize + 1) * FRAME].copy_from_slice(&data);
        }
        fs.write(ino, frame * FRAME as u64, &slab[..n as usize * FRAME])?;
        frame += n;
    }
    fs.sync()?;
    Ok(ino)
}

/// Runs one large-object phase under §7.1 methodology: caches flushed
/// first; writes are measured through their sync. Returns elapsed
/// simulated time.
fn run_phase<F: BenchFs>(
    fs: &mut F,
    ino: Ino,
    gen: &mut LargeObject,
    phase: Phase,
    generation: u32,
) -> Result<SimTime> {
    fs.sync()?;
    fs.drop_caches();
    let clock = fs.clock();
    let t0 = clock.now();
    let frames = gen.frames(phase);
    if phase.is_write() {
        for f in frames {
            let data = LargeObject::frame_data(f, generation);
            fs.write(ino, f * FRAME as u64, &data)?;
        }
        fs.sync()?;
    } else {
        let mut buf = vec![0u8; FRAME];
        for f in frames {
            fs.read(ino, f * FRAME as u64, &mut buf)?;
        }
    }
    Ok(clock.now() - t0)
}

/// Runs all six phases in the paper's order; returns `(phase, elapsed)`.
pub fn run_large_object<F: BenchFs>(
    fs: &mut F,
    ino: Ino,
    seed: u64,
) -> Result<Vec<(Phase, SimTime)>> {
    let mut gen = LargeObject::new(seed);
    let mut out = Vec::new();
    for (i, phase) in Phase::ALL.into_iter().enumerate() {
        let t = run_phase(fs, ino, &mut gen, phase, 1 + i as u32)?;
        out.push((phase, t));
    }
    Ok(out)
}
