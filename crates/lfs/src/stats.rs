//! Filesystem operation counters.

/// Cumulative counters exposed for benchmarks and tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct LfsStats {
    /// Blocks served from the buffer cache.
    pub cache_hits: u64,
    /// Blocks fetched from the device.
    pub cache_misses: u64,
    /// Device read operations issued.
    pub dev_reads: u64,
    /// Device write operations issued.
    pub dev_writes: u64,
    /// Blocks read from the device.
    pub blocks_read: u64,
    /// Blocks written to the device (including summaries).
    pub blocks_written: u64,
    /// Partial segments written.
    pub partials_written: u64,
    /// Whole segments consumed by the log.
    pub segs_consumed: u64,
    /// Cleaner passes executed.
    pub cleaner_runs: u64,
    /// Live blocks the cleaner copied forward.
    pub blocks_cleaned: u64,
    /// Segments returned to the clean pool by the cleaner.
    pub segs_reclaimed: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Blocks moved by `lfs_migratev` (HighLight migration).
    pub blocks_migrated: u64,
}
