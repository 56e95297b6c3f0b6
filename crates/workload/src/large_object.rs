//! The Stonebraker/Olson large-object benchmark (§7.1).
//!
//! "The large object benchmark starts with a 51.2MB file, considered a
//! collection of 12,500 frames of 4096 bytes each ... The buffer cache is
//! flushed before each operation in the benchmark. The following
//! operations comprise the benchmark:
//!
//! - Read 2500 frames sequentially (10MB total)
//! - Replace 2500 frames sequentially
//! - Read 250 frames randomly
//! - Replace 250 frames randomly
//! - Read 250 frames with 80/20 locality: 80% of reads are to the
//!   sequentially next frame; 20% are to a random next frame.
//! - Replace 250 frames with 80/20 locality."

use hl_sim::DetRng;

/// Frame size in bytes.
pub const FRAME: usize = 4096;
/// Total frames in the object (51.2 MB).
pub const TOTAL_FRAMES: u64 = 12_500;
/// Frames touched by the sequential phases.
const SEQ_FRAMES: u64 = 2_500;
/// Frames touched by the random and 80/20 phases.
const RAND_FRAMES: u64 = 250;

/// One benchmark phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Read 2500 frames sequentially (10 MB).
    SeqRead,
    /// Replace 2500 frames sequentially.
    SeqWrite,
    /// Read 250 frames uniformly at random.
    RandRead,
    /// Replace 250 frames uniformly at random.
    RandWrite,
    /// Read 250 frames with 80/20 locality.
    LocalRead,
    /// Replace 250 frames with 80/20 locality.
    LocalWrite,
}

impl Phase {
    /// All phases, in the paper's order.
    pub const ALL: [Phase; 6] = [
        Phase::SeqRead,
        Phase::SeqWrite,
        Phase::RandRead,
        Phase::RandWrite,
        Phase::LocalRead,
        Phase::LocalWrite,
    ];

    /// The paper's row label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::SeqRead => "10MB sequential read",
            Phase::SeqWrite => "10MB sequential write",
            Phase::RandRead => "1MB random read",
            Phase::RandWrite => "1MB random write",
            Phase::LocalRead => "1MB read, 80/20 locality",
            Phase::LocalWrite => "1MB write, 80/20 locality",
        }
    }

    /// `true` if the phase writes.
    pub fn is_write(self) -> bool {
        matches!(self, Phase::SeqWrite | Phase::RandWrite | Phase::LocalWrite)
    }

    /// Bytes the phase moves.
    pub fn bytes(self) -> u64 {
        self.frame_count() * FRAME as u64
    }

    /// Frames the phase touches.
    fn frame_count(self) -> u64 {
        match self {
            Phase::SeqRead | Phase::SeqWrite => SEQ_FRAMES,
            _ => RAND_FRAMES,
        }
    }
}

/// Generates the frame-index sequence of each phase.
#[derive(Clone, Debug)]
pub struct LargeObject {
    rng: DetRng,
}

impl LargeObject {
    /// A generator with the given seed.
    pub fn new(seed: u64) -> LargeObject {
        LargeObject {
            rng: DetRng::new(seed),
        }
    }

    /// The frame indices a phase touches, in order.
    pub fn frames(&mut self, phase: Phase) -> Vec<u64> {
        match phase {
            Phase::SeqRead | Phase::SeqWrite => (0..SEQ_FRAMES).collect(),
            Phase::RandRead | Phase::RandWrite => (0..RAND_FRAMES)
                .map(|_| self.rng.below(TOTAL_FRAMES))
                .collect(),
            Phase::LocalRead | Phase::LocalWrite => {
                // "80% of reads are to the sequentially next frame; 20%
                // are to a random next frame."
                let mut cur = self.rng.below(TOTAL_FRAMES);
                let mut out = Vec::with_capacity(RAND_FRAMES as usize);
                for _ in 0..RAND_FRAMES {
                    out.push(cur);
                    cur = if self.rng.chance(0.8) {
                        (cur + 1) % TOTAL_FRAMES
                    } else {
                        self.rng.below(TOTAL_FRAMES)
                    };
                }
                out
            }
        }
    }

    /// Frame payload: deterministic per (frame, generation).
    pub fn frame_data(frame: u64, generation: u32) -> Vec<u8> {
        let mut buf = vec![0u8; FRAME];
        let tag = frame
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(generation as u64);
        for (i, b) in buf.iter_mut().enumerate() {
            *b = (tag >> (8 * (i % 8))) as u8 ^ (i as u8);
        }
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_match_the_paper() {
        assert_eq!(TOTAL_FRAMES * FRAME as u64, 51_200_000);
        assert_eq!(Phase::SeqRead.bytes(), 10_240_000); // "10MB"
        assert_eq!(Phase::RandRead.bytes(), 1_024_000); // "1MB"
    }

    #[test]
    fn sequential_phase_is_in_order() {
        let mut g = LargeObject::new(1);
        let f = g.frames(Phase::SeqRead);
        assert_eq!(f.len(), 2500);
        assert!(f.windows(2).all(|w| w[1] == w[0] + 1));
    }

    #[test]
    fn random_phase_is_uniform_over_the_object() {
        let mut g = LargeObject::new(2);
        let f = g.frames(Phase::RandRead);
        assert_eq!(f.len(), 250);
        assert!(f.iter().all(|&x| x < TOTAL_FRAMES));
        // Spread: both halves hit.
        assert!(f.iter().any(|&x| x < TOTAL_FRAMES / 2));
        assert!(f.iter().any(|&x| x >= TOTAL_FRAMES / 2));
    }

    #[test]
    fn local_phase_is_mostly_sequential() {
        let mut g = LargeObject::new(3);
        let f = g.frames(Phase::LocalRead);
        let seq_steps = f
            .windows(2)
            .filter(|w| w[1] == (w[0] + 1) % TOTAL_FRAMES)
            .count();
        // ~80% of 249 transitions.
        assert!(
            (170..=230).contains(&seq_steps),
            "sequential transitions: {seq_steps}"
        );
    }

    #[test]
    fn same_seed_reproduces() {
        let mut a = LargeObject::new(9);
        let mut b = LargeObject::new(9);
        assert_eq!(a.frames(Phase::RandWrite), b.frames(Phase::RandWrite));
    }

    #[test]
    fn frame_data_differs_by_generation_and_frame() {
        let a = LargeObject::frame_data(1, 0);
        let b = LargeObject::frame_data(1, 1);
        let c = LargeObject::frame_data(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, LargeObject::frame_data(1, 0));
        assert_eq!(a.len(), FRAME);
    }
}
