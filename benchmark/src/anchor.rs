//! The fixed-work host anchor.
//!
//! Every rep is bracketed by this kernel; a host time is reported as
//! `cpu_s × ANCHOR_REF_NS / anchor_ns`, i.e. in seconds of the reference
//! box, so that a slow or throttled host stretches the anchor and the
//! workload alike and the ratio stays put. The kernel has both characters
//! the workloads have: a streaming half (4 KiB fills, like the block
//! copies and checksums of the file-system workloads) and a branchy,
//! pointer-chasing half (`BinaryHeap`/`BTreeMap` churn, like the
//! scheduler's agenda and the queues of the fleet workloads).
//!
//! It lives in the benchmark so that no change to the repository can
//! speed it up.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// What one [`kernel`] run takes on the box the benchmark was defined
/// on (2 cores, see README): with this, `anchor_scale` reads ≈ 1 there.
pub const ANCHOR_REF_NS: f64 = 2_800_000.0;

const FILLS: usize = 24_000;
const CHURN: usize = 16_000;
/// Kernel runs per measurement; the median is kept. Successive
/// measurements on the reference box differ by 9 % (median) with 5 runs
/// and by 5 % with 15; more buys nothing.
const RUNS: usize = 15;

/// One run of the fixed work. The result depends on every step, so the
/// compiler can drop none of them.
pub fn kernel() -> u64 {
    let mut block = [0u8; 4096];
    let mut acc = 0u64;
    for i in 0..FILLS {
        block.fill(black_box(i as u8));
        acc += block[i % 4096] as u64;
    }
    let mut heap = BinaryHeap::new();
    let mut map = BTreeMap::new();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    for i in 0..CHURN as u64 {
        // splitmix-style step: cheap, and unpredictable to the branch
        // predictor.
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let key = (x ^ (x >> 31)).wrapping_mul(0xbf58_476d_1ce4_e5b9) >> 40;
        heap.push((key, i));
        map.insert(key, i);
        if i % 4 == 3 {
            if let Some((k, _)) = heap.pop() {
                acc = acc.wrapping_add(map.remove(&k).unwrap_or(k));
            }
        }
    }
    acc.wrapping_add(heap.len() as u64 + map.len() as u64)
}

/// Median wall time of [`RUNS`] kernel runs, ns.
pub fn measure() -> f64 {
    let mut ns: Vec<f64> = (0..RUNS)
        .map(|_| {
            let t = Instant::now();
            black_box(kernel());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    crate::stats::median(&mut ns)
}

/// `host_s` expressed in seconds of the reference box, given the anchor
/// measured around it.
pub fn scale(host_s: f64, anchor_ns: f64) -> f64 {
    host_s * ANCHOR_REF_NS / anchor_ns
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_fixed_work() {
        assert_eq!(kernel(), kernel());
    }

    #[test]
    fn a_host_twice_as_slow_reads_the_same() {
        // 2 s measured while the anchor took twice its reference time is
        // 1 s of the reference box.
        assert_eq!(scale(2.0, 2.0 * ANCHOR_REF_NS), 1.0);
        assert_eq!(scale(1.0, ANCHOR_REF_NS), 1.0);
        assert_eq!(scale(0.5, 0.5 * ANCHOR_REF_NS), 1.0);
    }
}
