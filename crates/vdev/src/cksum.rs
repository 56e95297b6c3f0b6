//! The checksum every sum on the media is built from (DESIGN.md §6a,
//! "Checksum"), and a per-thread count of the bytes it reads.
//!
//! It sits beside [`crate::Block`] because a block handle carries its
//! own sum ([`crate::Block::sum`]): a block is summed once, after its
//! bytes were last written, and every handle cloned from it after that
//! carries the sum wherever it goes — into a disk, a staging line or a
//! jukebox slot, and back out through a read.

use std::cell::Cell;

/// Accumulators of [`cksum()`]: word `w` of the data goes to lane
/// `w % CK_LANES`, so consecutive words never wait on each other.
const CK_LANES: usize = 4;
/// Lane `k` starts at `CK_SEED + k` ("lfs2").
const CK_SEED: u64 = 0x6c66_7332;
/// The odd 64-bit golden-ratio constant every step multiplies by.
const CK_MUL: u64 = 0x9e37_79b9_7f4a_7c15;
/// Bytes of one stride: a word for each lane.
const CK_STRIDE: usize = 8 * CK_LANES;

/// One step of a [`cksum()`] lane and of the fold over the lanes; the
/// LFS folds per-block sums into `ss_datasum` with it too.
pub fn cksum_step(acc: u64, x: u64) -> u64 {
    acc.rotate_left(31).wrapping_add(x).wrapping_mul(CK_MUL)
}

/// The 32-bit checksum of `data`. The bytes are taken as little-endian
/// 64-bit words, the last one zero-padded; word `w` is stirred, with its
/// own index added, into lane `w % 4` by a rotate–add–multiply step that
/// does not commute, so each lane is sensitive to the order and the
/// position of its words and the four run in parallel. The lanes are
/// folded, in lane order, onto the length with the same step — swapping
/// two lanes' contents, or padding with zeros, changes the sum.
pub fn cksum(data: &[u8]) -> u32 {
    BYTES_SUMMED.with(|n| n.set(n.get() + data.len() as u64));
    // Word `w` — up to eight little-endian bytes, zero-padded — into `lane`.
    let stir = |lane: &mut u64, bytes: &[u8], w: u64| {
        let mut le = [0u8; 8];
        le[..bytes.len()].copy_from_slice(bytes);
        *lane = cksum_step(*lane, u64::from_le_bytes(le).wrapping_add(w));
    };
    let mut lanes: [u64; CK_LANES] = std::array::from_fn(|k| CK_SEED + k as u64);
    let mut strides = data.chunks_exact(CK_STRIDE);
    let mut w = 0;
    for stride in &mut strides {
        for (k, lane) in lanes.iter_mut().enumerate() {
            stir(lane, &stride[8 * k..8 * k + 8], w + k as u64);
        }
        w += CK_LANES as u64;
    }
    // Fewer than four words are left: whole ones, then the padded one.
    for (k, bytes) in strides.remainder().chunks(8).enumerate() {
        stir(&mut lanes[k], bytes, w + k as u64);
    }
    let h = lanes
        .iter()
        .fold(data.len() as u64, |h, &lane| cksum_step(h, lane));
    (h >> 32) as u32 ^ h as u32
}

thread_local! {
    /// Bytes [`cksum()`] has read on this thread: the checksum work of a
    /// write, a migration or a cleaning pass, which tests pin.
    static BYTES_SUMMED: Cell<u64> = const { Cell::new(0) };
}

/// Bytes checksummed on this thread so far.
pub fn bytes_summed() -> u64 {
    BYTES_SUMMED.with(Cell::get)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cksum_is_order_sensitive() {
        assert_ne!(cksum(&[1, 2, 3, 4]), cksum(&[4, 3, 2, 1]));
        assert_ne!(cksum(&[0, 0, 1]), cksum(&[0, 1, 0]));
        assert_eq!(cksum(b"abc"), cksum(b"abc"));
    }

    #[test]
    fn every_byte_summed_is_counted() {
        let before = bytes_summed();
        cksum(&[0; 4096]);
        cksum(&[1; 44]);
        assert_eq!(bytes_summed() - before, 4096 + 44);
    }
}
