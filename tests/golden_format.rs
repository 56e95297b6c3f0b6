//! Golden byte-exact snapshots of every on-media structure. These
//! freeze the media format: any encoding change — intended or not —
//! fails here and forces a conscious decision (the structures are read
//! back by crash recovery, so silent drift would break remounts of
//! existing images).

use hl_lfs::ondisk::{cksum, Checkpoint, Dinode, Finfo, SegSummary, Superblock, CHECKPOINT_SLOT};
use hl_lfs::types::DINODE_SIZE;

fn hex(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2 + bytes.len() / 16);
    for (i, b) in bytes.iter().enumerate() {
        if i > 0 && i % 32 == 0 {
            s.push('\n');
        }
        s.push_str(&format!("{b:02x}"));
    }
    s
}

#[test]
fn superblock_hex_snapshot() {
    let sb = Superblock {
        block_size: 4096,
        seg_bytes: 196_608,
        nsegs: 848,
        seg_start: 2,
        summary_bytes: 4096,
        cache_segs: 16,
        nblocks: 217_088,
        created: 123_456_789,
    };
    let mut blk = vec![0u8; 4096];
    sb.encode(&mut blk);
    // Everything after the checksum is zero padding.
    assert!(blk[52..].iter().all(|&b| b == 0), "padding not zeroed");
    let got = hex(&blk[..52]);
    let want = "\
3353464c494c4748001000000000030050030000020000000010000010000000\n\
005003000000000015cd5b0700000000b03d093c";
    assert_eq!(got, want, "\nsuperblock bytes changed; got:\n{got}");
    assert_eq!(Superblock::decode(&blk).unwrap(), sb);
}

#[test]
fn checkpoint_hex_snapshot() {
    let c = Checkpoint {
        serial: 7,
        log_serial: 40,
        ifile_inode_addr: 1234,
        next_seg: 5,
        next_off: 17,
        timestamp: 987_654_321,
        tert_serial: 3,
    };
    let mut slot = vec![0u8; CHECKPOINT_SLOT];
    c.encode(&mut slot);
    assert!(slot[48..].iter().all(|&b| b == 0), "padding not zeroed");
    let got = hex(&slot[..48]);
    let want = "\
07000000000000002800000000000000d20400000500000011000000b168de3a\n\
0000000003000000000000001c78b2fd";
    assert_eq!(got, want, "\ncheckpoint bytes changed; got:\n{got}");
    assert_eq!(Checkpoint::decode(&slot), Some(c));
}

#[test]
fn summary_hex_snapshot() {
    let mut s = SegSummary::new(0x0001_0000, 9);
    s.finfos.push(Finfo {
        ino: 4,
        version: 2,
        lastlength: 4096,
        blocks: vec![0, 1, -1],
    });
    s.inode_addrs = vec![0x0001_0005];
    let payload = vec![0xabu8; 4 * 4096];
    let mut buf = vec![0u8; 512];
    s.encode(&mut buf, SegSummary::datasum_of(&payload));
    // Header + one FINFO grow from the front, inode addresses from the
    // back; the middle is zero padding.
    assert!(buf[56..504].iter().all(|&b| b == 0), "padding not zeroed");
    let front = hex(&buf[..56]);
    let want_front = "\
c3df53fe23a161c6000001000900000000000000010001000000000003000000\n\
0200000004000000001000000000000001000000ffffffff";
    assert_eq!(front, want_front, "\nsummary front changed; got:\n{front}");
    let back = hex(&buf[512 - 8..]);
    let want_back = "0000000005000100";
    assert_eq!(back, want_back, "\nsummary back changed; got:\n{back}");
    let (decoded, datasum) = SegSummary::decode(&buf).unwrap();
    assert_eq!(decoded, s);
    assert_eq!(datasum, SegSummary::datasum_of(&payload));
}

#[test]
fn packed_dinode_hex_snapshot() {
    let mut d = Dinode::empty();
    d.mode = 0o100644;
    d.nlink = 1;
    d.inumber = 42;
    d.size = 40_000;
    d.atime = 1_000_001;
    d.mtime = 1_000_002;
    d.ctime = 1_000_003;
    d.gen = 3;
    d.flags = 0;
    d.blocks = 10;
    for (i, p) in d.db.iter_mut().enumerate() {
        *p = 0x100 + i as u32;
    }
    d.ib = [0x200, 0x201];
    let mut slot = vec![0u8; DINODE_SIZE];
    d.encode(&mut slot);
    let got = hex(&slot);
    let want = "\
a48101002a000000409c00000000000041420f000000000042420f0000000000\n\
43420f000000000003000000000000000a000000000100000101000002010000\n\
030100000401000005010000060100000701000008010000090100000a010000\n\
0b01000000020000010200000000000000000000000000000000000000000000";
    assert_eq!(got, want, "\ndinode bytes changed; got:\n{got}");
    assert_eq!(Dinode::decode(&slot), d);
}

/// The checksum itself, not only the structures that embed it: known
/// answers for the lengths the format sums (48, 44, `summary_bytes − 4`
/// for 512- and 4 096-byte summaries, one block, a 208-block payload)
/// and the edge cases around them.
#[test]
fn cksum_known_answers() {
    let pattern: Vec<u8> = (0..851_968u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 23) as u8)
        .collect();
    let got = [0, 1, 44, 48, 508, 4_092, 4_096, 851_968]
        .map(|len| format!("{len} {:08x}", cksum(&pattern[..len])))
        .join("\n");
    let want = "\
0 866a18ea\n\
1 56e4327b\n\
44 46da6513\n\
48 dfb1e99d\n\
508 f57d8e67\n\
4092 6d3343e1\n\
4096 7ebdf316\n\
851968 c1254f14";
    assert_eq!(got, want, "\ncksum changed; got:\n{got}");
}
