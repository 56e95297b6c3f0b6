//! Directory block format and entry operations.
//!
//! FFS-style variable-length entries packed into 4 KB blocks (LFS shares
//! the FFS directory code in 4.4BSD): each entry is
//! `{ino u32, reclen u16, namelen u8, kind u8, name bytes}`, padded to a
//! 4-byte boundary; deleting an entry folds its space into its
//! predecessor's `reclen`. Directories are files like any other — which
//! is what lets HighLight migrate them to tertiary storage (§4).

use crate::error::{LfsError, Result};
use crate::types::{FileKind, Ino};

/// Fixed header bytes of an entry.
const ENTRY_FIXED: usize = 8;

/// Maximum file name length in bytes.
const MAX_NAME: usize = 255;

/// Bytes an entry with an `n`-byte name occupies.
fn entry_size(name_len: usize) -> usize {
    (ENTRY_FIXED + name_len + 3) & !3
}

/// One parsed directory entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DirEntry {
    /// Target inode.
    pub ino: Ino,
    /// Entry name.
    pub name: String,
    /// Target kind (as recorded at entry creation).
    pub kind: FileKind,
}

fn kind_tag(kind: FileKind) -> u8 {
    match kind {
        FileKind::Regular => 1,
        FileKind::Directory => 2,
    }
}

fn tag_kind(tag: u8) -> FileKind {
    if tag == 2 {
        FileKind::Directory
    } else {
        FileKind::Regular
    }
}

fn get_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes(b[off..off + 2].try_into().expect("bounds"))
}

fn get_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes(b[off..off + 4].try_into().expect("bounds"))
}

/// Initializes an empty directory block: one free entry spanning it.
pub fn init_block(block: &mut [u8]) {
    block.fill(0);
    // ino 0 = free; reclen spans the block.
    let len = block.len() as u16;
    block[4..6].copy_from_slice(&len.to_le_bytes());
}

/// Iterates the live entries of one directory block.
pub fn entries(block: &[u8]) -> Vec<DirEntry> {
    let mut out = Vec::new();
    let mut off = 0;
    while off + ENTRY_FIXED <= block.len() {
        let ino = get_u32(block, off);
        let reclen = get_u16(block, off + 4) as usize;
        if reclen < ENTRY_FIXED || off + reclen > block.len() {
            break; // corrupt or uninitialized tail
        }
        if ino != 0 {
            let namelen = block[off + 6] as usize;
            let name = String::from_utf8_lossy(&block[off + 8..off + 8 + namelen]).into_owned();
            out.push(DirEntry {
                ino,
                name,
                kind: tag_kind(block[off + 7]),
            });
        }
        off += reclen;
    }
    out
}

/// Finds `name` in one block; returns its inode and kind.
pub fn find(block: &[u8], name: &str) -> Option<(Ino, FileKind)> {
    let needle = name.as_bytes();
    let mut off = 0;
    while off + ENTRY_FIXED <= block.len() {
        let ino = get_u32(block, off);
        let reclen = get_u16(block, off + 4) as usize;
        if reclen < ENTRY_FIXED || off + reclen > block.len() {
            break;
        }
        if ino != 0 {
            let namelen = block[off + 6] as usize;
            if &block[off + 8..off + 8 + namelen] == needle {
                return Some((ino, tag_kind(block[off + 7])));
            }
        }
        off += reclen;
    }
    None
}

/// Adds an entry to one block if space permits. Returns `true` on
/// success, `false` if the block has no room.
///
/// # Errors
///
/// [`LfsError::NameTooLong`] if the name exceeds `MAX_NAME` bytes.
pub fn add(block: &mut [u8], name: &str, ino: Ino, kind: FileKind) -> Result<bool> {
    let needle = name.as_bytes();
    if needle.len() > MAX_NAME {
        return Err(LfsError::NameTooLong);
    }
    if needle.is_empty() {
        return Err(LfsError::Invalid("empty file name"));
    }
    let need = entry_size(needle.len());
    let mut off = 0;
    while off + ENTRY_FIXED <= block.len() {
        let cur_ino = get_u32(block, off);
        let reclen = get_u16(block, off + 4) as usize;
        if reclen < ENTRY_FIXED || off + reclen > block.len() {
            break;
        }
        // Space available in this record beyond its own needs.
        let used = if cur_ino == 0 {
            0
        } else {
            entry_size(block[off + 6] as usize)
        };
        if reclen - used >= need {
            let (new_off, new_reclen) = if cur_ino == 0 {
                (off, reclen)
            } else {
                // Shrink the current entry to its exact size; the new
                // entry inherits the tail.
                block[off + 4..off + 6].copy_from_slice(&(used as u16).to_le_bytes());
                (off + used, reclen - used)
            };
            block[new_off..new_off + 4].copy_from_slice(&ino.to_le_bytes());
            block[new_off + 4..new_off + 6].copy_from_slice(&(new_reclen as u16).to_le_bytes());
            block[new_off + 6] = needle.len() as u8;
            block[new_off + 7] = kind_tag(kind);
            block[new_off + 8..new_off + 8 + needle.len()].copy_from_slice(needle);
            return Ok(true);
        }
        off += reclen;
    }
    Ok(false)
}

/// Removes `name` from one block. Returns the unlinked inode if found.
pub fn remove(block: &mut [u8], name: &str) -> Option<Ino> {
    let needle = name.as_bytes();
    let mut off = 0;
    let mut prev: Option<usize> = None;
    while off + ENTRY_FIXED <= block.len() {
        let ino = get_u32(block, off);
        let reclen = get_u16(block, off + 4) as usize;
        if reclen < ENTRY_FIXED || off + reclen > block.len() {
            break;
        }
        if ino != 0 {
            let namelen = block[off + 6] as usize;
            if &block[off + 8..off + 8 + namelen] == needle {
                match prev {
                    Some(p) => {
                        // Fold this record into its predecessor.
                        let prev_reclen = get_u16(block, p + 4) as usize;
                        let merged = (prev_reclen + reclen) as u16;
                        block[p + 4..p + 6].copy_from_slice(&merged.to_le_bytes());
                    }
                    None => {
                        // First record: just mark it free.
                        block[off..off + 4].copy_from_slice(&0u32.to_le_bytes());
                    }
                }
                return Some(ino);
            }
        }
        prev = Some(off);
        off += reclen;
    }
    None
}

/// `true` if the block holds no live entries other than `.` and `..`.
pub fn only_dots(block: &[u8]) -> bool {
    entries(block)
        .iter()
        .all(|e| e.name == "." || e.name == "..")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fresh() -> Vec<u8> {
        let mut b = vec![0u8; 4096];
        init_block(&mut b);
        b
    }

    #[test]
    fn empty_block_has_no_entries() {
        let b = fresh();
        assert!(entries(&b).is_empty());
        assert!(find(&b, "x").is_none());
    }

    #[test]
    fn add_find_remove_cycle() {
        let mut b = fresh();
        assert!(add(&mut b, "hello", 10, FileKind::Regular).unwrap());
        assert!(add(&mut b, "world", 11, FileKind::Directory).unwrap());
        assert_eq!(find(&b, "hello"), Some((10, FileKind::Regular)));
        assert_eq!(find(&b, "world"), Some((11, FileKind::Directory)));
        assert_eq!(entries(&b).len(), 2);
        assert_eq!(remove(&mut b, "hello"), Some(10));
        assert!(find(&b, "hello").is_none());
        assert_eq!(find(&b, "world"), Some((11, FileKind::Directory)));
        assert_eq!(remove(&mut b, "hello"), None);
    }

    #[test]
    fn removal_reclaims_space() {
        let mut b = fresh();
        // Fill the block with maximal names.
        let mut count = 0;
        loop {
            let name = format!("{:0>200}", count);
            if !add(&mut b, &name, count + 1, FileKind::Regular).unwrap() {
                break;
            }
            count += 1;
        }
        assert!(count >= 19, "4096/208 ≈ 19 entries, got {count}");
        // Remove one in the middle, then a same-size insert must fit.
        let victim = format!("{:0>200}", count / 2);
        assert!(remove(&mut b, &victim).is_some());
        assert!(add(&mut b, "replacement", 999, FileKind::Regular).unwrap());
        assert_eq!(find(&b, "replacement"), Some((999, FileKind::Regular)));
    }

    #[test]
    fn full_block_rejects_politely() {
        let mut b = fresh();
        let mut i = 0;
        while add(&mut b, &format!("file{i:04}"), i + 1, FileKind::Regular).unwrap() {
            i += 1;
        }
        // No panic, clean false; existing entries intact.
        assert_eq!(entries(&b).len() as u32, i);
    }

    #[test]
    fn name_length_limit_enforced() {
        let mut b = fresh();
        let long = "x".repeat(256);
        assert_eq!(
            add(&mut b, &long, 1, FileKind::Regular),
            Err(LfsError::NameTooLong)
        );
        let ok = "x".repeat(255);
        assert!(add(&mut b, &ok, 1, FileKind::Regular).unwrap());
        assert!(find(&b, &ok).is_some());
    }

    #[test]
    fn dots_detection() {
        let mut b = fresh();
        add(&mut b, ".", 2, FileKind::Directory).unwrap();
        add(&mut b, "..", 1, FileKind::Directory).unwrap();
        assert!(only_dots(&b));
        add(&mut b, "f", 3, FileKind::Regular).unwrap();
        assert!(!only_dots(&b));
    }

    #[test]
    fn removing_first_entry_keeps_block_consistent() {
        let mut b = fresh();
        add(&mut b, "a", 1, FileKind::Regular).unwrap();
        add(&mut b, "b", 2, FileKind::Regular).unwrap();
        assert_eq!(remove(&mut b, "a"), Some(1));
        assert_eq!(entries(&b).len(), 1);
        // The freed space is reusable.
        assert!(add(&mut b, "c", 3, FileKind::Regular).unwrap());
        assert_eq!(entries(&b).len(), 2);
    }

    #[test]
    fn entry_size_is_padded() {
        assert_eq!(entry_size(1), 12);
        assert_eq!(entry_size(4), 12);
        assert_eq!(entry_size(5), 16);
    }
}
