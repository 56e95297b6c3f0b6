//! The UFS layer: one name space over both file systems.
//!
//! 4.4BSD builds its FFS and its LFS on one shared UFS layer — paths,
//! directories and link counts — and each file system supplies inodes
//! and blocks underneath. [`Ufs`] is that split. Its required methods
//! are what a file system must provide *below* a name; its provided
//! methods are the whole name space, written once. The paper's baseline
//! (`hl-ffs`) and its subject therefore differ only where §3 says they
//! do — *when* a block is given its address — and at this layer that
//! shows in [`Ufs::append`] alone. Paths are Unix-style, rooted at `/`.
//!
//! Reads, writes, truncation and clustered read-ahead stay per file
//! system: allocation-at-write versus allocation-at-flush is the
//! difference the paper measures.

use hl_vdev::{Block, BLOCK_SIZE};

use crate::dir::{self, DirEntry};
use crate::error::{LfsError, Result};
use crate::fs::Stat;
use crate::ondisk::Dinode;
use crate::types::{FileKind, Ino, ROOT_INO};

/// Largest clustered read, in blocks: "maxcontig" 16 → 64 KB transfers
/// (§7.1), the one read-ahead limit of both file systems.
pub const MAXCONTIG: u32 = 16;

/// A file system below the name space: eleven primitives, plus the
/// [`settle`](Ufs::settle) hook only a log needs.
pub trait Ufs {
    /// Current simulated time (µs).
    fn now(&self) -> u64;

    /// Charges one operation's CPU cost to the clock.
    fn charge_op(&self);

    /// A copy of inode `ino`; `NotFound` for a free or out-of-range
    /// number.
    fn dinode(&mut self, ino: Ino) -> Result<Dinode>;

    /// Mutates inode `ino` and marks it for write-back.
    fn update(&mut self, ino: Ino, f: impl FnOnce(&mut Dinode)) -> Result<()>;

    /// Allocates an inode of `kind` holding one link and no blocks.
    fn ialloc(&mut self, kind: FileKind) -> Result<Ino>;

    /// Frees every block of `ino`, then the inode. Called with the link
    /// count already at its final value, so the inode must stay
    /// addressable until its blocks are gone.
    fn release(&mut self, ino: Ino) -> Result<()>;

    /// Data block `l` of `ino`, through the buffer cache.
    fn block(&mut self, ino: Ino, l: u32) -> Result<&[u8]>;

    /// Data block `l` of `ino` for writing, through the buffer cache. The
    /// same cache traffic as [`Ufs::block`]; a buffer sharing its bytes
    /// with a device gets a private copy first.
    fn block_mut(&mut self, ino: Ino, l: u32) -> Result<&mut [u8]>;

    /// Marks data block `l`, just modified through [`Ufs::block_mut`], dirty.
    fn dirtied(&mut self, ino: Ino, l: u32);

    /// Adds `data` as the new last block `l` of `ino` and counts it in
    /// the inode's `blocks`; the caller moves `size`. The LFS inserts
    /// the block unplaced and lets the segment writer choose; the FFS
    /// assigns its address now (§3).
    fn append(&mut self, ino: Ino, l: u32, data: Block) -> Result<()>;

    /// Brings the buffer cache back within capacity after a block was
    /// added to it.
    fn balance(&mut self) -> Result<()>;

    /// End of an operation that consumed space: the LFS runs its cleaner
    /// here if clean segments are scarce. Not folded into
    /// [`balance`](Ufs::balance) — that would move eviction instants.
    fn settle(&mut self) -> Result<()> {
        Ok(())
    }

    /// Resolves a path to an inode.
    fn lookup(&mut self, path: &str) -> Result<Ino> {
        self.charge_op();
        let mut cur = ROOT_INO;
        for comp in components(path) {
            let (ino, _) = dir_lookup(self, cur, comp)?.ok_or(LfsError::NotFound)?;
            cur = ino;
        }
        Ok(cur)
    }

    /// Lists a directory.
    fn readdir(&mut self, path: &str) -> Result<Vec<DirEntry>> {
        let dino = self.lookup(path)?;
        let nblocks = dir_blocks(&directory(self, dino)?);
        let mut out = Vec::new();
        for l in 0..nblocks {
            out.extend(dir::entries(self.block(dino, l)?));
        }
        Ok(out)
    }

    /// `stat` an inode.
    fn stat(&mut self, ino: Ino) -> Result<Stat> {
        let d = self.dinode(ino)?;
        Ok(Stat {
            ino,
            kind: FileKind::from_mode(d.mode).ok_or(LfsError::Corrupt("bad mode"))?,
            size: d.size,
            nlink: d.nlink,
            atime: d.atime,
            mtime: d.mtime,
            ctime: d.ctime,
            blocks: d.blocks,
        })
    }

    /// Creates a regular file; errors if it exists.
    fn create(&mut self, path: &str) -> Result<Ino> {
        self.charge_op();
        let (dino, name) = namei_parent(self, path, None)?;
        if dir_lookup(self, dino, name)?.is_some() {
            return Err(LfsError::Exists);
        }
        let ino = self.ialloc(FileKind::Regular)?;
        dir_add(self, dino, name, ino, FileKind::Regular)?;
        self.settle()?;
        Ok(ino)
    }

    /// Creates a directory.
    fn mkdir(&mut self, path: &str) -> Result<Ino> {
        self.charge_op();
        let (dino, name) = namei_parent(self, path, None)?;
        if dir_lookup(self, dino, name)?.is_some() {
            return Err(LfsError::Exists);
        }
        let ino = self.ialloc(FileKind::Directory)?;
        // Seed "." and "..".
        let mut blk = Block::zeroed(BLOCK_SIZE);
        let bytes = blk.make_mut();
        dir::init_block(bytes);
        dir::add(bytes, ".", ino, FileKind::Directory)?;
        dir::add(bytes, "..", dino, FileKind::Directory)?;
        self.append(ino, 0, blk)?;
        self.update(ino, |d| {
            d.size = BLOCK_SIZE as u64;
            d.nlink = 2;
        })?;
        dir_add(self, dino, name, ino, FileKind::Directory)?;
        self.update(dino, |d| d.nlink += 1)?; // the child's ".."
        self.settle()?;
        Ok(ino)
    }

    /// Removes a file.
    fn unlink(&mut self, path: &str) -> Result<()> {
        self.charge_op();
        let (dino, name) = namei_parent(self, path, None)?;
        let (ino, kind) = dir_lookup(self, dino, name)?.ok_or(LfsError::NotFound)?;
        if kind == FileKind::Directory {
            return Err(LfsError::IsDir);
        }
        dir_remove(self, dino, name)?;
        let mut nlink = 0;
        self.update(ino, |d| {
            d.nlink -= 1;
            d.ctime = d.atime.max(d.mtime);
            nlink = d.nlink;
        })?;
        if nlink == 0 {
            self.release(ino)?;
        }
        Ok(())
    }

    /// Removes an empty directory.
    fn rmdir(&mut self, path: &str) -> Result<()> {
        self.charge_op();
        let (dino, name) = namei_parent(self, path, None)?;
        let (ino, kind) = dir_lookup(self, dino, name)?.ok_or(LfsError::NotFound)?;
        if kind != FileKind::Directory {
            return Err(LfsError::NotDir);
        }
        if ino == ROOT_INO {
            return Err(LfsError::Invalid("cannot remove the root"));
        }
        // Must hold only "." and "..".
        for l in 0..dir_blocks(&self.dinode(ino)?) {
            if !dir::only_dots(self.block(ino, l)?) {
                return Err(LfsError::NotEmpty);
            }
        }
        dir_remove(self, dino, name)?;
        self.update(dino, |d| d.nlink -= 1)?;
        self.release(ino)
    }

    /// Renames a file or directory. An existing target file is replaced;
    /// an existing target directory must be empty; a directory cannot
    /// move into its own subtree.
    fn rename(&mut self, from: &str, to: &str) -> Result<()> {
        self.charge_op();
        let (sdino, sname) = namei_parent(self, from, None)?;
        let (ino, kind) = dir_lookup(self, sdino, sname)?.ok_or(LfsError::NotFound)?;
        let (tdino, tname) = namei_parent(self, to, Some(ino))?;
        if let Some((tino, tkind)) = dir_lookup(self, tdino, tname)? {
            if tino == ino {
                return Ok(());
            }
            match (kind, tkind) {
                (FileKind::Directory, FileKind::Directory) => self.rmdir(to)?,
                (FileKind::Regular, FileKind::Regular) => self.unlink(to)?,
                (FileKind::Regular, FileKind::Directory) => return Err(LfsError::IsDir),
                (FileKind::Directory, FileKind::Regular) => return Err(LfsError::NotDir),
            }
        }
        dir_remove(self, sdino, sname)?;
        dir_add(self, tdino, tname, ino, kind)?;
        if kind == FileKind::Directory && sdino != tdino {
            // Repoint "..", and fix the parents' link counts.
            let blk = self.block_mut(ino, 0)?;
            dir::remove(blk, "..");
            dir::add(blk, "..", tdino, FileKind::Directory)?;
            self.dirtied(ino, 0);
            self.update(sdino, |d| d.nlink -= 1)?;
            self.update(tdino, |d| d.nlink += 1)?;
        }
        Ok(())
    }
}

fn components(path: &str) -> impl Iterator<Item = &str> {
    path.split('/').filter(|c| !c.is_empty())
}

/// Blocks a directory of this size spans.
fn dir_blocks(d: &Dinode) -> u32 {
    d.size.div_ceil(BLOCK_SIZE as u64) as u32
}

/// Inode `dino`, which must be a directory.
fn directory<U: Ufs + ?Sized>(fs: &mut U, dino: Ino) -> Result<Dinode> {
    let d = fs.dinode(dino)?;
    if FileKind::from_mode(d.mode) != Some(FileKind::Directory) {
        return Err(LfsError::NotDir);
    }
    Ok(d)
}

/// Splits a path into `(parent directory inode, final component)`.
/// The walk visits every ancestor of the final component, so it is also
/// rename's cycle check: reaching `avoid` on the way (or landing on it)
/// is `Invalid`, with no `..` block read.
fn namei_parent<'a, U: Ufs + ?Sized>(
    fs: &mut U,
    path: &'a str,
    avoid: Option<Ino>,
) -> Result<(Ino, &'a str)> {
    let mut comps: Vec<&str> = components(path).collect();
    let name = comps.pop().ok_or(LfsError::Invalid("empty path"))?;
    let mut cur = ROOT_INO;
    for comp in comps {
        let (ino, kind) = dir_lookup(fs, cur, comp)?.ok_or(LfsError::NotFound)?;
        if kind != FileKind::Directory {
            return Err(LfsError::NotDir);
        }
        if Some(ino) == avoid {
            return Err(LfsError::Invalid("directory moved into its own subtree"));
        }
        cur = ino;
    }
    Ok((cur, name))
}

/// Searches one directory for `name`.
fn dir_lookup<U: Ufs + ?Sized>(
    fs: &mut U,
    dino: Ino,
    name: &str,
) -> Result<Option<(Ino, FileKind)>> {
    for l in 0..dir_blocks(&directory(fs, dino)?) {
        if let Some(hit) = dir::find(fs.block(dino, l)?, name) {
            return Ok(Some(hit));
        }
    }
    Ok(None)
}

/// Adds a directory entry, growing the directory if needed.
fn dir_add<U: Ufs + ?Sized>(
    fs: &mut U,
    dino: Ino,
    name: &str,
    ino: Ino,
    kind: FileKind,
) -> Result<()> {
    let nblocks = dir_blocks(&fs.dinode(dino)?);
    for l in 0..nblocks {
        if dir::add(fs.block_mut(dino, l)?, name, ino, kind)? {
            fs.dirtied(dino, l);
            let now = fs.now();
            return fs.update(dino, |d| d.mtime = now);
        }
    }
    // Append a fresh directory block.
    let mut blk = Block::zeroed(BLOCK_SIZE);
    dir::init_block(blk.make_mut());
    let added = dir::add(blk.make_mut(), name, ino, kind)?;
    debug_assert!(added, "fresh directory block must accept one entry");
    fs.append(dino, nblocks, blk)?;
    let now = fs.now();
    fs.update(dino, |d| {
        d.size += BLOCK_SIZE as u64;
        d.mtime = now;
    })?;
    fs.balance()
}

/// Removes a directory entry; returns the inode it referenced.
fn dir_remove<U: Ufs + ?Sized>(fs: &mut U, dino: Ino, name: &str) -> Result<Ino> {
    for l in 0..dir_blocks(&fs.dinode(dino)?) {
        if let Some(ino) = dir::remove(fs.block_mut(dino, l)?, name) {
            fs.dirtied(dino, l);
            let now = fs.now();
            fs.update(dino, |d| d.mtime = now)?;
            return Ok(ino);
        }
    }
    Err(LfsError::NotFound)
}
