//! `oskit-netbsd-fs` — the encapsulated disk file system (paper §3.8).
//!
//! "The OSKit incorporates standard disk-based file system code, again
//! using encapsulation, this time based on NetBSD's file systems.  NetBSD
//! was chosen ... because its file system code is the most cleanly
//! separated of the available systems."
//!
//! [`ffs`] is the donor-idiom code: an FFS-shaped on-disk format, the
//! `bread`/`bwrite` buffer cache, block/inode allocators, `bmap` with
//! indirect blocks, directory management, and `fsck`.  [`glue`] exports it
//! through the single-pathname-component COM interfaces that made the
//! paper's secure file server possible without touching these internals.

#![forbid(unsafe_code)]

pub mod ffs {
    //! The donor-idiom file system code.
    mod buf;
    pub mod fs;
    pub mod fsck;
    pub mod ondisk;
}
pub mod glue;

pub use ffs::fs::FsCore;
pub use ffs::fsck::{fsck, Finding};
pub use ffs::ondisk::{Superblock, BLOCK_SIZE, ROOT_INO};
pub use glue::{FfsFileSystem, FfsNode};
