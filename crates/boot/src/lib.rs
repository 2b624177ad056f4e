//! `oskit-boot` — MultiBoot bootstrap support (paper §3.1).
//!
//! Boot loaders are "basically uninteresting from a research standpoint",
//! so the OSKit standardized on MultiBoot: any compliant loader can load
//! any compliant kernel, and arbitrary *boot modules* ride along in
//! reserved physical memory.  This crate provides the header and info
//! binary layouts, an in-memory boot loader for the simulated machine, and
//! the bmod RAM-disk file system over loaded modules (§6.2.2).

#![forbid(unsafe_code)]

pub mod bmod;
pub mod loader;
pub mod multiboot;

pub use bmod::BmodFs;
pub use loader::{load, make_image, BootModule, LoadError, LoadedKernel};
pub use multiboot::{MmapEntry, ModuleInfo, MultibootHeader, MultibootInfo};
