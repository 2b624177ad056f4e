//! `oskit-kern` — the kernel support library (paper §3.2).
//!
//! "The primary purpose of the OSKit's kernel support library is to
//! provide easy access to the raw hardware facilities without adding
//! overhead or obscuring the underlying abstractions. ... no attempt has
//! been made to hide machine-specific details that might be useful to the
//! client OS."
//!
//! Contents: base-environment bring-up ([`BaseEnv`]), trap dispatch with
//! overridable defaults ([`TrapTable`]), real-layout x86 page tables
//! ([`pgtab`]), segment descriptors ([`seg`]), and the serial console.

#![forbid(unsafe_code)]

pub mod base;
pub mod console;
pub mod pgtab;
pub mod seg;
pub mod traps;

pub use base::{memflags, BaseEnv, LmmOsenvMem};
pub use console::Console;
pub use pgtab::{BumpFrames, FrameAlloc, MapFlags, PageDir, XlateError};
pub use seg::{selector_parts, standard_gdt, SegDesc};
pub use traps::{DefaultAction, TrapTable, NUM_VECTORS};
