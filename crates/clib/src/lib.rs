//! `oskit-clib` — the minimal C library analogue (paper §3.4).
//!
//! "The OSKit provides a minimal C library designed around the principle
//! of minimizing dependencies rather than maximizing functionality and
//! performance."
//!
//! * [`console`] — the overridable `putchar` → `puts` → `printf` chain;
//! * [`fmt`] — the freestanding printf formatter (no locales, no floats);
//! * [`malloc`] — kernel `malloc` over the LMM, plus the conventional
//!   segregated-fit front end anticipated in §6.2.10;
//! * [`posix`] — the minimal POSIX environment: fd table mapping open
//!   files, streams, and sockets to COM objects, with path traversal done
//!   here so file systems only ever see single components;
//! * [`time`] — `gettimeofday`/`getrusage` with a pluggable clock source.

#![forbid(unsafe_code)]

pub mod console;
pub mod fmt;
pub mod malloc;
pub mod posix;
pub mod time;

pub use console::MinConsole;
pub use fmt::{vformat, Arg};
pub use malloc::{simple_heap, FastMalloc, KMalloc, Malloc};
pub use posix::{OpenFlags, PosixIo, Whence};
pub use time::{Clock, RUsage, TimeVal};
