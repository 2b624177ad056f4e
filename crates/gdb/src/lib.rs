//! `oskit-gdb` — the GDB remote-debugging stub (paper §3.5).
//!
//! "The OSKit's kernel support library includes a serial-line stub for the
//! GNU debugger, GDB.  The stub is a small module that handles traps in
//! the client OS environment and communicates over a serial line with GDB
//! running on another machine, using GDB's standard remote debugging
//! protocol."
//!
//! This module implements that protocol — `$...#cs` framing with
//! acknowledgments, register file access (`g`/`G`/`p`/`P`), memory access
//! (`m`/`M`), software breakpoints (`Z0`/`z0`), and resume (`c`/`s`) —
//! over any byte connection, against any [`GdbTarget`].

#![forbid(unsafe_code)]

pub mod proto;
pub mod stub;
pub mod target;

pub use proto::{decode_packet, encode_packet, from_hex, to_hex};
pub use stub::{GdbConn, GdbStub, Resume, VecConn};
pub use target::{GdbTarget, MachineTarget, StopReason};
