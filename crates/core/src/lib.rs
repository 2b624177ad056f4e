//! `oskit` — a Rust reproduction of the Flux OSKit (Ford et al.,
//! SOSP 1997).
//!
//! "The OSKit ... provides clean, well-documented OS components designed
//! to be reused in a wide variety of other environments, rather than
//! defining a new OS structure."
//!
//! This facade crate re-exports every component library under the paper's
//! Table 3 names and provides [`KernelBuilder`], the few-lines-of-code
//! path from nothing to a booted kernel with console, POSIX environment,
//! drivers and networking (§6.2.9's "twenty-line kernels"), and
//! [`testbed`], the §5 pair of machines on one wire that every
//! experiment and two-machine test is built on.
//!
//! The individual components remain fully separable — depend on the
//! `oskit-*` crates directly to take only what you need, exactly as the
//! paper prescribes (§4.2 "Modularity Versus Separability").

#![forbid(unsafe_code)]

pub mod experiments;
pub mod kernel;
pub mod testbed;

pub use experiments::{
    fileserve_run, rtcp_run, ttcp_run, ttcp_run_faulted, ttcp_run_mixed, FileServeResult,
    NetConfig, RtcpResult, ServeMode, StackKind, TtcpResult,
};
pub use kernel::{Kernel, KernelBuilder};

/// The observability substrate (crates/trace): interned boundaries,
/// event kinds and the per-machine counter ledger.
pub use oskit_trace as trace;

/// COM interfaces and machinery (paper §4.4).
pub use oskit_com as com;
/// The simulated PC substrate (see DESIGN.md §2).
pub use oskit_machine as machine;
/// The execution environment components depend on (§4.5).
pub use oskit_osenv as osenv;
/// Bootstrap support: MultiBoot, boot modules, bmod fs (§3.1).
pub use oskit_boot as boot;
/// Kernel support library: traps, page tables, console (§3.2).
pub use oskit_kern as kern;
/// List Memory Manager (§3.3).
pub use oskit_lmm as lmm;
/// Address Map Manager (§3.3).
pub use oskit_amm as amm;
/// Minimal C library analogue (§3.4).
pub use oskit_clib as clib;
/// Memory allocation debugging (§3.5).
pub use oskit_memdebug as memdebug;
/// GDB remote stub (§3.5).
pub use oskit_gdb as gdb;
/// Device driver framework (§3.6).
pub use oskit_fdev as fdev;
/// Encapsulated Linux drivers (§3.6, §4.7).
pub use oskit_linux_dev as linux_dev;
/// Encapsulated FreeBSD networking (§3.7, §4.7).
pub use oskit_freebsd_net as freebsd_net;
/// Encapsulated NetBSD file system (§3.8).
pub use oskit_netbsd_fs as netbsd_fs;
/// Disk partition interpretation.
pub use oskit_diskpart as diskpart;
/// Minimal read-only fs access for boot loaders.
pub use oskit_fsread as fsread;
/// Program loading.
pub use oskit_exec as exec;
