//! `oskit-com` — the OSKit's Component Object Model layer.
//!
//! Reproduces paper §4.4: "For usability, it is critical that OSKit
//! components have clean, well-defined interfaces, designed along some
//! coherent set of global conventions and principles.  To provide this
//! standardization, we adopted a subset of the Component Object Model as a
//! framework in which to define the OSKit's component interfaces."
//!
//! This crate provides:
//!
//! * [`Guid`] — DCE UUIDs identifying interfaces (§4.4.2);
//! * [`IUnknown`], [`Query`], [`com_object!`] — the rendezvous protocol:
//!   reference-counted objects queryable for the interfaces they implement;
//! * [`Error`] — the `oskit_error_t` space shared by all components;
//! * [`interfaces`] — the standard interface suite (`blkio`, `bufio`,
//!   `netio`, `etherdev`, streams, files/directories, sockets);
//! * [`registry`] — component self-description, used to regenerate the
//!   paper's Figure 1.
//!
//! Crucially (paper §4.4.3 "No Required Support Code"), interfaces here are
//! *purely behavioral contracts*: nothing in this crate forces a buffer
//! representation, an allocator, or a threading model on either side.

#![forbid(unsafe_code)]

mod error;
mod guid;
mod iunknown;
pub mod registry;

pub mod interfaces;

pub use error::{Error, Result};
pub use guid::{oskit_iid, Guid};
pub use iunknown::{
    new_com, ref_count, AnyRef, ComInterface, IUnknown, Query, SelfRef, IUNKNOWN_IID,
};
