//! Boundary-name interning.
//!
//! A *boundary* is a named glue seam between two components — the exact
//! places the OSKit paper charges glue-code overhead to (e.g. the
//! `linux-dev` ether driver hand-off into the `freebsd-net` stack).
//! Boundaries are registered once per process and referred to everywhere
//! else by a small dense [`BoundaryId`], so each tracer's per-boundary
//! rows live in one fixed-size array indexed by id.

use std::sync::Mutex;

/// Maximum number of distinct boundaries a process may register.
///
/// Each tracer's rows are a fixed-size array indexed by
/// [`BoundaryId`], so this caps their footprint.  The whole OSKit tree
/// registers ~25 boundaries; 64 leaves generous headroom.
pub const MAX_BOUNDARIES: usize = 64;

/// A small dense handle to an interned (component, boundary-name) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BoundaryId(u16);

impl BoundaryId {
    /// The reserved boundary that legacy, un-attributed charges land on.
    ///
    /// [`Machine::charge_copy`](../../oskit_machine/machine/struct.Machine.html)
    /// and friends route here when the caller did not name a seam, so
    /// the per-boundary breakdown always sums to the aggregate meter.
    pub const UNATTRIBUTED: BoundaryId = BoundaryId(0);

    /// The dense index of this boundary, `< MAX_BOUNDARIES`.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// The interning table: slot i holds the (component, name) of
/// `BoundaryId(i)`.  Slot 0 is pre-seeded with the unattributed seam.
static TABLE: Mutex<Vec<(&'static str, &'static str)>> = Mutex::new(Vec::new());

fn with_table<R>(f: impl FnOnce(&mut Vec<(&'static str, &'static str)>) -> R) -> R {
    let mut t = match TABLE.lock() {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    };
    if t.is_empty() {
        t.push(("machine", "unattributed"));
    }
    f(&mut t)
}

/// Interns `(component, name)` and returns its id.  Idempotent: the same
/// pair always maps to the same id.
///
/// # Panics
///
/// Panics if more than [`MAX_BOUNDARIES`] distinct boundaries are
/// registered — that indicates boundary names are being generated
/// dynamically, which defeats the fixed-cost design.
pub fn register_boundary(component: &'static str, name: &'static str) -> BoundaryId {
    with_table(|t| {
        if let Some(i) = t.iter().position(|&(c, n)| c == component && n == name) {
            return BoundaryId(i as u16);
        }
        assert!(
            t.len() < MAX_BOUNDARIES,
            "more than {MAX_BOUNDARIES} trace boundaries registered; \
             boundary names must be a small static set"
        );
        t.push((component, name));
        BoundaryId((t.len() - 1) as u16)
    })
}

/// Number of boundaries registered so far (always >= 1: the
/// unattributed seam).
pub fn boundary_count() -> usize {
    with_table(|t| t.len())
}

/// The (component, name) pair behind `id`.
pub fn boundary_info(id: BoundaryId) -> (&'static str, &'static str) {
    boundary_info_at(id.index())
}

/// The (component, name) pair at dense index `i` (ids are dense, so
/// index `i` is `BoundaryId(i)`).  Returns `("?", "?")` out of range.
pub fn boundary_info_at(i: usize) -> (&'static str, &'static str) {
    with_table(|t| t.get(i).copied().unwrap_or(("?", "?")))
}

/// Interns a boundary once per call site and caches the id in a hidden
/// `static`, so hot paths pay one atomic load after the first hit.
///
/// ```
/// let b = oskit_trace::boundary!("linux-dev", "ether_tx");
/// assert_eq!(b, oskit_trace::boundary!("linux-dev", "ether_tx"));
/// ```
#[macro_export]
macro_rules! boundary {
    ($component:expr, $name:expr $(,)?) => {{
        static CACHED: ::std::sync::OnceLock<$crate::BoundaryId> = ::std::sync::OnceLock::new();
        *CACHED.get_or_init(|| $crate::register_boundary($component, $name))
    }};
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let a = register_boundary("testcomp", "seam_a");
        let b = register_boundary("testcomp", "seam_b");
        assert_ne!(a, b);
        assert_eq!(a, register_boundary("testcomp", "seam_a"));
        assert_eq!(boundary_info(a), ("testcomp", "seam_a"));
    }

    #[test]
    fn unattributed_is_slot_zero() {
        assert_eq!(BoundaryId::UNATTRIBUTED.index(), 0);
        assert_eq!(
            boundary_info(BoundaryId::UNATTRIBUTED),
            ("machine", "unattributed")
        );
        assert!(boundary_count() >= 1);
    }

    #[test]
    fn boundary_macro_caches() {
        let x = crate::boundary!("testcomp", "macro_seam");
        let y = crate::boundary!("testcomp", "macro_seam");
        assert_eq!(x, y);
    }
}
