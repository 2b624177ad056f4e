//! What a tracer records.
//!
//! Each [`EventKind`] names one observation at a glue seam; the tracer
//! books it on the seam's row of counters.

/// What happened at a boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Control transferred across the boundary (a glue-code call).
    Crossing,
    /// Payload bytes were physically copied at the boundary.
    Copy {
        /// Number of bytes copied.
        bytes: u64,
    },
    /// Payload bytes were handed to scatter-gather hardware as a fragment
    /// list — descriptors were programmed, but no byte was copied.
    Gather {
        /// Number of bytes gathered.
        bytes: u64,
    },
    /// Bytes were checksummed at the boundary.
    Checksum {
        /// Number of bytes checksummed.
        bytes: u64,
    },
    /// Memory was allocated through the osenv at this boundary.
    Alloc {
        /// Number of bytes allocated.
        bytes: u64,
    },
    /// An osenv allocation failed at this boundary (pool exhaustion or an
    /// injected fault); the component must degrade gracefully.
    AllocFailed {
        /// Number of bytes requested.
        bytes: u64,
    },
    /// A thread blocked (osenv sleep) at this boundary.
    Sleep,
    /// A sleeping thread was woken at this boundary.
    Wakeup,
    /// An interrupt was delivered at this boundary.
    Irq,
    /// A NIC receive interrupt was delivered at this boundary (counts as
    /// an [`EventKind::Irq`] too).
    RxIrq,
    /// A budgeted poll (NAPI-style batch drain) ran at this boundary.
    Poll {
        /// Number of frames the poll delivered.
        frames: u64,
    },
    /// A packet was handed to a NIC.
    PacketSent,
    /// A NIC received a packet onto its ring.
    PacketReceived,
    /// A buffer-cache lookup was satisfied from memory at this boundary —
    /// no device I/O, no copy.
    CacheHit,
    /// A buffer-cache lookup missed and had to fill from the backing
    /// device at this boundary.
    CacheMiss,
    /// A cached block was evicted (written back first if dirty) at this
    /// boundary to make room.
    CacheEvict,
}
