//! The per-machine tracer: the machine's counter ledger, one row of
//! plain counters per boundary behind one lock.

use crate::boundary::{boundary_count, BoundaryId, MAX_BOUNDARIES};
use crate::event::EventKind;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// One boundary's counters: a row of the ledger, or a point-in-time
/// copy of one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BoundaryMetrics {
    /// Component owning the boundary (e.g. `"linux-dev"`).
    pub component: &'static str,
    /// Boundary name within the component (e.g. `"ether_tx"`).
    pub name: &'static str,
    /// Control transfers observed at this seam.
    pub crossings: u64,
    /// Copy operations observed at this seam.
    pub copies: u64,
    /// Total payload bytes physically copied at this seam.
    pub bytes_copied: u64,
    /// Scatter-gather hand-offs observed at this seam (fragment lists
    /// passed to gathering hardware; no bytes copied).
    pub gathers: u64,
    /// Total payload bytes moved by scatter-gather hand-offs at this seam.
    pub bytes_gathered: u64,
    /// Bytes checksummed at this seam.
    pub bytes_checksummed: u64,
    /// Allocations observed at this seam.
    pub allocs: u64,
    /// Total bytes allocated at this seam.
    pub bytes_allocated: u64,
    /// Allocations that failed at this seam (exhaustion or injection) —
    /// the boundary-level companion of the NIC's `rx_dropped` /
    /// `wire_dropped` drop counters.
    pub alloc_failed: u64,
    /// Threads that blocked at this seam.
    pub sleeps: u64,
    /// Wakeups delivered at this seam.
    pub wakeups: u64,
    /// Interrupts delivered at this seam.
    pub irqs: u64,
    /// The subset of `irqs` raised by a NIC receive path — the quantity
    /// interrupt mitigation exists to shrink.
    pub rx_irqs: u64,
    /// Budgeted polls (NAPI-style batch drains) run at this seam.
    pub polls: u64,
    /// Frames delivered by those polls.
    pub poll_frames: u64,
    /// Packets handed to a NIC.
    pub packets_sent: u64,
    /// Packets a NIC received onto its ring.
    pub packets_received: u64,
    /// Buffer-cache lookups satisfied from memory at this seam.
    pub cache_hits: u64,
    /// Buffer-cache lookups that had to fill from the backing device.
    pub cache_misses: u64,
    /// Cached blocks evicted at this seam to make room.
    pub cache_evictions: u64,
    /// Virtual nanoseconds spent inside spans opened at this seam
    /// (reported by `BoundarySpan` guards in `oskit-machine`).
    pub vtime_ns: u64,
}

impl BoundaryMetrics {
    /// True when every counter is zero.
    pub fn is_zero(&self) -> bool {
        *self
            == BoundaryMetrics {
                component: self.component,
                name: self.name,
                ..BoundaryMetrics::default()
            }
    }

    /// Books one event: the single place that maps an [`EventKind`] to
    /// the counters it moves.
    fn add(&mut self, kind: EventKind) {
        match kind {
            EventKind::Crossing => self.crossings += 1,
            EventKind::Copy { bytes } => {
                self.copies += 1;
                self.bytes_copied += bytes;
            }
            EventKind::Gather { bytes } => {
                self.gathers += 1;
                self.bytes_gathered += bytes;
            }
            EventKind::Checksum { bytes } => self.bytes_checksummed += bytes,
            EventKind::Alloc { bytes } => {
                self.allocs += 1;
                self.bytes_allocated += bytes;
            }
            EventKind::AllocFailed { .. } => self.alloc_failed += 1,
            EventKind::Sleep => self.sleeps += 1,
            EventKind::Wakeup => self.wakeups += 1,
            EventKind::Irq => self.irqs += 1,
            EventKind::RxIrq => {
                self.irqs += 1;
                self.rx_irqs += 1;
            }
            EventKind::Poll { frames } => {
                self.polls += 1;
                self.poll_frames += frames;
            }
            EventKind::PacketSent => self.packets_sent += 1,
            EventKind::PacketReceived => self.packets_received += 1,
            EventKind::CacheHit => self.cache_hits += 1,
            EventKind::CacheMiss => self.cache_misses += 1,
            EventKind::CacheEvict => self.cache_evictions += 1,
        }
    }
}

/// A full per-boundary metrics snapshot from one tracer.
#[derive(Debug, Clone, Default)]
pub struct TraceReport {
    /// One entry per boundary registered in the process, in registration
    /// order (index == [`BoundaryId::index`]).  Boundaries this tracer
    /// never touched are present with all-zero counters.
    pub boundaries: Vec<BoundaryMetrics>,
}

impl TraceReport {
    /// Looks up the metrics of one boundary by name.
    pub fn get(&self, component: &str, name: &str) -> Option<&BoundaryMetrics> {
        self.boundaries
            .iter()
            .find(|b| b.component == component && b.name == name)
    }

    /// The boundaries with at least one nonzero counter.
    pub fn nonzero(&self) -> impl Iterator<Item = &BoundaryMetrics> {
        self.boundaries.iter().filter(|b| !b.is_zero())
    }

    /// Field-wise sum over every boundary, the unattributed one
    /// included (the result has no name): the machine's aggregate
    /// `WorkMeter` view.
    pub fn total(&self) -> BoundaryMetrics {
        self.boundaries
            .iter()
            .fold(BoundaryMetrics::default(), |a, b| BoundaryMetrics {
                component: "",
                name: "",
                crossings: a.crossings + b.crossings,
                copies: a.copies + b.copies,
                bytes_copied: a.bytes_copied + b.bytes_copied,
                gathers: a.gathers + b.gathers,
                bytes_gathered: a.bytes_gathered + b.bytes_gathered,
                bytes_checksummed: a.bytes_checksummed + b.bytes_checksummed,
                allocs: a.allocs + b.allocs,
                bytes_allocated: a.bytes_allocated + b.bytes_allocated,
                alloc_failed: a.alloc_failed + b.alloc_failed,
                sleeps: a.sleeps + b.sleeps,
                wakeups: a.wakeups + b.wakeups,
                irqs: a.irqs + b.irqs,
                rx_irqs: a.rx_irqs + b.rx_irqs,
                polls: a.polls + b.polls,
                poll_frames: a.poll_frames + b.poll_frames,
                packets_sent: a.packets_sent + b.packets_sent,
                packets_received: a.packets_received + b.packets_received,
                cache_hits: a.cache_hits + b.cache_hits,
                cache_misses: a.cache_misses + b.cache_misses,
                cache_evictions: a.cache_evictions + b.cache_evictions,
                vtime_ns: a.vtime_ns + b.vtime_ns,
            })
    }
}

impl fmt::Display for TraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "  {:<34} {:>9} {:>7} {:>12} {:>7} {:>10} {:>7} {:>9} {:>7} {:>8} {:>5} {:>7} {:>6} {:>11} {:>7} {:>7} {:>7} {:>7} {:>7} {:>12}",
            "boundary",
            "crossings",
            "copies",
            "bytes-copied",
            "gathers",
            "csum-bytes",
            "allocs",
            "alloc-ENOMEM",
            "sleeps",
            "wakeups",
            "irqs",
            "rx-irqs",
            "polls",
            "poll-frames",
            "pkts-tx",
            "pkts-rx",
            "c-hits",
            "c-miss",
            "c-evict",
            "vtime-ns"
        )?;
        for b in self.nonzero() {
            writeln!(
                f,
                "  {:<34} {:>9} {:>7} {:>12} {:>7} {:>10} {:>7} {:>9} {:>7} {:>8} {:>5} {:>7} {:>6} {:>11} {:>7} {:>7} {:>7} {:>7} {:>7} {:>12}",
                format!("{}::{}", b.component, b.name),
                b.crossings,
                b.copies,
                b.bytes_copied,
                b.gathers,
                b.bytes_checksummed,
                b.allocs,
                b.alloc_failed,
                b.sleeps,
                b.wakeups,
                b.irqs,
                b.rx_irqs,
                b.polls,
                b.poll_frames,
                b.packets_sent,
                b.packets_received,
                b.cache_hits,
                b.cache_misses,
                b.cache_evictions,
                b.vtime_ns
            )?;
        }
        Ok(())
    }
}

/// A cloneable handle to one tracing domain (normally: one simulated
/// machine) — the domain's counter ledger.
///
/// Clones share one table of per-boundary rows of plain `u64`
/// counters behind a single mutex.  Every recording call takes the lock
/// once and writes one row, and [`Tracer::metrics`] copies the rows
/// under the same lock, so a snapshot never sees half of an event (a
/// copy counted without its bytes).  Within a simulation the run token
/// already serializes the writers, so the lock is uncontended.
///
/// ```
/// use oskit_trace::{boundary, EventKind, Tracer};
/// let t = Tracer::new();
/// t.record(boundary!("doc", "seam"), EventKind::Copy { bytes: 64 });
/// let report = t.metrics();
/// assert_eq!(report.get("doc", "seam").unwrap().bytes_copied, 64);
/// assert_eq!(report.total().copies, 1);
/// ```
#[derive(Clone)]
pub struct Tracer {
    rows: Arc<Mutex<Box<[BoundaryMetrics]>>>,
}

impl Tracer {
    /// Creates a tracer with every row zero.
    pub fn new() -> Tracer {
        Tracer {
            rows: Arc::new(Mutex::new(
                vec![BoundaryMetrics::default(); MAX_BOUNDARIES].into_boxed_slice(),
            )),
        }
    }

    /// Whether recording is live: always `true`.  There is no build
    /// without the ledger, since the machine's aggregate counters are
    /// derived from it.
    pub const fn enabled() -> bool {
        true
    }

    /// The rows, locked.  Every update is a single `+=` on a plain
    /// counter, so a panic elsewhere cannot leave a row half-written and
    /// a poisoned lock is safe to reuse.
    fn rows(&self) -> MutexGuard<'_, Box<[BoundaryMetrics]>> {
        self.rows.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Books one event on `boundary`'s row.
    #[inline]
    pub fn record(&self, boundary: BoundaryId, kind: EventKind) {
        self.rows()[boundary.index()].add(kind);
    }

    /// Attributes `ns` of virtual time to `boundary` (reported by span
    /// guards when they close).
    #[inline]
    pub fn add_vtime(&self, boundary: BoundaryId, ns: u64) {
        self.rows()[boundary.index()].vtime_ns += ns;
    }

    /// Snapshots every registered boundary's row.  The rows are copied
    /// under the lock, so the snapshot is consistent across counters
    /// and boundaries.
    pub fn metrics(&self) -> TraceReport {
        let rows = self.rows()[..boundary_count()].to_vec();
        let boundaries = rows
            .iter()
            .enumerate()
            .map(|(i, row)| {
                let (component, name) = crate::boundary::boundary_info_at(i);
                BoundaryMetrics {
                    component,
                    name,
                    ..*row
                }
            })
            .collect();
        TraceReport { boundaries }
    }

    /// Resets every row to zero.
    pub fn clear(&self) {
        self.rows().fill(BoundaryMetrics::default());
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl fmt::Debug for Tracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tracer").finish_non_exhaustive()
    }
}
