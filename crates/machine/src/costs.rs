//! The virtual-time cost model behind Tables 1 and 2.
//!
//! Nothing here is charged per *configuration*: the Linux, FreeBSD and
//! OSKit kernels of the paper's §5 experiments differ only in which code
//! runs, and therefore in which copies, protocol work and glue crossings
//! are actually performed.  Components report those mechanical facts
//! ("I copied N bytes", "I crossed a component boundary") and this model
//! converts them to virtual nanoseconds at 1997-era rates, so the *shape*
//! of the results — who wins and by what factor — is emergent.

use oskit_trace::Tracer;

/// Rates used to convert mechanical work into virtual time.
///
/// Defaults approximate the paper's testbed: Pentium Pro 200 MHz PCs on
/// 100 Mbps Ethernet.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Memory-copy bandwidth in bytes/second.  Calibrated so the paper's
    /// testbed behavior reproduces: packet-sized cache-cold copies on a
    /// Pentium Pro-class memory system (~25 MB/s effective).
    pub copy_bytes_per_sec: u64,
    /// Checksum bandwidth in bytes/second (single-pass load+add, roughly
    /// twice the copy rate).
    pub checksum_bytes_per_sec: u64,
    /// Fixed cost of one component-boundary crossing (COM dispatch plus
    /// glue prologue/epilogue), in nanoseconds (~100 cycles at 200 MHz).
    pub crossing_ns: u64,
    /// Fixed per-packet protocol processing cost per layer, in nanoseconds.
    pub per_layer_ns: u64,
    /// Fixed cost of taking one hardware interrupt, in nanoseconds.
    pub irq_ns: u64,
    /// Fixed cost of one softirq-style poll dispatch (scheduling and
    /// entering a NAPI `poll` callback), in nanoseconds.  Much cheaper
    /// than `irq_ns`: no context save/restore, no controller EOI — the
    /// whole economics of interrupt mitigation is paying this per
    /// *batch* instead of `irq_ns` per *frame*.
    pub poll_ns: u64,
    /// Cost of programming one scatter-gather descriptor (one fragment
    /// handed to gathering DMA hardware), in nanoseconds.  The CPU writes
    /// a (address, length) pair instead of copying the fragment — this is
    /// the whole economics of an SG-capable driver.
    pub sg_frag_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            copy_bytes_per_sec: 25_000_000,
            checksum_bytes_per_sec: 50_000_000,
            crossing_ns: 500,
            per_layer_ns: 2_000,
            irq_ns: 5_000,
            poll_ns: 1_500,
            sg_frag_ns: 300,
        }
    }
}

impl CostModel {
    /// Nanoseconds to copy `bytes` bytes.
    pub fn copy_ns(&self, bytes: usize) -> u64 {
        mul_div(bytes as u64, 1_000_000_000, self.copy_bytes_per_sec)
    }

    /// Nanoseconds to checksum `bytes` bytes.
    pub fn checksum_ns(&self, bytes: usize) -> u64 {
        mul_div(bytes as u64, 1_000_000_000, self.checksum_bytes_per_sec)
    }
}

fn mul_div(a: u64, b: u64, c: u64) -> u64 {
    ((a as u128 * b as u128) / c.max(1) as u128) as u64
}

/// Counters of the mechanical work a machine performed, in aggregate.
///
/// These are the quantities the paper's analysis talks about ("an
/// additional copy is necessary", "the overhead is largely attributable to
/// the additional glue code"); the experiment harnesses print them next to
/// the timing results.  The meter keeps no counters of its own: it owns
/// the machine's per-boundary ledger (a [`Tracer`]) and a snapshot is the
/// field-wise sum of the ledger's rows, the unattributed row included.
#[derive(Debug, Default)]
pub struct WorkMeter {
    ledger: Tracer,
}

impl WorkMeter {
    /// The per-boundary ledger the aggregate is summed from.
    pub(crate) fn ledger(&self) -> &Tracer {
        &self.ledger
    }

    /// Snapshots all counters.
    pub fn snapshot(&self) -> WorkSnapshot {
        let t = self.ledger.metrics().total();
        WorkSnapshot {
            bytes_copied: t.bytes_copied,
            copies: t.copies,
            bytes_gathered: t.bytes_gathered,
            gathers: t.gathers,
            crossings: t.crossings,
            bytes_checksummed: t.bytes_checksummed,
            irqs: t.irqs,
            rx_irqs: t.rx_irqs,
            rx_polls: t.polls,
            rx_batch_frames: t.poll_frames,
            packets_sent: t.packets_sent,
            packets_received: t.packets_received,
            cache_hits: t.cache_hits,
            cache_misses: t.cache_misses,
            cache_evictions: t.cache_evictions,
        }
    }

    /// Resets all counters to zero, per-boundary rows included.
    pub fn reset(&self) {
        self.ledger.clear();
    }
}

/// A point-in-time aggregate of a machine's work counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WorkSnapshot {
    /// Total bytes passed through `memcpy`-style copies.
    pub bytes_copied: u64,
    /// Number of discrete copy operations.
    pub copies: u64,
    /// Total bytes handed to scatter-gather DMA as fragment lists
    /// (descriptors programmed, nothing copied by the CPU).
    pub bytes_gathered: u64,
    /// Number of scatter-gather hand-offs.
    pub gathers: u64,
    /// Component-boundary (COM/glue) crossings.
    pub crossings: u64,
    /// Bytes checksummed.
    pub bytes_checksummed: u64,
    /// Hardware interrupts taken.
    pub irqs: u64,
    /// Receive interrupts taken (the subset of `irqs` raised by the NIC
    /// rx path — the quantity interrupt mitigation exists to shrink).
    pub rx_irqs: u64,
    /// NAPI-style poll invocations (budgeted rx batch drains).
    pub rx_polls: u64,
    /// Frames delivered by those polls; `rx_batch_frames / rx_polls` is
    /// the achieved batch size.
    pub rx_batch_frames: u64,
    /// Packets handed to the NIC.
    pub packets_sent: u64,
    /// Packets received from the NIC.
    pub packets_received: u64,
    /// Buffer-cache lookups satisfied from memory (no device I/O).
    pub cache_hits: u64,
    /// Buffer-cache lookups that filled from the backing device.
    pub cache_misses: u64,
    /// Cached blocks evicted to make room (written back first if dirty).
    pub cache_evictions: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn copy_cost_scales_linearly() {
        let m = CostModel::default();
        assert_eq!(m.copy_ns(0), 0);
        assert_eq!(m.copy_ns(25_000_000), 1_000_000_000);
        assert_eq!(m.copy_ns(25_000), 1_000_000);
    }

    #[test]
    fn checksum_is_faster_than_copy() {
        let m = CostModel::default();
        assert!(m.checksum_ns(1500) < m.copy_ns(1500));
    }

    #[test]
    fn meter_snapshot_and_reset() {
        let w = WorkMeter::default();
        w.ledger().record(
            oskit_trace::BoundaryId::UNATTRIBUTED,
            oskit_trace::EventKind::Copy { bytes: 100 },
        );
        let s = w.snapshot();
        assert_eq!(s.bytes_copied, 100);
        assert_eq!(s.copies, 1);
        w.reset();
        assert_eq!(w.snapshot(), WorkSnapshot::default());
    }

    #[test]
    fn mul_div_does_not_overflow() {
        // 4 GB at 1 byte/sec must not overflow u64 math internally.
        let m = CostModel {
            copy_bytes_per_sec: 1,
            ..CostModel::default()
        };
        assert_eq!(m.copy_ns(4), 4_000_000_000);
    }
}
