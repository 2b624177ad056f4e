//! The simulated PC: RAM, interrupt controller, CPU clock and accounting.

use crate::costs::{CostModel, WorkMeter};
use crate::irq::IrqController;
use crate::phys::PhysMem;
use crate::sched::{EventId, Ns, Sim};
use oskit_fault::FaultInjector;
use oskit_trace::{BoundaryId, EventKind, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One simulated machine (one "PC" of the paper's two-machine testbed).
///
/// A machine owns its physical memory, interrupt controller, cost meters
/// and a **CPU clock**: virtual time consumed by code logically executing
/// on this machine.  The clock advances when components charge work
/// ([`Machine::charge_copy`] and friends) and is pulled forward to the
/// global event clock whenever an event (packet arrival, disk completion)
/// is delivered to the machine.
pub struct Machine {
    /// Machine name, for diagnostics ("sender", "receiver", ...).
    pub name: String,
    /// The simulation this machine belongs to.
    pub sim: Arc<Sim>,
    /// Simulated RAM.
    pub phys: PhysMem,
    /// The interrupt controller.
    pub irq: Arc<IrqController>,
    /// Rates converting mechanical work to virtual time.
    pub costs: CostModel,
    /// Counters of mechanical work performed: the aggregate of the
    /// per-boundary ledger [`Machine::tracer`] returns.
    pub meter: WorkMeter,
    /// Scripted fault schedules (every decision is "no fault" until a
    /// plan is installed).
    faults: FaultInjector,
    clock: AtomicU64,
}

impl Machine {
    /// Creates a machine with `mem_size` bytes of RAM and default costs.
    pub fn new(sim: &Arc<Sim>, name: impl Into<String>, mem_size: usize) -> Arc<Machine> {
        Arc::new(Machine {
            name: name.into(),
            sim: Arc::clone(sim),
            phys: PhysMem::new(mem_size),
            irq: Arc::new(IrqController::new()),
            costs: CostModel::default(),
            meter: WorkMeter::default(),
            faults: FaultInjector::new(),
            clock: AtomicU64::new(0),
        })
    }

    /// This machine's counter ledger, one row per boundary;
    /// [`Machine::meter`] is its field-wise sum.
    pub fn tracer(&self) -> &Tracer {
        self.meter.ledger()
    }

    /// This machine's fault injector: the device models consult it at
    /// every fault point, and a kernel installs a
    /// [`FaultPlan`](oskit_fault::FaultPlan) on it to script faults.
    /// Inert (all decisions "no fault") until a plan is installed.
    pub fn faults(&self) -> &FaultInjector {
        &self.faults
    }

    /// This machine's CPU clock: the virtual time up to which its
    /// processor has been busy.
    pub fn clock(&self) -> Ns {
        self.clock.load(Ordering::Relaxed)
    }

    /// Pulls the CPU clock forward to at least `t` (an event was delivered
    /// at global time `t`; the CPU cannot have acted on it earlier).
    pub fn observe(&self, t: Ns) {
        self.clock.fetch_max(t, Ordering::Relaxed);
    }

    /// Advances the CPU clock by `ns` of processing.
    pub fn advance(&self, ns: Ns) {
        self.clock.fetch_add(ns, Ordering::Relaxed);
    }

    /// The time at which work started *now* would be scheduled: the later
    /// of this CPU's clock and the global event clock.
    pub fn cpu_now(&self) -> Ns {
        self.clock().max(self.sim.now())
    }

    /// Schedules `action` at `delay` ns after [`Machine::cpu_now`],
    /// observing the dispatch time on this machine's clock first.
    pub fn at_cpu(
        self: &Arc<Self>,
        delay: Ns,
        action: impl FnOnce(&Arc<Machine>) + Send + 'static,
    ) -> EventId {
        let when = self.cpu_now() + delay;
        let m = Arc::clone(self);
        self.sim.at_abs(when, move || {
            m.observe(m.sim.now());
            action(&m);
        })
    }

    /// Charges a memory copy of `bytes` bytes: advances the CPU clock and
    /// records the copy in the meter.
    ///
    /// Every `memcpy` performed by driver, glue, or protocol code calls
    /// this, so the copy counts behind Table 1's send/receive asymmetry
    /// are measured, not asserted.  Un-attributed variant of
    /// [`Machine::charge_copy_at`]: the trace books the copy on the
    /// reserved `machine::unattributed` boundary.
    pub fn charge_copy(&self, bytes: usize) {
        self.charge_copy_at(BoundaryId::UNATTRIBUTED, bytes);
    }

    /// Charges a memory copy of `bytes` bytes, attributed to `boundary`.
    ///
    /// The aggregate [`Machine::meter`] and the CPU clock advance exactly
    /// as in [`Machine::charge_copy`]; only the ledger row differs, so
    /// attributing a call site never changes Table 1 numbers.
    pub fn charge_copy_at(&self, boundary: BoundaryId, bytes: usize) {
        self.advance(self.costs.copy_ns(bytes));
        self.trace_note(
            boundary,
            EventKind::Copy {
                bytes: bytes as u64,
            },
        );
    }

    /// Charges a scatter-gather hand-off of `bytes` bytes in `fragments`
    /// fragments, attributed to `boundary`.
    ///
    /// The CPU programs one DMA descriptor per fragment
    /// ([`CostModel::sg_frag_ns`] each); the bytes themselves are moved
    /// by the gathering hardware, so no copy time and no `bytes_copied`
    /// are charged.  This is what an SG-capable driver pays where a
    /// contiguous-only driver pays [`Machine::charge_copy_at`].
    pub fn charge_gather_at(&self, boundary: BoundaryId, bytes: usize, fragments: usize) {
        self.advance(self.costs.sg_frag_ns * fragments as u64);
        self.trace_note(
            boundary,
            EventKind::Gather {
                bytes: bytes as u64,
            },
        );
    }

    /// Charges a checksum pass over `bytes` bytes (booked on the
    /// unattributed row).  The host does the pass with [`crate::Cksum`].
    pub fn charge_checksum(&self, bytes: usize) {
        self.advance(self.costs.checksum_ns(bytes));
        self.trace_note(
            BoundaryId::UNATTRIBUTED,
            EventKind::Checksum {
                bytes: bytes as u64,
            },
        );
    }

    /// Charges one component-boundary crossing (COM dispatch plus glue
    /// prologue/epilogue) — the per-call price of separability that
    /// dominates Table 2's latency overhead.  Un-attributed variant of
    /// [`Machine::charge_crossing_at`].
    pub fn charge_crossing(&self) {
        self.charge_crossing_at(BoundaryId::UNATTRIBUTED);
    }

    /// Charges one component-boundary crossing, attributed to `boundary`.
    pub fn charge_crossing_at(&self, boundary: BoundaryId) {
        self.advance(self.costs.crossing_ns);
        self.trace_note(boundary, EventKind::Crossing);
    }

    /// Charges one layer of per-packet protocol processing.
    pub fn charge_layer(&self) {
        self.advance(self.costs.per_layer_ns);
    }

    /// Charges the fixed cost of taking a hardware interrupt.
    /// Un-attributed variant of [`Machine::charge_irq_at`].
    pub fn charge_irq(&self) {
        self.charge_irq_at(BoundaryId::UNATTRIBUTED);
    }

    /// Charges the fixed cost of taking a hardware interrupt, attributed
    /// to `boundary`.
    pub fn charge_irq_at(&self, boundary: BoundaryId) {
        self.advance(self.costs.irq_ns);
        self.trace_note(boundary, EventKind::Irq);
    }

    /// Charges a NIC *receive* interrupt, attributed to `boundary`: the
    /// same price as [`Machine::charge_irq_at`], booked as an interrupt
    /// and as an `rx_irqs` one.
    pub fn charge_rx_irq_at(&self, boundary: BoundaryId) {
        self.advance(self.costs.irq_ns);
        self.trace_note(boundary, EventKind::RxIrq);
    }

    /// Charges one budgeted poll dispatch that delivered `frames` frames,
    /// attributed to `boundary`.
    ///
    /// This is the NAPI bargain made explicit in the cost model: the CPU
    /// pays [`CostModel::poll_ns`] once per *batch* where the
    /// interrupt-per-frame path pays [`CostModel::irq_ns`] per *frame*.
    /// The per-frame protocol and glue work is still charged by whoever
    /// consumes the frames — this prices only the dispatch.
    pub fn charge_rx_poll_at(&self, boundary: BoundaryId, frames: u64) {
        self.advance(self.costs.poll_ns);
        self.trace_note(boundary, EventKind::Poll { frames });
    }

    /// Books `kind` on `boundary`'s ledger row without charging any
    /// work — the one write every charge and note makes, used directly
    /// for observations that have no cost-model price of their own
    /// (allocations, sleeps, wakeups reported by the osenv).
    pub fn trace_note(&self, boundary: BoundaryId, kind: EventKind) {
        self.tracer().record(boundary, kind);
    }

    /// Notes a packet handed to this machine's NIC (bookkeeping only).
    pub fn note_packet_sent(&self) {
        self.trace_note(BoundaryId::UNATTRIBUTED, EventKind::PacketSent);
    }

    /// Notes a packet this machine's NIC received onto its ring
    /// (bookkeeping only).
    pub fn note_packet_received(&self) {
        self.trace_note(BoundaryId::UNATTRIBUTED, EventKind::PacketReceived);
    }

    /// Opens a profiling span at `boundary`: until the returned guard is
    /// dropped, all virtual time this machine's clock advances is
    /// attributed to the boundary's `vtime_ns` metric.
    ///
    /// Spans observe — they never charge — so wrapping a glue seam in a
    /// span leaves every meter and Table 1/2 number unchanged.
    pub fn span(&self, boundary: BoundaryId) -> BoundarySpan<'_> {
        BoundarySpan {
            machine: self,
            boundary,
            entry: self.clock(),
        }
    }
}

/// RAII guard from [`Machine::span`], attributing elapsed virtual time
/// to a boundary when dropped.
pub struct BoundarySpan<'a> {
    machine: &'a Machine,
    boundary: BoundaryId,
    entry: Ns,
}

impl Drop for BoundarySpan<'_> {
    fn drop(&mut self) {
        let elapsed = self.machine.clock().saturating_sub(self.entry);
        self.machine.tracer().add_vtime(self.boundary, elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::WorkSnapshot;
    use oskit_trace::BoundaryMetrics;

    #[test]
    fn clock_accumulates_charges() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        m.charge_copy(25_000); // 1 ms at 25 MB/s.
        assert_eq!(m.clock(), 1_000_000);
        m.charge_crossing();
        assert_eq!(m.clock(), 1_000_500);
    }

    #[test]
    fn observe_never_moves_clock_backwards() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        m.advance(500);
        m.observe(100);
        assert_eq!(m.clock(), 500);
        m.observe(900);
        assert_eq!(m.clock(), 900);
    }

    #[test]
    fn at_cpu_runs_after_charged_work() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        m.advance(10_000); // CPU is busy until t=10 µs.
        let m2 = Arc::clone(&m);
        let s2 = Arc::clone(&sim);
        sim.spawn("t", move || {
            let done = Arc::new(crate::sched::SleepRecord::new());
            let d2 = Arc::clone(&done);
            let s3 = Arc::clone(&s2);
            m2.at_cpu(5, move |m| {
                // The event fires at cpu_now() + 5, not sim.now() + 5.
                assert!(m.sim.now() >= 10_005);
                d2.signal(&s3);
            });
            done.wait(&s2);
        });
        sim.run();
    }

    #[test]
    fn attributed_charges_keep_aggregates_identical() {
        let sim = Sim::new();
        let plain = Machine::new(&sim, "plain", 4096);
        let attributed = Machine::new(&sim, "attr", 4096);
        let b = oskit_trace::boundary!("machine-test", "seam");
        let c = oskit_trace::boundary!("machine-test", "seam_c");

        plain.charge_copy(100);
        plain.charge_crossing();
        plain.charge_irq();
        attributed.charge_copy_at(b, 100);
        attributed.charge_crossing_at(b);
        attributed.charge_irq_at(b);
        for m in [&plain, &attributed] {
            m.charge_checksum(40);
            m.note_packet_sent();
            m.note_packet_received();
        }
        plain.charge_rx_irq_at(BoundaryId::UNATTRIBUTED);
        plain.charge_rx_poll_at(BoundaryId::UNATTRIBUTED, 6);
        for kind in [EventKind::CacheHit, EventKind::CacheMiss, EventKind::CacheEvict] {
            plain.trace_note(BoundaryId::UNATTRIBUTED, kind);
        }
        attributed.charge_rx_irq_at(c);
        attributed.charge_rx_poll_at(c, 6);
        attributed.trace_note(b, EventKind::CacheHit);
        attributed.trace_note(c, EventKind::CacheMiss);
        attributed.trace_note(c, EventKind::CacheEvict);

        // Attribution is free: meters and clocks match exactly.
        let snap = attributed.meter.snapshot();
        assert_eq!(plain.meter.snapshot(), snap);
        assert_eq!(plain.clock(), attributed.clock());
        assert_eq!(
            (snap.irqs, snap.rx_irqs, snap.rx_polls, snap.rx_batch_frames),
            (2, 1, 1, 6)
        );
        assert_eq!(
            (
                snap.packets_sent,
                snap.packets_received,
                snap.bytes_checksummed
            ),
            (1, 1, 40)
        );

        // The meter is the field-wise sum of the rows, unattributed
        // row included.
        for m in [&plain, &attributed] {
            let r = m.tracer().metrics();
            let sum = |f: fn(&BoundaryMetrics) -> u64| r.boundaries.iter().map(f).sum::<u64>();
            let s = m.meter.snapshot();
            let pairs = [
                (s.bytes_copied, sum(|b| b.bytes_copied)),
                (s.copies, sum(|b| b.copies)),
                (s.bytes_gathered, sum(|b| b.bytes_gathered)),
                (s.gathers, sum(|b| b.gathers)),
                (s.crossings, sum(|b| b.crossings)),
                (s.bytes_checksummed, sum(|b| b.bytes_checksummed)),
                (s.irqs, sum(|b| b.irqs)),
                (s.rx_irqs, sum(|b| b.rx_irqs)),
                (s.rx_polls, sum(|b| b.polls)),
                (s.rx_batch_frames, sum(|b| b.poll_frames)),
                (s.packets_sent, sum(|b| b.packets_sent)),
                (s.packets_received, sum(|b| b.packets_received)),
                (s.cache_hits, sum(|b| b.cache_hits)),
                (s.cache_misses, sum(|b| b.cache_misses)),
                (s.cache_evictions, sum(|b| b.cache_evictions)),
            ];
            for (aggregate, rows) in pairs {
                assert_eq!(aggregate, rows);
            }
        }

        let report = attributed.tracer().metrics();
        let m = *report.get("machine-test", "seam").unwrap();
        assert_eq!(
            (m.copies, m.bytes_copied, m.crossings, m.irqs, m.cache_hits),
            (1, 100, 1, 1, 1)
        );
        let mc = *report.get("machine-test", "seam_c").unwrap();
        assert_eq!(
            (
                mc.irqs,
                mc.rx_irqs,
                mc.polls,
                mc.poll_frames,
                mc.cache_misses,
                mc.cache_evictions
            ),
            (1, 1, 1, 6, 1, 1)
        );
        // Checksums and packets are booked as unattributed.
        let u = *report.get("machine", "unattributed").unwrap();
        assert_eq!(
            (
                u.bytes_checksummed,
                u.packets_sent,
                u.packets_received,
                u.copies
            ),
            (40, 1, 1, 0)
        );
        // The plain machine booked everything as unattributed.
        let u = *plain
            .tracer()
            .metrics()
            .get("machine", "unattributed")
            .unwrap();
        assert_eq!((u.copies, u.crossings, u.irqs, u.polls), (1, 1, 2, 1));

        // A meter reset clears the rows too.
        attributed.meter.reset();
        assert!(attributed.tracer().metrics().nonzero().next().is_none());
        assert_eq!(attributed.meter.snapshot(), WorkSnapshot::default());
    }

    #[test]
    fn span_attributes_vtime_without_charging() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        let b = oskit_trace::boundary!("machine-test", "span_seam");
        let before = m.meter.snapshot();
        {
            let _span = m.span(b);
            m.charge_copy(25_000); // 1 ms at 25 MB/s
        }
        let after = m.meter.snapshot();
        // The span itself charged nothing beyond the copy.
        assert_eq!(after.copies, before.copies + 1);
        assert_eq!(m.clock(), 1_000_000);
        let v = m
            .tracer()
            .metrics()
            .get("machine-test", "span_seam")
            .unwrap()
            .vtime_ns;
        assert_eq!(v, 1_000_000);
    }

    #[test]
    fn gather_charges_descriptors_not_copies() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        let b = oskit_trace::boundary!("machine-test", "sg_seam");
        m.charge_gather_at(b, 1514, 2);
        let s = m.meter.snapshot();
        // The bytes moved, but nothing was copied by the CPU...
        assert_eq!(s.bytes_gathered, 1514);
        assert_eq!(s.gathers, 1);
        assert_eq!(s.bytes_copied, 0);
        // ...which only cost two descriptor writes of clock time, far
        // below the ~60 µs a 1514-byte copy would have charged.
        assert_eq!(m.clock(), 2 * m.costs.sg_frag_ns);
        assert!(m.clock() < m.costs.copy_ns(1514) / 10);
        let bm = *m.tracer().metrics().get("machine-test", "sg_seam").unwrap();
        assert_eq!(
            (bm.gathers, bm.bytes_gathered, bm.bytes_copied),
            (1, 1514, 0)
        );
    }

    #[test]
    fn meters_track_work() {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 4096);
        m.charge_copy(100);
        m.charge_copy(200);
        m.charge_checksum(50);
        m.charge_irq();
        let s = m.meter.snapshot();
        assert_eq!(s.bytes_copied, 300);
        assert_eq!(s.copies, 2);
        assert_eq!(s.bytes_checksummed, 50);
        assert_eq!(s.irqs, 1);
    }
}
