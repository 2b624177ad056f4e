//! `oskit-trace` — the OSKit observability substrate.
//!
//! The paper's central measurement story (§5, Tables 1–3) is about
//! *attributing* overhead: how many control transfers and payload copies
//! does each layer of glue code add between encapsulated donor-OS
//! components?  The per-machine `WorkMeter` answers in aggregate; this
//! crate keeps the per-seam ledger that aggregate is summed from:
//!
//! * **Boundaries** ([`BoundaryId`], [`register_boundary`], the
//!   [`boundary!`] macro) — interned names for the glue seams between
//!   components, e.g. `("linux-dev", "ether_tx")` where the FreeBSD
//!   network stack hands a packet to the encapsulated Linux driver.
//! * **Events** ([`EventKind`]) — what crossed a seam: crossings,
//!   copies and gathers (with byte counts), checksums, allocations,
//!   sleeps, wakeups, interrupts, polls, packets and buffer-cache
//!   lookups.
//! * **The tracer** ([`Tracer`]) — a cloneable handle to a machine's
//!   counter ledger: one row of plain counters per boundary (a
//!   [`BoundaryMetrics`]) behind one lock.  Each event moves exactly
//!   one row; a snapshot ([`TraceReport`]) copies all rows under the
//!   lock, so it is always consistent.  The machine's aggregate
//!   `WorkMeter` is the field-wise sum of the rows
//!   ([`TraceReport::total`]), so aggregate and per-boundary numbers
//!   cannot disagree.
//!
//! There is no process-global tracer: every ledger belongs to whoever
//! created it (in practice one per machine), and the crate depends on no
//! other OSKit component.
//!
//! # Usage
//!
//! ```
//! use oskit_trace::{boundary, EventKind, Tracer};
//!
//! let tracer = Tracer::new();
//! let seam = boundary!("freebsd-net", "rx_ether");
//! tracer.record(seam, EventKind::Crossing);
//! tracer.record(seam, EventKind::Copy { bytes: 1460 });
//!
//! let m = *tracer.metrics().get("freebsd-net", "rx_ether").unwrap();
//! assert_eq!(m.crossings, 1);
//! assert_eq!(m.bytes_copied, 1460);
//! ```
//!
//! The cost-model integration lives in `oskit-machine`
//! (`Machine::charge_copy_at` and friends); every machine owns a
//! `Tracer` and the bench harnesses render [`TraceReport`]s as
//! per-boundary breakdown tables (`table1 --boundaries`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod boundary;
mod event;
mod tracer;

pub use boundary::{
    boundary_count, boundary_info, boundary_info_at, register_boundary, BoundaryId, MAX_BOUNDARIES,
};
pub use event::EventKind;
pub use tracer::{BoundaryMetrics, TraceReport, Tracer};

#[cfg(test)]
mod tests {
    mod enabled {
        use crate::*;

        #[test]
        fn each_kind_bumps_its_fields() {
            let t = Tracer::new();
            let a = crate::boundary!("en", "seam_a");
            let b = crate::boundary!("en", "seam_b");
            t.record(a, EventKind::Crossing);
            t.record(a, EventKind::Copy { bytes: 100 });
            t.record(a, EventKind::Gather { bytes: 60 });
            t.record(a, EventKind::Checksum { bytes: 20 });
            t.record(a, EventKind::PacketSent);
            t.record(a, EventKind::PacketReceived);
            t.record(b, EventKind::Sleep);
            t.record(b, EventKind::Wakeup);
            t.record(b, EventKind::Irq);
            t.record(b, EventKind::RxIrq);
            t.record(b, EventKind::Poll { frames: 5 });
            t.record(b, EventKind::Alloc { bytes: 32 });
            t.record(b, EventKind::AllocFailed { bytes: 64 });
            t.record(b, EventKind::CacheHit);
            t.record(b, EventKind::CacheMiss);
            t.record(b, EventKind::CacheEvict);
            t.add_vtime(b, 7);

            let r = t.metrics();
            let ma = r.get("en", "seam_a").unwrap();
            assert_eq!(
                (
                    ma.crossings,
                    ma.copies,
                    ma.bytes_copied,
                    ma.gathers,
                    ma.bytes_gathered
                ),
                (1, 1, 100, 1, 60)
            );
            assert_eq!(
                (ma.bytes_checksummed, ma.packets_sent, ma.packets_received),
                (20, 1, 1)
            );
            let mb = r.get("en", "seam_b").unwrap();
            assert_eq!(
                (
                    mb.sleeps,
                    mb.wakeups,
                    mb.irqs,
                    mb.rx_irqs,
                    mb.polls,
                    mb.poll_frames
                ),
                (1, 1, 2, 1, 1, 5)
            );
            assert_eq!((mb.allocs, mb.bytes_allocated, mb.alloc_failed), (1, 32, 1));
            assert_eq!(
                (
                    mb.cache_hits,
                    mb.cache_misses,
                    mb.cache_evictions,
                    mb.vtime_ns
                ),
                (1, 1, 1, 7)
            );
            // The total is the field-wise sum of the two rows.
            let total = r.total();
            assert_eq!(
                (total.irqs, total.bytes_copied, total.vtime_ns),
                (2, 100, 7)
            );
            assert_eq!(
                r.nonzero().map(|m| m.name).collect::<Vec<_>>(),
                ["seam_a", "seam_b"]
            );
        }

        /// A metrics snapshot taken while writer threads are recording
        /// must be consistent: no event half-counted (a count without
        /// its bytes or frames), every counter monotone, and the final
        /// snapshot exact.
        #[test]
        fn snapshot_determinism_under_concurrent_writers() {
            const PER_WRITER: u64 = 5_000;
            let kinds = [
                EventKind::Copy { bytes: 10 },
                EventKind::Copy { bytes: 10 },
                EventKind::Gather { bytes: 20 },
                EventKind::Poll { frames: 3 },
                EventKind::Alloc { bytes: 32 },
                EventKind::RxIrq,
            ];
            let t = Tracer::new();
            let seam = crate::boundary!("en", "concurrent_seam");

            let handles: Vec<_> = kinds
                .iter()
                .map(|&kind| {
                    let t = t.clone();
                    std::thread::spawn(move || {
                        for _ in 0..PER_WRITER {
                            t.record(seam, kind);
                        }
                    })
                })
                .collect();

            // Snapshot for as long as the writers run: every pair of
            // counters one event moves must agree, and each observed
            // value must be monotone and within range.
            let consistent = |m: &BoundaryMetrics| {
                assert_eq!(m.bytes_copied, m.copies * 10);
                assert_eq!(m.bytes_gathered, m.gathers * 20);
                assert_eq!(m.poll_frames, m.polls * 3);
                assert_eq!(m.bytes_allocated, m.allocs * 32);
                assert_eq!(m.irqs, m.rx_irqs);
            };
            let mut last = BoundaryMetrics::default();
            while !handles.iter().all(|h| h.is_finished()) {
                let m = *t.metrics().get("en", "concurrent_seam").unwrap();
                consistent(&m);
                assert!(m.copies >= last.copies && m.copies <= 2 * PER_WRITER);
                assert!(m.gathers >= last.gathers && m.gathers <= PER_WRITER);
                assert!(m.polls >= last.polls && m.polls <= PER_WRITER);
                assert!(m.allocs >= last.allocs && m.allocs <= PER_WRITER);
                assert!(m.rx_irqs >= last.rx_irqs && m.rx_irqs <= PER_WRITER);
                last = m;
            }
            for h in handles {
                h.join().unwrap();
            }

            let m = *t.metrics().get("en", "concurrent_seam").unwrap();
            consistent(&m);
            assert_eq!(
                (m.copies, m.gathers, m.polls, m.allocs, m.rx_irqs),
                (
                    2 * PER_WRITER,
                    PER_WRITER,
                    PER_WRITER,
                    PER_WRITER,
                    PER_WRITER
                )
            );
        }

        #[test]
        fn clear_resets_everything() {
            let t = Tracer::new();
            let seam = crate::boundary!("en", "clear_seam");
            for _ in 0..10 {
                t.record(seam, EventKind::Crossing);
            }
            t.add_vtime(seam, 5);
            t.clear();
            assert!(t.metrics().get("en", "clear_seam").unwrap().is_zero());
            assert!(t.metrics().total().is_zero());
        }

        #[test]
        fn clones_share_a_core() {
            let t = Tracer::new();
            let t2 = t.clone();
            let seam = crate::boundary!("en", "shared_seam");
            t.record(seam, EventKind::Crossing);
            assert_eq!(t2.metrics().get("en", "shared_seam").unwrap().crossings, 1);
        }

        #[test]
        fn report_display_renders_rows() {
            let t = Tracer::new();
            let seam = crate::boundary!("en", "display_seam");
            t.record(seam, EventKind::Copy { bytes: 7 });
            let text = t.metrics().to_string();
            assert!(text.contains("en::display_seam"));
            assert!(text.contains("boundary"));
        }
    }
}
