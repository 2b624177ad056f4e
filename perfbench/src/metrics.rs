//! The named metrics: what each round contributes, and how rounds
//! combine into a run's figure.

use crate::span::{self_cpu_ns, unattributed_cpu_frac, Seam, Span};
use crate::stats::{median, percentile, ratio, reportable_percentile};
use crate::workloads::Round;
use oskit::machine::{BoundaryMetrics, WorkSnapshot};

/// Which rounds a metric is taken from.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Host time or memory: median over the untraced rounds.
    Host,
    /// Span statistics: median over the traced rounds.
    Span,
    /// Virtual time or a work counter: identical in every round (the run
    /// fails otherwise), taken from the first round that has it.
    Exact,
}

pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    pub class: Class,
}

const fn spec(name: &'static str, unit: &'static str, class: Class) -> Spec {
    Spec { name, unit, class }
}

use Class::{Exact, Host, Span as Spans};

pub const END_TO_END: [Spec; 8] = [
    spec("setup_s", "s", Host),
    spec("wall_s", "s", Host),
    spec("wall_calib_ratio", "ratio", Host),
    spec("cpu_s", "s", Host),
    spec("rss_mb", "MiB", Host),
    spec("vt_goodput_mbit_s", "Mbit/s", Exact),
    spec("vt_op_us_p50", "us", Exact),
    spec("vt_op_us_p99", "us", Exact),
];

/// Per-layer metrics.  `bench.trace_overhead` is the ratio of two
/// medians, computed by [`aggregate`].
pub const PER_LAYER: [Spec; 36] = [
    spec("machine.sched.vcs_per_frame", "count/frame", Host),
    spec("machine.sched.ivcs_per_frame", "count/frame", Host),
    spec("machine.sched.sys_s", "s", Host),
    spec("machine.sched.user_s", "s", Host),
    spec("machine.host_us_per_frame", "us", Host),
    spec("machine.nic.drops", "count", Exact),
    spec("machine.disk.blk_reads", "count", Exact),
    spec("machine.disk.blk_writes", "count", Exact),
    spec("machine.disk.vt_us_p50", "us", Exact),
    spec("machine.disk.vt_us_p99", "us", Exact),
    spec("osenv.sleep.sleeps_per_op", "count/op", Exact),
    spec("osenv.mem.allocs_per_op", "count/op", Exact),
    spec("osenv.mem.alloc_failed", "count", Exact),
    spec("linux-dev.ether_tx.bytes_copied_per_byte", "B/B", Exact),
    spec("linux-dev.ether_tx.gathers_per_frame", "count/frame", Exact),
    spec("linux-dev.rx_irqs_per_frame", "count/frame", Exact),
    spec("linux-dev.rx_frames_per_poll", "count/poll", Exact),
    spec("linux-dev.netio_tx.host_self_ns_p50", "ns", Spans),
    spec("linux-dev.netio_rx.host_self_ns_p50", "ns", Spans),
    spec("linux-dev.blkio.host_self_ns_p50", "ns", Spans),
    spec("freebsd-net.crossings_per_op", "count/op", Exact),
    spec("freebsd-net.sockbuf.bytes_copied_per_byte", "B/B", Exact),
    spec("freebsd-net.checksummed_per_byte", "B/B", Exact),
    spec("freebsd-net.frames_per_kib", "count/KiB", Exact),
    spec("freebsd-net.socket.host_self_ns_p50", "ns", Spans),
    spec("freebsd-net.socket.host_self_ns_p99", "ns", Spans),
    spec("netbsd-fs.file.vt_us_p50", "us", Exact),
    spec("netbsd-fs.file.vt_us_p99", "us", Exact),
    spec("netbsd-fs.file.host_self_ns_p50", "ns", Spans),
    spec("netbsd-fs.fs_read.bytes_copied", "B", Exact),
    spec("bufcache.hit_ratio", "ratio", Exact),
    spec("bufcache.misses", "count", Exact),
    spec("bufcache.evictions", "count", Exact),
    spec("bench.trace_overhead", "ratio", Spans),
    spec("bench.unattributed_host_frac", "ratio", Spans),
    spec("bench.calib_ms", "ms", Host),
];

fn of(spans: &[Span], seams: &[Seam]) -> Vec<usize> {
    (0..spans.len())
        .filter(|&i| seams.contains(&spans[i].seam))
        .collect()
}

fn pct(mut xs: Vec<u64>, p: f64) -> f64 {
    xs.sort_unstable();
    percentile(&xs, p).map_or(0.0, |v| v.0 as f64)
}

/// Everything one round contributes, by metric name, plus problems (a
/// latency percentile with too few samples beyond it).  Span statistics
/// exist only for traced rounds; the virtual-time ones among them (disk
/// and file latency) repeat exactly.
pub fn round_values(
    r: &Round,
    rss_mb: f64,
    calib_ms: f64,
) -> (Vec<(&'static str, f64)>, Vec<String>) {
    let mut problems = Vec::new();
    let ops = r.attempted as f64;
    let payload = r.payload_bytes as f64;
    let frames = r.frames as f64;
    let work = |f: fn(&WorkSnapshot) -> u64| r.work.iter().map(f).sum::<u64>() as f64;
    let at = |comp: &str, name: &str, f: fn(&BoundaryMetrics) -> u64| {
        r.reports
            .iter()
            .filter_map(|t| t.get(comp, name))
            .map(f)
            .sum::<u64>() as f64
    };
    let mut op_pct = |p: f64| {
        reportable_percentile(&r.lat_ns, p).unwrap_or_else(|| {
            problems.push(format!(
                "p{p} of {} samples has fewer than 10 beyond it",
                r.lat_ns.len()
            ));
            percentile(&r.lat_ns, p).map_or(0, |v| v.0)
        }) as f64
            / 1e3
    };
    let (p50, p99) = (op_pct(50.0), op_pct(99.0));
    let (hits, misses) = (work(|w| w.cache_hits), work(|w| w.cache_misses));
    let mut v = vec![
        ("ops", ops),
        ("setup_s", r.setup_s),
        ("wall_s", r.usage.wall_s),
        ("wall_calib_ratio", ratio(r.usage.wall_s * 1e3, calib_ms)),
        ("cpu_s", r.usage.cpu_s),
        ("rss_mb", rss_mb),
        ("vcs", r.usage.voluntary as f64),
        ("bench.calib_ms", calib_ms),
        (
            "vt_goodput_mbit_s",
            ratio(payload * 8.0 * 1e3, r.vt_ns as f64),
        ),
        ("vt_op_us_p50", p50),
        ("vt_op_us_p99", p99),
        (
            "machine.sched.vcs_per_frame",
            ratio(r.usage.voluntary as f64, frames),
        ),
        (
            "machine.sched.ivcs_per_frame",
            ratio(r.usage.involuntary as f64, frames),
        ),
        ("machine.sched.sys_s", r.usage.sys_s),
        ("machine.sched.user_s", r.usage.user_s),
        (
            "machine.host_us_per_frame",
            ratio(r.usage.wall_s * 1e6, frames),
        ),
        ("machine.nic.drops", r.drops as f64),
        (
            "osenv.sleep.sleeps_per_op",
            ratio(at("osenv", "sleep", |b| b.sleeps), ops),
        ),
        (
            "osenv.mem.allocs_per_op",
            ratio(at("osenv", "mem", |b| b.allocs), ops),
        ),
        (
            "osenv.mem.alloc_failed",
            at("osenv", "mem", |b| b.alloc_failed),
        ),
        (
            "linux-dev.ether_tx.bytes_copied_per_byte",
            ratio(at("linux-dev", "ether_tx", |b| b.bytes_copied), payload),
        ),
        (
            "linux-dev.ether_tx.gathers_per_frame",
            ratio(at("linux-dev", "ether_tx", |b| b.gathers), frames),
        ),
        (
            "linux-dev.rx_irqs_per_frame",
            ratio(work(|w| w.rx_irqs), frames),
        ),
        (
            "linux-dev.rx_frames_per_poll",
            ratio(work(|w| w.rx_batch_frames), work(|w| w.rx_polls)),
        ),
        (
            "freebsd-net.crossings_per_op",
            ratio(work(|w| w.crossings), ops),
        ),
        (
            "freebsd-net.sockbuf.bytes_copied_per_byte",
            ratio(at("freebsd-net", "sockbuf", |b| b.bytes_copied), payload),
        ),
        (
            "freebsd-net.checksummed_per_byte",
            ratio(work(|w| w.bytes_checksummed), payload),
        ),
        (
            "freebsd-net.frames_per_kib",
            ratio(frames * 1024.0, payload),
        ),
        (
            "netbsd-fs.fs_read.bytes_copied",
            at("netbsd-fs", "fs_read", |b| b.bytes_copied),
        ),
        ("bufcache.hit_ratio", ratio(hits, hits + misses)),
        ("bufcache.misses", misses),
        ("bufcache.evictions", work(|w| w.cache_evictions)),
    ];
    if r.traced {
        let s = &r.spans;
        let own = self_cpu_ns(s);
        let self_pct =
            |seams: &[Seam], p| pct(of(s, seams).into_iter().map(|i| own[i]).collect(), p);
        let vt_pct = |seams: &[Seam], p| {
            pct(of(s, seams).into_iter().map(|i| s[i].vt_ns()).collect(), p) / 1e3
        };
        let count = |seams: &[Seam]| of(s, seams).len() as f64;
        let blk = [Seam::BlkRead, Seam::BlkWrite];
        v.extend([
            ("machine.disk.blk_reads", count(&[Seam::BlkRead])),
            ("machine.disk.blk_writes", count(&[Seam::BlkWrite])),
            ("machine.disk.vt_us_p50", vt_pct(&blk, 50.0)),
            ("machine.disk.vt_us_p99", vt_pct(&blk, 99.0)),
            (
                "linux-dev.netio_tx.host_self_ns_p50",
                self_pct(&[Seam::NetioTx], 50.0),
            ),
            (
                "linux-dev.netio_rx.host_self_ns_p50",
                self_pct(&[Seam::NetioRx], 50.0),
            ),
            ("linux-dev.blkio.host_self_ns_p50", self_pct(&blk, 50.0)),
            (
                "freebsd-net.socket.host_self_ns_p50",
                self_pct(&[Seam::Socket], 50.0),
            ),
            (
                "freebsd-net.socket.host_self_ns_p99",
                self_pct(&[Seam::Socket], 99.0),
            ),
            ("netbsd-fs.file.vt_us_p50", vt_pct(&[Seam::File], 50.0)),
            ("netbsd-fs.file.vt_us_p99", vt_pct(&[Seam::File], 99.0)),
            (
                "netbsd-fs.file.host_self_ns_p50",
                self_pct(&[Seam::File], 50.0),
            ),
            (
                "bench.unattributed_host_frac",
                unattributed_cpu_frac(s, (r.usage.cpu_s * 1e9) as u64),
            ),
        ]);
    }
    (v, problems)
}

/// The values one round reported.
pub struct RoundValues {
    pub traced: bool,
    pub values: Vec<(String, f64)>,
}

impl RoundValues {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// One figure of a run, with how it was obtained.
pub struct Figure {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub note: String,
}

fn med_of(rounds: &[RoundValues], traced: bool, name: &str) -> (f64, usize) {
    let xs: Vec<f64> = rounds
        .iter()
        .filter(|r| r.traced == traced)
        .filter_map(|r| r.get(name))
        .collect();
    (median(&xs), xs.len())
}

/// Combines the rounds of a run into `specs`' figures.
pub fn aggregate(specs: &[Spec], rounds: &[RoundValues]) -> Vec<Figure> {
    let first_with = |name: &str| rounds.iter().find_map(|r| r.get(name)).unwrap_or(0.0);
    specs
        .iter()
        .map(|s| {
            let (value, note) = match (s.name, s.class) {
                ("bench.trace_overhead", _) => {
                    let (t, nt) = med_of(rounds, true, "wall_s");
                    let (u, nu) = med_of(rounds, false, "wall_s");
                    (
                        ratio(t, u),
                        format!("median wall of {nt} traced / {nu} untraced rounds"),
                    )
                }
                (name, Class::Host) => {
                    let (v, n) = med_of(rounds, false, name);
                    (v, format!("host, median of {n} untraced rounds"))
                }
                (name, Class::Span) => {
                    let (v, n) = med_of(rounds, true, name);
                    (v, format!("host, median of {n} traced rounds"))
                }
                (name, Class::Exact) => {
                    let ops = first_with("ops");
                    (
                        first_with(name),
                        format!("exact in every round; {ops} ops per round"),
                    )
                }
            };
            Figure {
                name: s.name,
                unit: s.unit,
                value,
                note,
            }
        })
        .collect()
}
