//! In-memory spans recorded at the COM seams of a traced run.

use std::cell::RefCell;
use std::io::Write;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// The COM seams the traced run interposes on.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Seam {
    /// `Socket`: application ↔ freebsd-net.
    Socket,
    /// `EtherDev`: freebsd-net ↔ linux-dev, device open.
    EtherDev,
    /// Transmit `NetIo`: freebsd-net → linux-dev.
    NetioTx,
    /// Receive `NetIo`: linux-dev → freebsd-net.
    NetioRx,
    /// `BlkIo`: netbsd-fs/bufcache → linux-dev blkdev, reads.
    BlkRead,
    /// `BlkIo`, writes.
    BlkWrite,
    /// `File`/`Dir`: application ↔ netbsd-fs.
    File,
}

impl Seam {
    pub fn name(self) -> &'static str {
        match self {
            Seam::Socket => "socket",
            Seam::EtherDev => "etherdev",
            Seam::NetioTx => "netio_tx",
            Seam::NetioRx => "netio_rx",
            Seam::BlkRead => "blkio_read",
            Seam::BlkWrite => "blkio_write",
            Seam::File => "file",
        }
    }
}

/// One call across a seam.  Host times are ns since the recorder's
/// epoch; CPU times are the host thread's own CPU clock, so they stop
/// while the thread is parked waiting for the run token; virtual times
/// are the calling machine's `cpu_now`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub seam: Seam,
    pub host_start: u64,
    pub host_end: u64,
    pub cpu_start: u64,
    pub cpu_end: u64,
    pub vt_start: u64,
    pub vt_end: u64,
    /// The innermost span open on the same host thread when this one
    /// began.
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn cpu_ns(&self) -> u64 {
        self.cpu_end.saturating_sub(self.cpu_start)
    }

    pub fn vt_ns(&self) -> u64 {
        self.vt_end.saturating_sub(self.vt_start)
    }
}

/// CPU time the calling thread has consumed, ns
/// (`CLOCK_THREAD_CPUTIME_ID`, the clock behind
/// `/proc/thread-self/schedstat`).
pub fn thread_cpu_ns() -> u64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable timespec for the duration of the
    // call, laid out as the C ABI of the 64-bit Linux targets expects.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    if rc != 0 {
        return 0;
    }
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

static NEXT_RECORDER: AtomicU64 = AtomicU64::new(1);

thread_local! {
    /// Open spans on this host thread: (recorder id, span index).
    static OPEN: RefCell<Vec<(u64, usize)>> = const { RefCell::new(Vec::new()) };
}

/// Collects spans while active.  The simulator's run token serializes
/// every simulated thread, so the lock is never contended.
pub struct Recorder {
    id: u64,
    epoch: Instant,
    active: AtomicBool,
    op: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder {
            id: NEXT_RECORDER.fetch_add(1, Ordering::Relaxed),
            epoch: Instant::now(),
            active: AtomicBool::new(false),
            op: AtomicU64::new(0),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Recorder {
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Starts or stops recording; spans are kept for the measured phase
    /// only.
    pub fn set_active(&self, on: bool) {
        self.active.store(on, Ordering::Relaxed);
    }

    /// Tags the spans that follow with operation `op`.
    pub fn set_op(&self, op: u64) {
        self.op.store(op, Ordering::Relaxed);
    }

    /// Opens a span at virtual time `vt`; close it with [`Open::close`].
    pub fn open(&self, seam: Seam, vt: u64) -> Open<'_> {
        if !self.active.load(Ordering::Relaxed) {
            return Open {
                rec: self,
                idx: None,
            };
        }
        let parent = OPEN.with(|o| o.borrow().last().filter(|e| e.0 == self.id).map(|e| e.1));
        let mut spans = self.spans.lock().expect("span lock poisoned");
        let idx = spans.len();
        let now = self.now_ns();
        let cpu = thread_cpu_ns();
        spans.push(Span {
            seam,
            host_start: now,
            host_end: now,
            cpu_start: cpu,
            cpu_end: cpu,
            vt_start: vt,
            vt_end: vt,
            parent,
            op: self.op.load(Ordering::Relaxed),
        });
        drop(spans);
        OPEN.with(|o| o.borrow_mut().push((self.id, idx)));
        Open {
            rec: self,
            idx: Some(idx),
        }
    }

    pub fn take(&self) -> Vec<Span> {
        std::mem::take(&mut *self.spans.lock().expect("span lock poisoned"))
    }
}

/// An open span.  Closing it records its end; dropping it unclosed (a
/// panic unwinding through the seam) still pops it off the thread's
/// stack, with its end left at its start.
pub struct Open<'a> {
    rec: &'a Recorder,
    idx: Option<usize>,
}

impl Open<'_> {
    pub fn close(mut self, vt: u64) {
        if let Some(idx) = self.idx {
            let now = self.rec.now_ns();
            let cpu = thread_cpu_ns();
            let mut spans = self.rec.spans.lock().expect("span lock poisoned");
            spans[idx].host_end = now;
            spans[idx].cpu_end = cpu;
            spans[idx].vt_end = vt;
        }
        self.pop();
    }

    fn pop(&mut self) {
        if let Some(idx) = self.idx.take() {
            OPEN.with(|o| {
                let mut o = o.borrow_mut();
                if let Some(pos) = o.iter().rposition(|&e| e == (self.rec.id, idx)) {
                    o.remove(pos);
                }
            });
        }
    }
}

impl Drop for Open<'_> {
    fn drop(&mut self) {
        self.pop();
    }
}

/// Self time of every span: the CPU its host thread spent inside it,
/// minus the part its child spans cover.  Children run on the parent's
/// thread, one after another, so their CPU time is part of the parent's
/// and does not overlap.  Time the thread spends parked, while another
/// thread holds the run token, is on no thread's CPU clock.
pub fn self_cpu_ns(spans: &[Span]) -> Vec<u64> {
    let mut child = vec![0u64; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child[p] += s.cpu_ns();
        }
    }
    spans
        .iter()
        .zip(child)
        .map(|(s, c)| s.cpu_ns().saturating_sub(c))
        .collect()
}

/// Share of `total_cpu_ns`, the CPU all threads spent in the measured
/// phase, that no span covers.  A root span's CPU time includes its
/// children's, and root spans never overlap on one thread's clock, so
/// the covered CPU is the sum over root spans.
pub fn unattributed_cpu_frac(spans: &[Span], total_cpu_ns: u64) -> f64 {
    if total_cpu_ns == 0 {
        return 0.0;
    }
    let covered: u64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(Span::cpu_ns)
        .sum();
    total_cpu_ns.saturating_sub(covered) as f64 / total_cpu_ns as f64
}

/// Writes spans as tab-separated lines, one per span.
pub fn write_tsv(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        w,
        "id\tseam\thost_start_ns\thost_end_ns\tcpu_start_ns\tcpu_end_ns\tvt_start_ns\tvt_end_ns\tparent\top"
    )?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{i}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{parent}\t{}",
            s.seam.name(),
            s.host_start,
            s.host_end,
            s.cpu_start,
            s.cpu_end,
            s.vt_start,
            s.vt_end,
            s.op
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A span whose thread was on the CPU for `[cpu_start, cpu_end)` of
    /// its own clock, over ten times as long a stretch of wall time.
    fn span(seam: Seam, cpu_start: u64, cpu_end: u64, parent: Option<usize>) -> Span {
        Span {
            seam,
            host_start: 10 * cpu_start,
            host_end: 10 * cpu_end,
            cpu_start,
            cpu_end,
            vt_start: 0,
            vt_end: 0,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // socket [0,100) ⊃ netio_tx [10,40) ⊃ netio_rx [20,30);
        //                  netio_tx [50,60)
        let spans = [
            span(Seam::Socket, 0, 100, None),
            span(Seam::NetioTx, 10, 40, Some(0)),
            span(Seam::NetioRx, 20, 30, Some(1)),
            span(Seam::NetioTx, 50, 60, Some(0)),
        ];
        assert_eq!(self_cpu_ns(&spans), vec![60, 20, 10, 10]);
        // Self times add up to the root's CPU time, not its wall time.
        assert_eq!(self_cpu_ns(&spans).iter().sum::<u64>(), 100);
        assert_eq!(spans[0].host_end - spans[0].host_start, 1000);
    }

    #[test]
    fn unattributed_counts_root_spans_once() {
        // Two threads' roots, one with a child: 30 + 20 of 200 ns covered.
        let spans = [
            span(Seam::Socket, 10, 40, None),
            span(Seam::NetioTx, 20, 30, Some(0)),
            span(Seam::File, 1000, 1020, None),
        ];
        assert_eq!(unattributed_cpu_frac(&spans, 200), 0.75);
        assert_eq!(unattributed_cpu_frac(&[], 200), 1.0);
        assert_eq!(unattributed_cpu_frac(&spans, 0), 0.0);
        // Spans that close after the phase can cover more than it had.
        assert_eq!(unattributed_cpu_frac(&spans, 40), 0.0);
    }

    #[test]
    fn a_parked_thread_spends_no_cpu_in_its_span() {
        let rec = Recorder::default();
        rec.set_active(true);
        rec.open(Seam::Socket, 0).close(0);
        let open = rec.open(Seam::Socket, 0);
        std::thread::sleep(std::time::Duration::from_millis(30));
        open.close(0);
        let s = rec.take()[1];
        let wall = s.host_end - s.host_start;
        assert!(wall >= 30_000_000);
        assert!(s.cpu_ns() < wall / 3, "{s:?}");
    }

    #[test]
    fn recorder_links_parents_per_thread_and_only_while_active() {
        let rec = Recorder::default();
        rec.open(Seam::File, 0).close(1);
        assert!(rec.take().is_empty(), "inactive recorder keeps nothing");
        rec.set_active(true);
        rec.set_op(7);
        let outer = rec.open(Seam::Socket, 100);
        let inner = rec.open(Seam::NetioTx, 110);
        std::thread::scope(|s| {
            s.spawn(|| rec.open(Seam::NetioRx, 0).close(0));
        });
        inner.close(120);
        rec.open(Seam::NetioTx, 130).close(140);
        outer.close(150);
        let spans = rec.take();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(
            spans[2].parent, None,
            "another thread's span has no parent here"
        );
        assert_eq!(spans[3].parent, Some(0));
        assert_eq!((spans[1].vt_start, spans[1].vt_end), (110, 120));
        assert!(spans.iter().all(|s| s.op == 7));
    }
}
