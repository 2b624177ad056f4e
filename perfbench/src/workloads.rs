//! The three workloads, each a closed loop over one connection with one
//! outstanding operation, built from the OSKit components' public APIs.
//!
//! A round builds a fresh testbed (set-up), runs the workload's
//! operations (the measured phase) and tears down.  Host time is split at
//! the instant the first operation starts: everything before is set-up.
//! Work counters are reset there too, so they cover the measured phase
//! and the connection teardown that follows it.

use crate::gen::{self, check_pattern, fill_pattern, pattern_byte, Req};
use crate::procfs::{Sample, Usage};
use crate::seams::{Tap, TracedBlkIo, TracedEtherDev, TracedFile, TracedSocket};
use crate::span::{Recorder, Span};
use oskit::com::interfaces::blkio::BlkIo;
use oskit::com::interfaces::fs::{Dir, FileSystem};
use oskit::com::interfaces::netio::EtherDev;
use oskit::com::interfaces::socket::{
    Domain, Shutdown, SockAddr, SockOpt, SockType, Socket, SocketFactory,
};
use oskit::com::Query;
use oskit::freebsd_net::{attach_native_if, ifconfig, open_ether_if, oskit_freebsd_net_init};
use oskit::linux_dev::linux::blkdev::IdeDrive;
use oskit::linux_dev::{LinuxBlkIo, LinuxEtherDev, NetDevice, NETIF_F_NAPI, NETIF_F_SG};
use oskit::machine::{
    Disk, Machine, Nic, Sim, SleepRecord, TraceReport, WorkSnapshot, SECTOR_SIZE,
};
use oskit::netbsd_fs::FfsFileSystem;
use oskit::osenv::OsEnv;
use std::any::Any;
use std::collections::BTreeSet;
use std::net::Ipv4Addr;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::Instant;

const MASK: Ipv4Addr = Ipv4Addr::new(255, 255, 255, 0);
const PORT: u16 = 5001;
/// Request header of `fileserve`: kind, pad, file (u16), version (u32).
const HDR: usize = 8;

/// The inputs of one workload, generated from the seed.
#[derive(Clone, Debug)]
pub enum Input {
    Stream {
        key: u64,
        writes: Vec<usize>,
    },
    Rpc {
        key: u64,
        responses: Vec<usize>,
    },
    FileServe {
        key: u64,
        input: gen::FileServeInput,
    },
}

impl Input {
    pub fn generate(workload: &str, seed: u64) -> Option<Input> {
        let key = gen::Rng::new(seed).next_u64();
        Some(match workload {
            "stream" => Input::Stream {
                key,
                writes: gen::stream_writes(seed, gen::STREAM_BYTES),
            },
            "rpc" => Input::Rpc {
                key,
                responses: gen::rpc_responses(seed, gen::RPC_ROUND_TRIPS),
            },
            "fileserve" => Input::FileServe {
                key,
                input: gen::fileserve_input(seed, gen::FS_REQUESTS),
            },
            _ => return None,
        })
    }

    pub fn ops(&self) -> usize {
        match self {
            Input::Stream { writes, .. } => writes.len(),
            Input::Rpc { responses, .. } => responses.len(),
            Input::FileServe { input, .. } => input.requests.len(),
        }
    }
}

/// What one round measured.
pub struct Round {
    pub traced: bool,
    pub setup_s: f64,
    pub usage: Usage,
    pub attempted: u64,
    pub failed: u64,
    /// Virtual latency of every operation, ns, ascending.
    pub lat_ns: Vec<u64>,
    /// Application payload bytes moved, both directions.
    pub payload_bytes: u64,
    /// Virtual duration of the measured phase, ns.
    pub vt_ns: u64,
    /// Per machine, read after `Sim::run` returned.
    pub work: Vec<WorkSnapshot>,
    pub reports: Vec<TraceReport>,
    /// Frames on the wire and frames dropped, all NICs.
    pub frames: u64,
    pub drops: u64,
    /// Violated correctness or conservation checks.
    pub problems: Vec<String>,
    pub spans: Vec<Span>,
}

impl Round {
    /// Everything that must repeat exactly from round to round and
    /// between traced and untraced rounds.
    pub fn fingerprint(&self) -> String {
        let rows: Vec<String> = self
            .reports
            .iter()
            .map(|r| format!("{:?}", r.nonzero().collect::<Vec<_>>()))
            .collect();
        format!(
            "lat={:?} bytes={} vt={} work={:?} trace={:?} frames={} drops={}",
            self.lat_ns, self.payload_bytes, self.vt_ns, self.work, rows, self.frames, self.drops
        )
    }

    /// The virtual side of a traced round's spans, which must repeat
    /// exactly from traced round to traced round: every span's seam,
    /// virtual start and end, parent and op.
    pub fn span_fingerprint(&self) -> String {
        let rows: Vec<_> = self
            .spans
            .iter()
            .map(|s| (s.seam, s.vt_start, s.vt_end, s.parent, s.op))
            .collect();
        format!("{rows:?}")
    }
}

/// One side of a testbed: a machine, its NIC and a FreeBSD stack.
struct Node {
    machine: Arc<Machine>,
    env: Arc<OsEnv>,
    nic: Arc<Nic>,
    sockets: Arc<dyn SocketFactory>,
    tap: Option<Tap>,
    _keep: Vec<Box<dyn Any + Send + Sync>>,
}

#[derive(Clone, Copy)]
enum Stack {
    /// The FreeBSD stack over the encapsulated Linux driver.
    OsKit { sg: bool, napi: bool },
    /// The FreeBSD stack on its own native driver.
    NativeFreeBsd,
}

impl Node {
    fn new(
        sim: &Arc<Sim>,
        name: &str,
        host: u8,
        stack: Stack,
        rec: Option<&Arc<Recorder>>,
    ) -> Node {
        let machine = Machine::new(sim, name, 1 << 22);
        let nic = Nic::new(&machine, [2, 0, 0, 0, 0, host]);
        let env = OsEnv::new(&machine);
        let tap = rec.map(|rec| Tap {
            rec: Arc::clone(rec),
            machine: Arc::clone(&machine),
        });
        let ip = Ipv4Addr::new(10, 0, 0, host);
        let (net, sockets) = oskit_freebsd_net_init(&env);
        let mut keep: Vec<Box<dyn Any + Send + Sync>> = Vec::new();
        match stack {
            Stack::NativeFreeBsd => {
                let ifp = attach_native_if(&net, &nic);
                ifconfig(&ifp, ip, MASK);
                keep.push(Box::new(ifp));
            }
            Stack::OsKit { sg, napi } => {
                let dev = NetDevice::new("eth0", &env, Arc::clone(&nic));
                if sg {
                    dev.set_features(NETIF_F_SG);
                }
                if napi {
                    dev.set_features(NETIF_F_NAPI);
                }
                let com = LinuxEtherDev::new(&env, &dev);
                let mut ether: Arc<dyn EtherDev> = com.query::<dyn EtherDev>().expect("etherdev");
                if let Some(tap) = &tap {
                    ether = TracedEtherDev::wrap(ether, tap);
                }
                let ifp = open_ether_if(&net, &ether).expect("open_ether_if");
                ifconfig(&ifp, ip, MASK);
                keep.push(Box::new((dev, com, ifp)));
            }
        }
        keep.push(Box::new(net));
        Node {
            machine,
            env,
            nic,
            sockets,
            tap,
            _keep: keep,
        }
    }

    fn socket(&self) -> Arc<dyn Socket> {
        let s = self
            .sockets
            .create(Domain::Inet, SockType::Stream)
            .expect("socket");
        match &self.tap {
            Some(tap) => TracedSocket::wrap(s, tap),
            None => s,
        }
    }
}

fn addr(host: u8) -> SockAddr {
    SockAddr::new(Ipv4Addr::new(10, 0, 0, host), PORT)
}

/// The measured phase's bookkeeping, shared by the harness and the
/// simulated programs.
struct Phase {
    machines: Vec<Arc<Machine>>,
    nics: Vec<Arc<Nic>>,
    rec: Option<Arc<Recorder>>,
    st: Mutex<PhaseState>,
}

#[derive(Default)]
struct PhaseState {
    start: Option<Sample>,
    end: Option<Sample>,
    vt: (u64, u64),
    wire_at_start: (u64, u64),
    lat_ns: Vec<u64>,
    failed: BTreeSet<usize>,
    /// Application bytes sent and received, toward the server (0) and
    /// back (1).
    sent: [u64; 2],
    received: [u64; 2],
    payload: u64,
}

impl Phase {
    fn new(nodes: &[&Node], rec: Option<&Arc<Recorder>>) -> Arc<Phase> {
        Arc::new(Phase {
            machines: nodes.iter().map(|n| Arc::clone(&n.machine)).collect(),
            nics: nodes.iter().map(|n| Arc::clone(&n.nic)).collect(),
            rec: rec.cloned(),
            st: Mutex::new(PhaseState::default()),
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, PhaseState> {
        self.st.lock().expect("phase lock poisoned")
    }

    fn wire(&self) -> (u64, u64) {
        let frames = self.nics.iter().map(|n| n.tx_wire()).sum();
        let drops = self
            .nics
            .iter()
            .map(|n| n.rx_dropped() + n.wire_dropped())
            .sum();
        (frames, drops)
    }

    /// Called by the program that starts the first operation, just
    /// before it.
    fn start(&self, vt: u64) {
        for m in &self.machines {
            m.meter.reset();
            m.tracer().clear();
        }
        let wire = self.wire();
        if let Some(rec) = &self.rec {
            rec.set_active(true);
        }
        let mut st = self.state();
        st.wire_at_start = wire;
        st.vt.0 = vt;
        st.start = Some(Sample::take());
    }

    /// Called when the last operation has completed.
    fn end(&self, vt: u64) {
        let sample = Sample::take();
        if let Some(rec) = &self.rec {
            rec.set_active(false);
        }
        let mut st = self.state();
        st.vt.1 = vt;
        st.end = Some(sample);
    }

    fn op(&self, i: usize) {
        if let Some(rec) = &self.rec {
            rec.set_op(i as u64);
        }
    }

    fn done(&self, lat: u64) {
        self.state().lat_ns.push(lat);
    }

    fn fail(&self, i: usize) {
        self.state().failed.insert(i);
    }
}

/// Sends all of `buf`; a zero-length send is a short transfer.
fn send_all(s: &dyn Socket, buf: &[u8]) {
    let mut sent = 0;
    while sent < buf.len() {
        let n = s.send(&buf[sent..]).expect("send");
        assert!(n > 0, "short send");
        sent += n;
    }
}

/// Receives exactly `buf.len()` bytes; end of stream first is a short
/// transfer.
fn recv_exact(s: &dyn Socket, buf: &mut [u8]) {
    let mut got = 0;
    while got < buf.len() {
        let n = s.recv(&mut buf[got..]).expect("recv");
        assert!(n > 0, "short receive: {got} of {} bytes", buf.len());
        got += n;
    }
}

/// Closes the sending side and waits for the peer to close too.
fn finish(s: &dyn Socket) {
    s.shutdown(Shutdown::Both).expect("shutdown");
    let mut d = [0u8; 256];
    while s.recv(&mut d).unwrap_or(0) != 0 {}
}

/// Runs one round of `input`, traced when `rec` is given.
pub fn run_round(input: &Input, rec: Option<Arc<Recorder>>) -> Round {
    let t0 = Instant::now();
    let sim = Sim::new();
    sim.set_time_limit(10_000_000_000_000);
    let (nodes, phase) = match input {
        Input::Stream { key, writes } => stream(&sim, *key, writes, rec.as_ref()),
        Input::Rpc { key, responses } => rpc(&sim, *key, responses, rec.as_ref()),
        Input::FileServe { key, input } => fileserve(&sim, *key, input, rec.as_ref()),
    };
    let outcome = catch_unwind(AssertUnwindSafe(|| sim.run()));
    let attempted = input.ops() as u64;
    let mut st = std::mem::take(&mut *phase.state());
    let mut problems = Vec::new();
    if let Err(p) = &outcome {
        let msg = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        problems.push(format!("run panicked: {msg}"));
    }
    let (frames, drops) = phase.wire();
    let work: Vec<WorkSnapshot> = nodes.iter().map(|n| n.machine.meter.snapshot()).collect();
    let reports: Vec<TraceReport> = nodes.iter().map(|n| n.machine.tracer().metrics()).collect();
    if outcome.is_ok() {
        problems.extend(conservation(&st, &work, &reports, attempted));
    }
    let failed = if outcome.is_err() {
        attempted
    } else {
        st.failed.len() as u64
    };
    st.lat_ns.sort_unstable();
    let (start, end) = (st.start.take(), st.end.take());
    let (setup_s, usage) = match (&start, &end) {
        (Some(a), Some(b)) => (a.at.duration_since(t0).as_secs_f64(), Usage::between(a, b)),
        _ => (0.0, Usage::default()),
    };
    Round {
        traced: rec.is_some(),
        setup_s,
        usage,
        attempted,
        failed,
        lat_ns: st.lat_ns,
        payload_bytes: st.payload,
        vt_ns: st.vt.1.saturating_sub(st.vt.0),
        work,
        reports,
        frames: frames - st.wire_at_start.0,
        drops: drops - st.wire_at_start.1,
        problems,
        spans: rec.map(|r| r.take()).unwrap_or_default(),
    }
}

/// Per-run checks beyond the per-byte ones the programs make.
fn conservation(
    st: &PhaseState,
    work: &[WorkSnapshot],
    reports: &[TraceReport],
    ops: u64,
) -> Vec<String> {
    let mut out = Vec::new();
    if st.lat_ns.len() as u64 != ops {
        out.push(format!("{} of {ops} operations completed", st.lat_ns.len()));
    }
    for dir in 0..2 {
        if st.sent[dir] != st.received[dir] {
            out.push(format!(
                "direction {dir}: bytes sent {} != bytes received {}",
                st.sent[dir], st.received[dir]
            ));
        }
    }
    if st.start.is_none() || st.end.is_none() {
        out.push("measured phase did not start and end".into());
    }
    if oskit::machine::Tracer::enabled() {
        for (i, (w, r)) in work.iter().zip(reports).enumerate() {
            let sum = |f: fn(&oskit::machine::BoundaryMetrics) -> u64| {
                r.boundaries.iter().map(f).sum::<u64>()
            };
            let pairs = [
                ("bytes_copied", sum(|b| b.bytes_copied), w.bytes_copied),
                ("copies", sum(|b| b.copies), w.copies),
                ("crossings", sum(|b| b.crossings), w.crossings),
                (
                    "bytes_gathered",
                    sum(|b| b.bytes_gathered),
                    w.bytes_gathered,
                ),
                ("gathers", sum(|b| b.gathers), w.gathers),
                ("cache_hits", sum(|b| b.cache_hits), w.cache_hits),
                ("cache_misses", sum(|b| b.cache_misses), w.cache_misses),
                (
                    "cache_evictions",
                    sum(|b| b.cache_evictions),
                    w.cache_evictions,
                ),
            ];
            for (name, per_boundary, aggregate) in pairs {
                if per_boundary != aggregate {
                    out.push(format!(
                        "machine {i}: per-boundary {name} {per_boundary} != WorkSnapshot {aggregate}"
                    ));
                }
            }
        }
    }
    out
}

/// `stream`: bulk TCP between two paper-configuration OSKit machines.
fn stream(
    sim: &Arc<Sim>,
    key: u64,
    writes: &[usize],
    rec: Option<&Arc<Recorder>>,
) -> (Vec<Node>, Arc<Phase>) {
    let paper = Stack::OsKit {
        sg: false,
        napi: false,
    };
    let a = Node::new(sim, "sender", 1, paper, rec);
    let b = Node::new(sim, "receiver", 2, paper, rec);
    let phase = Phase::new(&[&a, &b], rec);
    let total: usize = writes.iter().sum();
    // Offsets where each write ends, to name the write a bad byte is in.
    let ends: Vec<usize> = writes
        .iter()
        .scan(0, |off, &n| {
            *off += n;
            Some(*off)
        })
        .collect();

    let listener = b.socket();
    let (ph, mb) = (Arc::clone(&phase), Arc::clone(&b.machine));
    sim.spawn("stream-rx", move || {
        listener.bind(SockAddr::any(PORT)).expect("bind");
        listener.listen(1).expect("listen");
        let (conn, _) = listener.accept().expect("accept");
        let mut buf = vec![0u8; 64 * 1024];
        let mut got = 0usize;
        loop {
            let n = conn.recv(&mut buf).expect("recv");
            if n == 0 {
                break;
            }
            if !check_pattern(key, got as u64, &buf[..n]) {
                for (i, &byte) in buf[..n].iter().enumerate() {
                    let off = got + i;
                    if byte != pattern_byte(key, off as u64) {
                        ph.fail(ends.partition_point(|&e| e <= off));
                    }
                }
            }
            got += n;
            if got == total {
                ph.end(mb.cpu_now());
            }
        }
        ph.state().received[0] = got as u64;
        finish(&*conn);
    });

    let sock = a.socket();
    let (ph, ma, writes) = (Arc::clone(&phase), Arc::clone(&a.machine), writes.to_vec());
    sim.spawn("stream-tx", move || {
        sock.connect(addr(2)).expect("connect");
        ph.start(ma.cpu_now());
        let mut buf = vec![0u8; writes.iter().copied().max().unwrap_or(0)];
        let mut off = 0u64;
        for (i, &n) in writes.iter().enumerate() {
            ph.op(i);
            fill_pattern(key, off, &mut buf[..n]);
            let t = ma.cpu_now();
            send_all(&*sock, &buf[..n]);
            ph.done(ma.cpu_now() - t);
            off += n as u64;
        }
        {
            let mut st = ph.state();
            st.sent[0] = off;
            st.payload = off;
        }
        finish(&*sock);
    });
    wire_up(&a, &b);
    (vec![a, b], phase)
}

/// `rpc`: 1-byte requests, seeded response sizes, between two
/// paper-configuration OSKit machines.
fn rpc(
    sim: &Arc<Sim>,
    key: u64,
    responses: &[usize],
    rec: Option<&Arc<Recorder>>,
) -> (Vec<Node>, Arc<Phase>) {
    let paper = Stack::OsKit {
        sg: false,
        napi: false,
    };
    let a = Node::new(sim, "client", 1, paper, rec);
    let b = Node::new(sim, "server", 2, paper, rec);
    let phase = Phase::new(&[&a, &b], rec);

    let listener = b.socket();
    let (ph, sizes) = (Arc::clone(&phase), responses.to_vec());
    sim.spawn("rpc-server", move || {
        listener.bind(SockAddr::any(PORT)).expect("bind");
        listener.listen(1).expect("listen");
        let (conn, _) = listener.accept().expect("accept");
        conn.setsockopt(SockOpt::NoDelay(true)).expect("nodelay");
        let mut resp = vec![0u8; gen::RPC_MAX_RESPONSE];
        let (mut got, mut sent) = (0u64, 0u64);
        for (i, &n) in sizes.iter().enumerate() {
            let mut req = [0u8; 1];
            recv_exact(&*conn, &mut req);
            got += 1;
            if req[0] != pattern_byte(key, i as u64) {
                ph.fail(i);
            }
            fill_pattern(key ^ i as u64, 0, &mut resp[..n]);
            send_all(&*conn, &resp[..n]);
            sent += n as u64;
        }
        {
            let mut st = ph.state();
            st.received[0] = got;
            st.sent[1] = sent;
        }
        finish(&*conn);
    });

    let sock = a.socket();
    let (ph, ma, sizes) = (
        Arc::clone(&phase),
        Arc::clone(&a.machine),
        responses.to_vec(),
    );
    sim.spawn("rpc-client", move || {
        sock.connect(addr(2)).expect("connect");
        sock.setsockopt(SockOpt::NoDelay(true)).expect("nodelay");
        ph.start(ma.cpu_now());
        let mut resp = vec![0u8; gen::RPC_MAX_RESPONSE];
        let (mut got, mut sent) = (0u64, 0u64);
        for (i, &n) in sizes.iter().enumerate() {
            ph.op(i);
            let t = ma.cpu_now();
            send_all(&*sock, &[pattern_byte(key, i as u64)]);
            recv_exact(&*sock, &mut resp[..n]);
            ph.done(ma.cpu_now() - t);
            if !check_pattern(key ^ i as u64, 0, &resp[..n]) {
                ph.fail(i);
            }
            sent += 1;
            got += n as u64;
        }
        ph.end(ma.cpu_now());
        {
            let mut st = ph.state();
            st.sent[0] = sent;
            st.received[1] = got;
            st.payload = sent + got;
        }
        finish(&*sock);
    });
    wire_up(&a, &b);
    (vec![a, b], phase)
}

fn file_key(key: u64, file: usize, version: u32) -> u64 {
    key ^ ((file as u64) << 40) ^ (u64::from(version) << 8)
}

fn file_name(file: usize) -> String {
    format!("f{file}")
}

/// `fileserve`: an OSKit server (SG + NAPI driver) serves files off an
/// FFS volume on an IDE disk to a native-FreeBSD client over one
/// persistent connection.
fn fileserve(
    sim: &Arc<Sim>,
    key: u64,
    input: &gen::FileServeInput,
    rec: Option<&Arc<Recorder>>,
) -> (Vec<Node>, Arc<Phase>) {
    let c = Node::new(sim, "client", 1, Stack::NativeFreeBsd, rec);
    let s = Node::new(
        sim,
        "server",
        2,
        Stack::OsKit {
            sg: true,
            napi: true,
        },
        rec,
    );
    let phase = Phase::new(&[&c, &s], rec);

    // The volume: the files plus room for metadata and PUT rewrites.
    let volume: usize = input.sizes.iter().sum();
    let disk = Disk::new(&s.machine, volume / SECTOR_SIZE + 16384);
    let drive = IdeDrive::new("hda", &s.env, disk);
    let mut blkio = LinuxBlkIo::new(&s.env, &drive) as Arc<dyn BlkIo>;
    if let Some(tap) = &s.tap {
        blkio = TracedBlkIo::wrap(blkio, tap);
    }
    let ready = Arc::new(SleepRecord::new());

    let listener = s.socket();
    let (ph, env, tap) = (Arc::clone(&phase), Arc::clone(&s.env), s.tap.clone());
    let (sim_s, ready_s, sizes) = (Arc::clone(sim), Arc::clone(&ready), input.sizes.clone());
    sim.spawn("fileserve-server", move || {
        let _keep = drive;
        FfsFileSystem::mkfs(&blkio).expect("mkfs");
        {
            let fs = FfsFileSystem::mount_on(&env, &blkio).expect("mount");
            let root = fs.getroot().expect("root");
            for (i, &n) in sizes.iter().enumerate() {
                let f = root.create(&file_name(i), true, 0o644).expect("create");
                let mut data = vec![0u8; n];
                fill_pattern(file_key(key, i, 0), 0, &mut data);
                let mut off = 0;
                while off < n {
                    off += f.write_at(&data[off..], off as u64).expect("populate");
                }
            }
            FileSystem::sync(&*fs).expect("sync");
            fs.unmount().expect("unmount");
        }
        // Remounted, the cache starts cold.
        let fs = FfsFileSystem::mount_on(&env, &blkio).expect("remount");
        let mut root: Arc<dyn Dir> = fs.getroot().expect("root");
        if let Some(tap) = &tap {
            root = TracedFile::dir(root, tap);
        }
        listener.bind(SockAddr::any(PORT)).expect("bind");
        listener.listen(1).expect("listen");
        ready_s.signal(&sim_s);
        let (conn, _) = listener.accept().expect("accept");
        conn.setsockopt(SockOpt::NoDelay(true)).expect("nodelay");
        let mut buf = vec![0u8; 64 * 1024];
        let (mut got, mut sent) = (0u64, 0u64);
        for i in 0.. {
            let mut hdr = [0u8; HDR];
            if conn.recv(&mut hdr[..1]).expect("recv") == 0 {
                break;
            }
            recv_exact(&*conn, &mut hdr[1..]);
            let file = usize::from(u16::from_le_bytes([hdr[2], hdr[3]]));
            let version = u32::from_le_bytes([hdr[4], hdr[5], hdr[6], hdr[7]]);
            let n = sizes[file];
            let f = root.lookup(&file_name(file)).expect("lookup");
            if hdr[0] == 0 {
                let out = f.send_on(&*conn, 0, n as u64).expect("send_on");
                assert_eq!(out, n as u64, "short send_on");
                sent += out;
            } else {
                let mut off = 0;
                while off < n {
                    let len = (n - off).min(buf.len());
                    recv_exact(&*conn, &mut buf[..len]);
                    if !check_pattern(file_key(key, file, version), off as u64, &buf[..len]) {
                        ph.fail(i);
                    }
                    let mut w = 0;
                    while w < len {
                        w += f
                            .write_at(&buf[w..len], (off + w) as u64)
                            .expect("write_at");
                    }
                    off += len;
                }
                got += n as u64;
                send_all(&*conn, &[1]);
            }
        }
        {
            let mut st = ph.state();
            st.received[0] = got;
            st.sent[1] = sent;
        }
        finish(&*conn);
    });

    let sock = c.socket();
    let (ph, mc, sim_c) = (Arc::clone(&phase), Arc::clone(&c.machine), Arc::clone(sim));
    let input = input.clone();
    sim.spawn("fileserve-client", move || {
        ready.wait(&sim_c);
        sock.connect(addr(2)).expect("connect");
        sock.setsockopt(SockOpt::NoDelay(true)).expect("nodelay");
        ph.start(mc.cpu_now());
        let mut versions = vec![0u32; input.sizes.len()];
        let mut buf = vec![0u8; 64 * 1024];
        let (mut got, mut sent) = (0u64, 0u64);
        for (i, &req) in input.requests.iter().enumerate() {
            ph.op(i);
            let t = mc.cpu_now();
            let (kind, file) = match req {
                Req::Get(f) => (0u8, f),
                Req::Put(f) => (1u8, f),
            };
            if kind == 1 {
                versions[file] += 1;
            }
            let mut hdr = [kind, 0, 0, 0, 0, 0, 0, 0];
            hdr[2..4].copy_from_slice(&(file as u16).to_le_bytes());
            hdr[4..8].copy_from_slice(&versions[file].to_le_bytes());
            send_all(&*sock, &hdr);
            let (n, fkey) = (input.sizes[file], file_key(key, file, versions[file]));
            let mut off = 0;
            while off < n {
                let len = (n - off).min(buf.len());
                if kind == 0 {
                    recv_exact(&*sock, &mut buf[..len]);
                    if !check_pattern(fkey, off as u64, &buf[..len]) {
                        ph.fail(i);
                    }
                    got += len as u64;
                } else {
                    fill_pattern(fkey, off as u64, &mut buf[..len]);
                    send_all(&*sock, &buf[..len]);
                    sent += len as u64;
                }
                off += len;
            }
            if kind == 1 {
                recv_exact(&*sock, &mut buf[..1]);
                if buf[0] != 1 {
                    ph.fail(i);
                }
            }
            ph.done(mc.cpu_now() - t);
        }
        ph.end(mc.cpu_now());
        {
            let mut st = ph.state();
            st.sent[0] = sent;
            st.received[1] = got;
            st.payload = sent + got;
        }
        finish(&*sock);
    });
    wire_up(&c, &s);
    (vec![c, s], phase)
}

/// Cables the two NICs together and lets the machines take interrupts.
fn wire_up(a: &Node, b: &Node) {
    Nic::connect(&a.nic, &b.nic);
    a.machine.irq.enable();
    b.machine.irq.enable();
}
