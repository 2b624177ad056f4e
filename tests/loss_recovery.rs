//! Failure injection: a lossy wire forces the BSD TCP's recovery
//! machinery — retransmission timeouts, go-back, fast retransmit on
//! duplicate ACKs — to actually run, and the transfer must still be
//! byte-exact.

use oskit::freebsd_net::TcpSock;
use oskit::machine::{FaultPlan, FaultSnapshot, NicFaults, WireConfig};
use oskit::testbed::{NodeNet, Testbed, IP_B};
use oskit::NetConfig;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Native FreeBSD on both machines, `wire_a` and `wire_b` on each NIC.
fn native_pair(wire_a: WireConfig, wire_b: WireConfig) -> Testbed {
    let bsd = NodeNet::Stack(NetConfig::freebsd());
    Testbed::with_wire(bsd, bsd, wire_a, wire_b)
}

/// Which direction the wire eats frames in.
#[derive(Clone, Copy)]
enum LossDir {
    /// Data direction (a → b): recovery rides dup ACKs and RTOs.
    Data,
    /// ACK direction (b → a): data arrives, but the sender can't see it
    /// and must retransmit until an ACK survives.
    Ack,
}

/// One byte-exact transfer under loss.  `drop_every` configures the
/// periodic wire-level drop in `dir`; `plan` additionally installs a
/// seeded fault plan on the *sender's* machine.  Returns (segments sent,
/// frames dropped a-side, frames dropped b-side, sender fault ledger).
fn lossy_transfer_cfg(
    drop_every: Option<u64>,
    dir: LossDir,
    plan: Option<FaultPlan>,
    total: usize,
) -> (u64, u64, u64, FaultSnapshot) {
    let cfg = WireConfig {
        drop_every,
        ..WireConfig::default()
    };
    let tb = match dir {
        LossDir::Data => native_pair(cfg, WireConfig::default()),
        LossDir::Ack => native_pair(WireConfig::default(), cfg),
    };
    if let Some(plan) = plan {
        tb.a.machine.faults().install(plan);
    }
    let (na, nb) = (Arc::clone(&tb.a.nic), Arc::clone(&tb.b.nic));
    let nb2 = Arc::clone(tb.b.bsd());
    tb.sim.spawn("server", move || {
        let ls = TcpSock::new(&nb2);
        ls.bind(Ipv4Addr::UNSPECIFIED, 5001).unwrap();
        ls.listen(1).unwrap();
        let (conn, _) = ls.accept().unwrap();
        let mut buf = vec![0u8; 16384];
        let mut got = 0usize;
        let mut expect = 0u8;
        loop {
            let n = conn.recv(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            for &b in &buf[..n] {
                assert_eq!(b, expect, "corruption at {got} under loss");
                expect = expect.wrapping_add(1);
                got += 1;
            }
        }
        assert_eq!(got, total, "bytes lost");
        conn.close();
        let mut d = [0u8; 64];
        while conn.recv(&mut d).unwrap() != 0 {}
    });
    let na2 = Arc::clone(tb.a.bsd());
    let sent_stats = Arc::new(std::sync::Mutex::new((0u64, 0u64)));
    let ss = Arc::clone(&sent_stats);
    tb.sim.spawn("client", move || {
        let s = TcpSock::new(&na2);
        s.connect(IP_B, 5001).unwrap();
        let mut next = 0u8;
        let mut sent = 0usize;
        while sent < total {
            let n = (total - sent).min(8192);
            let data: Vec<u8> = (0..n).map(|i| next.wrapping_add(i as u8)).collect();
            let w = s.send(&data).unwrap();
            assert_eq!(w, n);
            next = next.wrapping_add(n as u8);
            sent += n;
        }
        s.close();
        let mut d = [0u8; 64];
        while s.recv(&mut d).unwrap() != 0 {}
        *ss.lock().unwrap() = s.seg_stats();
    });
    let (a, _, _) = tb.finish();
    let (tx, _) = *sent_stats.lock().unwrap();
    (tx, na.wire_dropped(), nb.wire_dropped(), a.faults)
}

/// The original shape: periodic loss on the data direction.
fn lossy_transfer(drop_every: u64, total: usize) -> (u64, u64) {
    let (tx, dropped_a, _, _) = lossy_transfer_cfg(Some(drop_every), LossDir::Data, None, total);
    (tx, dropped_a)
}

#[test]
fn survives_one_percent_loss() {
    let total = 200_000;
    let (segs_sent, dropped) = lossy_transfer(100, total);
    assert!(dropped > 0, "fault injection did not fire");
    // Every dropped segment had to be retransmitted: more segments than
    // the lossless minimum.
    let ideal = (total / 1460 + 3) as u64;
    assert!(
        segs_sent > ideal + dropped / 2,
        "too few retransmissions: sent {segs_sent}, ideal {ideal}, dropped {dropped}"
    );
}

#[test]
fn survives_heavy_ten_percent_loss() {
    // Brutal: every 10th data frame vanishes.  Correctness must hold even
    // when fast retransmit and RTO interact.
    let total = 60_000;
    let (_segs, dropped) = lossy_transfer(10, total);
    assert!(dropped >= 4);
}

#[test]
fn survives_ack_direction_loss() {
    // Loss on the *return* path: every data segment arrives, but its ACK
    // may die.  The sender, blind to the delivery, retransmits; the
    // receiver discards the duplicates.  The byte-exactness assertion
    // lives in the server loop.
    let total = 120_000;
    let (segs_sent, dropped_a, dropped_b, _) =
        lossy_transfer_cfg(Some(25), LossDir::Ack, None, total);
    assert_eq!(dropped_a, 0, "data direction must be clean");
    assert!(dropped_b > 0, "ACK-direction loss did not fire");
    // Lost ACKs force duplicate data transmissions.
    let ideal = (total / 1460 + 3) as u64;
    assert!(
        segs_sent > ideal,
        "no retransmissions despite ACK loss: sent {segs_sent}, ideal {ideal}"
    );
}

#[test]
fn survives_seeded_burst_drops() {
    // The fault substrate instead of the periodic wire hook: seeded
    // random drops arriving in bursts of three — the pattern (back-to-
    // back losses inside one window) that defeats plain fast retransmit
    // and forces the RTO path.
    let plan = FaultPlan::new(0xB0B5).nic(NicFaults {
        drop_per_mille: 8,
        burst_len: 3,
        ..NicFaults::default()
    });
    let total = 120_000;
    let (_, _, _, ledger) = lossy_transfer_cfg(None, LossDir::Data, Some(plan), total);
    assert!(
        ledger.tx_dropped >= 3,
        "burst drops did not fire: {ledger:?}"
    );
    // Replay determinism across the whole TCP recovery dance.
    let (_, _, _, ledger2) = lossy_transfer_cfg(None, LossDir::Data, Some(plan), total);
    assert_eq!(ledger, ledger2, "same seed must reproduce the ledger");
}

#[test]
fn handshake_survives_syn_loss() {
    // Drop the very first frame (the SYN): connect must retransmit it
    // after the RTO and still succeed.
    let cfg = WireConfig {
        drop_every: Some(2), // First ARP survives... every 2nd frame dies.
        ..WireConfig::default()
    };
    let tb = native_pair(cfg, WireConfig::default());
    let na = Arc::clone(&tb.a.nic);
    let nb2 = Arc::clone(tb.b.bsd());
    tb.sim.spawn("server", move || {
        let ls = TcpSock::new(&nb2);
        ls.bind(Ipv4Addr::UNSPECIFIED, 7).unwrap();
        ls.listen(1).unwrap();
        let (conn, _) = ls.accept().unwrap();
        let mut b = [0u8; 16];
        let n = conn.recv(&mut b).unwrap();
        assert_eq!(&b[..n], b"ping");
        conn.send(b"pong").unwrap();
        conn.close();
        let mut d = [0u8; 16];
        while conn.recv(&mut d).unwrap() != 0 {}
    });
    let na2 = Arc::clone(tb.a.bsd());
    tb.sim.spawn("client", move || {
        let s = TcpSock::new(&na2);
        s.connect(IP_B, 7).unwrap();
        s.send(b"ping").unwrap();
        let mut b = [0u8; 16];
        let n = s.recv(&mut b).unwrap();
        assert_eq!(&b[..n], b"pong");
        s.close();
        while s.recv(&mut b).unwrap() != 0 {}
    });
    tb.finish();
    assert!(na.wire_dropped() > 0);
}
