//! End-to-end tests of the FreeBSD stack over the simulated testbed, in
//! both the monolithic-native configuration (the paper's "FreeBSD" row)
//! and the OSKit configuration (FreeBSD stack + encapsulated Linux driver,
//! the paper's headline combination).

use oskit::freebsd_net::{TcpSock, UdpSock};
use oskit::testbed::{NodeNet, NodeReport, Testbed, IP_A, IP_B};
use oskit::NetConfig;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Builds a two-machine testbed running `cfg` on both sides.
fn pair(cfg: NetConfig) -> Testbed {
    Testbed::new(NodeNet::Stack(cfg), NodeNet::Stack(cfg))
}

/// Runs a bulk transfer of `total` bytes from a → b to completion.
fn bulk_transfer(tb: Testbed, total: usize) -> (NodeReport, NodeReport) {
    let server = TcpSock::new(tb.b.bsd());
    server.bind(Ipv4Addr::UNSPECIFIED, 5001).unwrap();
    tb.sim.spawn("server", move || {
        server.listen(5).unwrap();
        let (conn, peer) = server.accept().unwrap();
        assert_eq!(peer.0, IP_A);
        let mut buf = vec![0u8; 16384];
        let mut got = 0usize;
        let mut expect = 0u8;
        loop {
            let n = conn.recv(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            for &byte in &buf[..n] {
                assert_eq!(byte, expect, "corruption at offset {got}");
                expect = expect.wrapping_add(1);
                got += 1;
            }
        }
        assert_eq!(got, total);
        conn.close();
    });
    let client_net = Arc::clone(tb.a.bsd());
    tb.sim.spawn("client", move || {
        let sock = TcpSock::new(&client_net);
        sock.connect(IP_B, 5001).unwrap();
        let mut sent = 0usize;
        let mut next = 0u8;
        while sent < total {
            let n = (total - sent).min(16384);
            // Keep the rolling byte pattern aligned.
            let data: Vec<u8> = (0..n).map(|i| next.wrapping_add(i as u8)).collect();
            let w = sock.send(&data).unwrap();
            assert_eq!(w, n);
            next = next.wrapping_add(n as u8);
            sent += n;
        }
        sock.close();
        // Drain the peer's close.
        let mut b = [0u8; 64];
        while sock.recv(&mut b).unwrap() != 0 {}
    });
    tb.finish()
}

#[test]
fn native_bulk_transfer_delivers_exact_bytes() {
    let (a, b) = bulk_transfer(pair(NetConfig::freebsd()), 300_000);
    // The native configuration never crosses a component boundary.
    assert_eq!(a.work.crossings, 0);
    assert_eq!(b.work.crossings, 0);
}

#[test]
fn oskit_bulk_transfer_delivers_exact_bytes() {
    let (a, b) = bulk_transfer(pair(NetConfig::oskit()), 300_000);
    let (am, bm) = (a.work, b.work);
    // The OSKit configuration pays glue crossings on both sides.
    assert!(am.crossings > 0, "sender saw no crossings");
    assert!(bm.crossings > 0, "receiver saw no crossings");
    // §5: the *send* path pays the mbuf→skbuff copy for bulk data; the
    // receive path wraps skbuffs as mbuf clusters with no copy.  The copy
    // accounting below ignores the unavoidable user↔kernel copies that
    // every configuration pays, by comparing against the native run.
    let (na, nb) = bulk_transfer(pair(NetConfig::freebsd()), 300_000);
    let (nam, nbm) = (na.work, nb.work);
    assert!(
        am.bytes_copied > nam.bytes_copied + 250_000,
        "send path should pay ~one extra copy of the payload: oskit={} native={}",
        am.bytes_copied,
        nam.bytes_copied
    );
    let extra_rx = bm.bytes_copied as i64 - nbm.bytes_copied as i64;
    assert!(
        extra_rx.abs() < 50_000,
        "receive path should pay no significant extra copies, got {extra_rx}"
    );
}

#[test]
fn oskit_napi_bulk_transfer_batches_and_stays_zero_copy() {
    let (_, b) = bulk_transfer(pair(NetConfig::oskit().napi(true)), 300_000);
    let bm = b.work;
    // Interrupt mitigation actually mitigated: the receiver took strictly
    // fewer rx interrupts than it received frames, and every frame came
    // up through a budgeted poll.
    assert!(bm.packets_received > 0);
    assert!(
        bm.rx_irqs < bm.packets_received,
        "rx_irqs {} !< frames {}",
        bm.rx_irqs,
        bm.packets_received
    );
    assert!(bm.rx_polls > 0);
    assert_eq!(bm.rx_batch_frames, bm.packets_received);
    // Batched delivery must not cost the receive path its zero-copy
    // skbuff→mbuf wrap: same copy budget as the interrupt-per-frame
    // OSKit configuration.
    let (_, cb) = bulk_transfer(pair(NetConfig::oskit()), 300_000);
    let cbm = cb.work;
    let extra_rx = bm.bytes_copied as i64 - cbm.bytes_copied as i64;
    assert!(
        extra_rx.abs() < 50_000,
        "batched receive should add no copies, got {extra_rx}"
    );
}

#[test]
fn connect_to_dead_port_times_out() {
    let tb = pair(NetConfig::freebsd());
    let net = Arc::clone(tb.a.bsd());
    tb.sim.spawn("client", move || {
        let sock = TcpSock::new(&net);
        let err = sock.connect(IP_B, 9999).unwrap_err();
        assert_eq!(err, oskit::com::Error::TimedOut);
    });
    tb.finish();
}

#[test]
fn udp_datagram_round_trip() {
    let tb = pair(NetConfig::freebsd());
    let net_b = Arc::clone(tb.b.bsd());
    tb.sim.spawn("server", move || {
        let sock = UdpSock::new(&net_b);
        sock.bind(Ipv4Addr::UNSPECIFIED, 7).unwrap();
        let mut buf = [0u8; 2048];
        let (n, (src, sport)) = sock.recvfrom(&mut buf).unwrap();
        assert_eq!(src, IP_A);
        // Echo it back.
        sock.sendto(&buf[..n], src, sport).unwrap();
    });
    let net_a = Arc::clone(tb.a.bsd());
    tb.sim.spawn("client", move || {
        let sock = UdpSock::new(&net_a);
        sock.bind(Ipv4Addr::UNSPECIFIED, 0).unwrap();
        sock.sendto(b"echo me", IP_B, 7).unwrap();
        let mut buf = [0u8; 64];
        let (n, (src, _)) = sock.recvfrom(&mut buf).unwrap();
        assert_eq!(src, IP_B);
        assert_eq!(&buf[..n], b"echo me");
    });
    tb.finish();
}

#[test]
fn many_concurrent_connections() {
    let tb = pair(NetConfig::freebsd());
    let server_net = Arc::clone(tb.b.bsd());
    tb.sim.spawn("server", move || {
        let ls = TcpSock::new(&server_net);
        ls.bind(Ipv4Addr::UNSPECIFIED, 80).unwrap();
        ls.listen(8).unwrap();
        for _ in 0..5 {
            let (conn, _) = ls.accept().unwrap();
            let mut buf = [0u8; 256];
            let n = conn.recv(&mut buf).unwrap();
            conn.send(&buf[..n]).unwrap();
            conn.close();
            let mut d = [0u8; 64];
            while conn.recv(&mut d).unwrap() != 0 {}
        }
    });
    for i in 0..5u8 {
        let net = Arc::clone(tb.a.bsd());
        tb.sim.spawn(format!("client{i}"), move || {
            let sock = TcpSock::new(&net);
            sock.connect(IP_B, 80).unwrap();
            let msg = vec![i; 32];
            sock.send(&msg).unwrap();
            let mut buf = [0u8; 64];
            let n = sock.recv(&mut buf).unwrap();
            assert_eq!(&buf[..n], &msg[..]);
            sock.close();
            while sock.recv(&mut buf).unwrap() != 0 {}
        });
    }
    tb.finish();
}

#[test]
fn nagle_coalesces_small_writes() {
    let tb = pair(NetConfig::freebsd());
    let server_net = Arc::clone(tb.b.bsd());
    tb.sim.spawn("server", move || {
        let ls = TcpSock::new(&server_net);
        ls.bind(Ipv4Addr::UNSPECIFIED, 80).unwrap();
        ls.listen(1).unwrap();
        let (conn, _) = ls.accept().unwrap();
        let mut buf = [0u8; 4096];
        let mut got = 0;
        while got < 1000 {
            let n = conn.recv(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            got += n;
        }
        assert_eq!(got, 1000);
        conn.close();
        let mut d = [0u8; 64];
        while conn.recv(&mut d).unwrap() != 0 {}
    });
    let net = Arc::clone(tb.a.bsd());
    tb.sim.spawn("client", move || {
        let sock = TcpSock::new(&net);
        sock.connect(IP_B, 80).unwrap();
        // 100 ten-byte writes: Nagle must coalesce most into far fewer
        // segments than 100.
        for _ in 0..100 {
            sock.send(&[0x42; 10]).unwrap();
        }
        let (sent, _) = sock.seg_stats();
        assert!(
            sent < 60,
            "Nagle should coalesce 100 tiny writes, sent {sent} segments"
        );
        sock.close();
        let mut buf = [0u8; 64];
        while sock.recv(&mut buf).unwrap() != 0 {}
    });
    tb.finish();
}

#[test]
fn icmp_ping_round_trip() {
    let tb = pair(NetConfig::freebsd());
    let net = Arc::clone(tb.a.bsd());
    tb.sim.spawn("pinger", move || {
        assert!(net.ping(IP_B, 1_000_000_000), "peer should answer echo");
        assert!(
            !net.ping(Ipv4Addr::new(10, 0, 0, 99), 50_000_000),
            "silent address must time out"
        );
    });
    tb.finish();
}
