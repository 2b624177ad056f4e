//! End-to-end tests of the FreeBSD stack over the simulated testbed, in
//! both the monolithic-native configuration (the paper's "FreeBSD" row)
//! and the OSKit configuration (FreeBSD stack + encapsulated Linux driver,
//! the paper's headline combination).

use oskit::freebsd_net::bsd::mbuf::MbufChain;
use oskit::freebsd_net::bsd::net::IfOutput;
use oskit::freebsd_net::{TcpSock, UdpSock};
use oskit::machine::{pseudo_header, Cksum};
use oskit::testbed::{NodeNet, NodeReport, Testbed, IP_A, IP_B};
use oskit::NetConfig;
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

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
    let (a, b, _) = tb.finish();
    (a, b)
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

/// Frames an interface hands to its driver, kept instead of sent.
#[derive(Default)]
struct Capture(Mutex<Vec<Vec<u8>>>);

impl IfOutput for Capture {
    fn output(&self, frame: MbufChain) {
        self.0.lock().unwrap().push(frame.to_vec());
    }
}

#[test]
fn zero_sum_udp_datagram_is_still_verified() {
    // A datagram whose checksum computes to 0x0000 must go out as 0xFFFF
    // (RFC 768): a zero field means "no checksum", and the receiver would
    // then accept a corrupted copy.
    let (sport, dport) = (5000u16, 7u16);
    let ulen = 8 + 2;
    let mut hdr = [0u8; 8];
    hdr[0..2].copy_from_slice(&sport.to_be_bytes());
    hdr[2..4].copy_from_slice(&dport.to_be_bytes());
    hdr[4..6].copy_from_slice(&(ulen as u16).to_be_bytes());
    let pseudo = pseudo_header(IP_A, IP_B, 17, ulen);
    // The payload word that completes the sum to ones'-complement zero.
    let payload = Cksum::new().add(&pseudo).add(&hdr).finish().to_be_bytes();
    assert_eq!(Cksum::new().add(&pseudo).add(&hdr).add(&payload).finish(), 0);

    let tb = pair(NetConfig::freebsd());
    let (net_a, net_b) = (Arc::clone(tb.a.bsd()), Arc::clone(tb.b.bsd()));
    let cap = Arc::new(Capture::default());
    let ifp = net_a.ifnet();
    ifp.set_output(Arc::clone(&cap) as Arc<dyn IfOutput>);
    // Resolve b's address up front so the datagram is the only frame.
    let mut arp = vec![0u8; 28];
    arp[6..8].copy_from_slice(&2u16.to_be_bytes());
    arp[8..14].copy_from_slice(&[2, 0, 0, 0, 0, 2]);
    arp[14..18].copy_from_slice(&IP_B.octets());
    ifp.arp_input(&arp);
    tb.sim.spawn("udp", move || {
        let server = UdpSock::new(&net_b);
        server.bind(Ipv4Addr::UNSPECIFIED, dport).unwrap();
        let client = UdpSock::new(&net_a);
        client.bind(Ipv4Addr::UNSPECIFIED, sport).unwrap();
        client.sendto(&payload, IP_B, dport).unwrap();
        let frame = cap.0.lock().unwrap().pop().expect("datagram sent");
        let udp = &frame[14 + 20..];
        assert_eq!(&udp[6..8], &[0xFF, 0xFF], "zero sum sent as 0xFFFF");
        assert_eq!(&udp[8..], &payload);
        // The intact datagram is delivered; a corrupted copy is refused.
        net_b.ether_input(MbufChain::from_slice(&frame));
        let mut bad = frame.clone();
        *bad.last_mut().unwrap() ^= 0x01;
        net_b.ether_input(MbufChain::from_slice(&bad));
        let mut buf = [0u8; 8];
        assert_eq!(server.recvfrom(&mut buf).unwrap(), (2, (IP_A, sport)));
        assert_eq!(&buf[..2], &payload);
        assert!(!server.readable(), "corrupted datagram delivered unchecked");
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
