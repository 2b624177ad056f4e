//! The §5 testbed: "two Pentium Pro 200MHz PCs connected by 100Mbps
//! Ethernet", built one way for every experiment and test.
//!
//! [`Testbed::new`] builds the simulation, two machines, their NICs on
//! one wire and their osenvs, then binds what each [`NodeNet`] asks for
//! to each NIC: node a first, then node b, because construction order
//! decides timer tie-breaks.  The testbed owns every component for the
//! run; threads spawned on [`Testbed::sim`] clone the handles they use,
//! and [`Testbed::finish`] runs the simulation and returns each node's
//! ledgers.
//!
//! ```
//! use oskit::testbed::{NodeNet, Testbed, IP_B};
//! use oskit::NetConfig;
//! use std::sync::Arc;
//!
//! let tb = Testbed::new(
//!     NodeNet::Stack(NetConfig::freebsd()),
//!     NodeNet::Stack(NetConfig::oskit()),
//! );
//! let net = Arc::clone(tb.a.bsd());
//! tb.sim.spawn("ping", move || assert!(net.ping(IP_B, 1_000_000_000)));
//! let (a, b) = tb.finish();
//! assert_eq!(a.work.crossings, 0, "native FreeBSD crosses no glue");
//! assert!(b.work.crossings > 0, "the OSKit node does");
//! ```

use crate::experiments::{NetConfig, StackKind};
use oskit_com::interfaces::blkio::BlkIo;
use oskit_com::interfaces::netio::EtherDev;
use oskit_com::interfaces::socket::SocketFactory;
use oskit_com::Query;
use oskit_freebsd_net::{
    attach_native_if, ifconfig, open_ether_if, oskit_freebsd_net_init, BsdNet,
};
use oskit_linux_dev::linux::blkdev::IdeDrive;
use oskit_linux_dev::{LinuxBlkIo, LinuxEtherDev, LinuxInet, NetDevice, NETIF_F_NAPI, NETIF_F_SG};
use oskit_machine::{
    Disk, FaultSnapshot, Machine, Nic, Sim, TraceReport, WireConfig, WorkSnapshot,
};
use oskit_osenv::OsEnv;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// Node a's address; its MAC is `02:00:00:00:00:01`.
pub const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
/// Node b's address; its MAC is `02:00:00:00:00:02`.
pub const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
/// The testbed subnet's mask.
const MASK: Ipv4Addr = Ipv4Addr::new(255, 255, 255, 0);

/// What a node binds to its NIC.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum NodeNet {
    /// The encapsulated Linux driver alone, opened with these `NETIF_F_*`
    /// bits, and its `LinuxEtherDev` COM object: for tests that drive the
    /// driver or the ether glue themselves.
    Driver(u32),
    /// One of the tables' protocol stacks, configured with the node's
    /// address.
    Stack(NetConfig),
}

/// A node's protocol stack.
#[derive(Clone)]
pub enum Stack {
    /// The FreeBSD stack (native or over the Linux driver) and its COM
    /// socket factory.
    Bsd(Arc<BsdNet>, Arc<dyn SocketFactory>),
    /// The Linux-style stack on the Linux driver.
    Linux(Arc<LinuxInet>),
}

/// One machine of the testbed and everything built on it.
pub struct Node {
    /// The simulated PC.
    pub machine: Arc<Machine>,
    /// Its Ethernet NIC.
    pub nic: Arc<Nic>,
    /// The osenv its components run on.
    pub env: Arc<OsEnv>,
    /// Its address ([`IP_A`] or [`IP_B`]).
    pub ip: Ipv4Addr,
    // Held for the run: interrupt handlers reach drivers only weakly.
    dev: Option<Arc<NetDevice>>,
    ether: Option<Arc<LinuxEtherDev>>,
    stack: Option<Stack>,
    blkio: Option<Arc<dyn BlkIo>>,
}

/// What [`Testbed::finish`] returns for each node.
#[derive(Clone, Debug)]
pub struct NodeReport {
    /// The machine's work counters.
    pub work: WorkSnapshot,
    /// The per-boundary rows `work` is the sum of.
    pub boundaries: TraceReport,
    /// The machine's fault ledger (all zero unless a plan was installed).
    pub faults: FaultSnapshot,
}

impl Node {
    fn build(machine: Arc<Machine>, nic: Arc<Nic>, ip: Ipv4Addr, net: NodeNet) -> Node {
        let env = OsEnv::new(&machine);
        let mut node = Node {
            machine,
            nic,
            env,
            ip,
            dev: None,
            ether: None,
            stack: None,
            blkio: None,
        };
        let cfg = match net {
            NodeNet::Driver(features) => {
                node.add_driver(features);
                node.dev().open();
                return node;
            }
            NodeNet::Stack(cfg) => cfg,
        };
        if cfg.kind() == StackKind::Linux {
            let dev = NetDevice::new("eth0", &node.env, Arc::clone(&node.nic));
            node.stack = Some(Stack::Linux(LinuxInet::attach(&node.env, &dev, ip, MASK)));
            node.dev = Some(dev);
            return node;
        }
        let (net, sockets) = oskit_freebsd_net_init(&node.env);
        let ifp = if cfg.kind() == StackKind::FreeBsd {
            attach_native_if(&net, &node.nic)
        } else {
            let sg = if cfg.has_sg() { NETIF_F_SG } else { 0 };
            let napi = if cfg.has_napi() { NETIF_F_NAPI } else { 0 };
            let ether: Arc<dyn EtherDev> = node.add_driver(sg | napi).query().expect("etherdev");
            open_ether_if(&net, &ether).expect("open_ether_if")
        };
        ifconfig(&ifp, ip, MASK);
        node.stack = Some(Stack::Bsd(net, sockets));
        node
    }

    /// Builds the Linux driver with `features` and its COM ether object.
    fn add_driver(&mut self, features: u32) -> Arc<LinuxEtherDev> {
        let dev = NetDevice::new("eth0", &self.env, Arc::clone(&self.nic));
        dev.set_features(features);
        let ether = LinuxEtherDev::new(&self.env, &dev);
        self.dev = Some(dev);
        self.ether = Some(Arc::clone(&ether));
        ether
    }

    /// Attaches an IDE disk of `sectors` behind the encapsulated Linux
    /// block driver and returns its `LinuxBlkIo`.
    pub fn add_disk(&mut self, sectors: usize) -> Arc<dyn BlkIo> {
        let drive = IdeDrive::new("hda", &self.env, Disk::new(&self.machine, sectors));
        let blkio = LinuxBlkIo::new(&self.env, &drive) as Arc<dyn BlkIo>;
        self.blkio = Some(Arc::clone(&blkio));
        blkio
    }

    /// The encapsulated Linux driver.  Panics if the node has none (a
    /// native FreeBSD stack drives the NIC itself).
    pub fn dev(&self) -> &Arc<NetDevice> {
        self.dev.as_ref().expect("node has no Linux driver")
    }

    /// The driver's `LinuxEtherDev`.  Panics unless the node was built as
    /// [`NodeNet::Driver`] or runs the OSKit stack.
    pub fn ether(&self) -> &Arc<LinuxEtherDev> {
        self.ether.as_ref().expect("node has no LinuxEtherDev")
    }

    /// The node's stack.  Panics on a [`NodeNet::Driver`] node.
    pub fn stack(&self) -> &Stack {
        self.stack.as_ref().expect("node has no stack")
    }

    /// The FreeBSD stack.  Panics unless the node runs one.
    pub fn bsd(&self) -> &Arc<BsdNet> {
        match self.stack() {
            Stack::Bsd(net, _) => net,
            Stack::Linux(_) => panic!("node runs the Linux stack"),
        }
    }

    /// The FreeBSD stack's COM socket factory.  Panics unless the node
    /// runs the FreeBSD stack.
    pub fn sockets(&self) -> &Arc<dyn SocketFactory> {
        match self.stack() {
            Stack::Bsd(_, sockets) => sockets,
            Stack::Linux(_) => panic!("node runs the Linux stack"),
        }
    }

    /// The Linux-style stack.  Panics unless the node runs it.
    pub fn inet(&self) -> &Arc<LinuxInet> {
        match self.stack() {
            Stack::Linux(inet) => inet,
            Stack::Bsd(..) => panic!("node runs the FreeBSD stack"),
        }
    }

    fn report(&self) -> NodeReport {
        NodeReport {
            work: self.machine.meter.snapshot(),
            boundaries: self.machine.tracer().metrics(),
            faults: self.machine.faults().stats(),
        }
    }
}

/// Two machines on one wire, built and owned for one run.
pub struct Testbed {
    /// The simulation both machines run in; spawn the run's threads here.
    pub sim: Arc<Sim>,
    /// Node a, at [`IP_A`].
    pub a: Node,
    /// Node b, at [`IP_B`].
    pub b: Node,
}

impl Testbed {
    /// Builds both nodes on a default (lossless 100 Mbit/s) wire.
    pub fn new(a: NodeNet, b: NodeNet) -> Testbed {
        Testbed::with_wire(a, b, WireConfig::default(), WireConfig::default())
    }

    /// Builds both nodes, `wire_a` and `wire_b` modelling each NIC's
    /// transmit direction.  Interrupts are enabled on both machines.
    pub fn with_wire(a: NodeNet, b: NodeNet, wire_a: WireConfig, wire_b: WireConfig) -> Testbed {
        let sim = Sim::new();
        sim.set_time_limit(10_000_000_000_000); // 10 000 s: full-size runs fit.
        let ma = Machine::new(&sim, "a", 1 << 22);
        let mb = Machine::new(&sim, "b", 1 << 22);
        let na = Nic::with_config(&ma, [2, 0, 0, 0, 0, 1], wire_a);
        let nb = Nic::with_config(&mb, [2, 0, 0, 0, 0, 2], wire_b);
        Nic::connect(&na, &nb);
        let a = Node::build(ma, na, IP_A, a);
        let b = Node::build(mb, nb, IP_B, b);
        a.machine.irq.enable();
        b.machine.irq.enable();
        Testbed { sim, a, b }
    }

    /// Runs the simulation to completion and returns node a's and node
    /// b's ledgers.
    pub fn finish(self) -> (NodeReport, NodeReport) {
        self.sim.run();
        (self.a.report(), self.b.report())
    }
}
