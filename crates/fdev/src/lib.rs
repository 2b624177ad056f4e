//! `oskit-fdev` — the device driver framework (paper §3.6, §5).
//!
//! The paper's example initialization is the specification here:
//!
//! ```c
//! fdev_linux_init_ethernet();
//! fdev_probe();
//! ...
//! fdev_device_lookup(&fdev_ethernet_iid, &dev);
//! ```
//!
//! Driver sets register themselves ([`DeviceRegistry::register_driver`]);
//! [`DeviceRegistry::probe`] walks the bus letting each driver claim the
//! hardware it understands; clients then look devices up by interface and
//! bind them to other components at run time (§4.2.2 "Separability
//! Through Dynamic Binding").
//!
//! Each device driver is "represented by a single function entrypoint
//! which is used to initialize and register the entire driver" (§4.3.2) —
//! here, a `Driver` value handed to the registry.

#![forbid(unsafe_code)]

use oskit_com::interfaces::netio::EtherDev;
use oskit_com::interfaces::blkio::BlkIo;
use oskit_com::{IUnknown, Query};
use oskit_machine::{Disk, Nic, Uart};
use oskit_osenv::OsEnv;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::sync::Arc;

/// The simulated I/O bus: the hardware units a machine exposes for
/// drivers to claim.
pub struct Bus {
    nics: Vec<Arc<Nic>>,
    disks: Vec<Arc<Disk>>,
    uarts: Vec<Arc<Uart>>,
    claimed_nics: Mutex<HashSet<usize>>,
    claimed_disks: Mutex<HashSet<usize>>,
    claimed_uarts: Mutex<HashSet<usize>>,
}

impl Bus {
    /// Builds a bus over the machine's devices.
    pub fn new(nics: Vec<Arc<Nic>>, disks: Vec<Arc<Disk>>, uarts: Vec<Arc<Uart>>) -> Bus {
        Bus {
            nics,
            disks,
            uarts,
            claimed_nics: Mutex::new(HashSet::new()),
            claimed_disks: Mutex::new(HashSet::new()),
            claimed_uarts: Mutex::new(HashSet::new()),
        }
    }

    /// Claims the next unclaimed NIC, if any.
    pub fn claim_nic(&self) -> Option<(usize, Arc<Nic>)> {
        let mut claimed = self.claimed_nics.lock();
        for (i, n) in self.nics.iter().enumerate() {
            if claimed.insert(i) {
                return Some((i, Arc::clone(n)));
            }
        }
        None
    }

    /// Claims the next unclaimed disk, if any.
    pub fn claim_disk(&self) -> Option<(usize, Arc<Disk>)> {
        let mut claimed = self.claimed_disks.lock();
        for (i, d) in self.disks.iter().enumerate() {
            if claimed.insert(i) {
                return Some((i, Arc::clone(d)));
            }
        }
        None
    }

    /// Claims the next unclaimed UART, if any.
    pub fn claim_uart(&self) -> Option<(usize, Arc<Uart>)> {
        let mut claimed = self.claimed_uarts.lock();
        for (i, u) in self.uarts.iter().enumerate() {
            if claimed.insert(i) {
                return Some((i, Arc::clone(u)));
            }
        }
        None
    }
}

/// Device classes, standing in for the `fdev_*_iid` lookup keys.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash)]
pub enum DeviceClass {
    /// Ethernet interfaces (`fdev_ethernet_iid`).
    Ethernet,
    /// Block devices (disks).
    Block,
    /// Character devices (serial ports, consoles).
    Char,
}

/// One probed device.
#[derive(Clone)]
pub struct DeviceNode {
    /// Device name, e.g. "eth0" or "wd0".
    pub name: String,
    /// Lookup class.
    pub class: DeviceClass,
    /// Driver description (paper: "driver info").
    pub description: String,
    /// The device object; query it for `EtherDev`, `BlkIo`, ...
    pub object: Arc<dyn IUnknown>,
}

/// A registered driver set entry point (§4.3.2).
pub trait Driver: Send + Sync {
    /// The driver's name ("linux tulip", "freebsd sio", ...).
    fn name(&self) -> &str;

    /// Probes the bus, claiming hardware and returning device nodes.
    fn probe(&self, env: &Arc<OsEnv>, bus: &Bus) -> Vec<DeviceNode>;
}

/// The per-machine device registry: `fdev`.
pub struct DeviceRegistry {
    drivers: Mutex<Vec<Arc<dyn Driver>>>,
    devices: Mutex<Vec<DeviceNode>>,
}

impl Default for DeviceRegistry {
    fn default() -> Self {
        Self::new()
    }
}

impl DeviceRegistry {
    /// Creates an empty registry.
    pub fn new() -> DeviceRegistry {
        DeviceRegistry {
            drivers: Mutex::new(Vec::new()),
            devices: Mutex::new(Vec::new()),
        }
    }

    /// Registers a driver set (the `fdev_linux_init_ethernet()` analogue:
    /// "causing all supported drivers to be linked into the resulting
    /// application").
    pub fn register_driver(&self, driver: Arc<dyn Driver>) {
        self.drivers.lock().push(driver);
    }

    /// `fdev_probe()`: "locates all devices for which a driver has been
    /// initialized."
    pub fn probe(&self, env: &Arc<OsEnv>, bus: &Bus) {
        let drivers: Vec<_> = self.drivers.lock().clone();
        let mut devices = self.devices.lock();
        for d in drivers {
            devices.extend(d.probe(env, bus));
        }
    }

    /// `fdev_device_lookup()`: all devices of a class.
    pub fn lookup(&self, class: DeviceClass) -> Vec<DeviceNode> {
        self.devices
            .lock()
            .iter()
            .filter(|d| d.class == class)
            .cloned()
            .collect()
    }

    /// Typed convenience: the Ethernet devices.
    pub fn ethernet_devices(&self) -> Vec<Arc<dyn EtherDev>> {
        self.lookup(DeviceClass::Ethernet)
            .into_iter()
            .filter_map(|d| d.object.query::<dyn EtherDev>())
            .collect()
    }

    /// Typed convenience: the block devices.
    pub fn block_devices(&self) -> Vec<Arc<dyn BlkIo>> {
        self.lookup(DeviceClass::Block)
            .into_iter()
            .filter_map(|d| d.object.query::<dyn BlkIo>())
            .collect()
    }

    /// All probed devices, for `fdev`-style listings.
    pub fn all(&self) -> Vec<DeviceNode> {
        self.devices.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oskit_com::interfaces::netio::{EtherAddr, NetIo};
    use oskit_com::{com_object, new_com, Result, SelfRef};
    use oskit_machine::{Machine, Sim};

    /// A trivial fake EtherDev COM object for registry tests.
    struct FakeEther {
        me: SelfRef<FakeEther>,
        mac: EtherAddr,
    }
    impl EtherDev for FakeEther {
        fn open(&self, _rx: Arc<dyn NetIo>) -> Result<Arc<dyn NetIo>> {
            Err(oskit_com::Error::NotImpl)
        }
        fn get_addr(&self) -> EtherAddr {
            self.mac
        }
        fn describe(&self) -> String {
            "fake".into()
        }
    }
    com_object!(FakeEther, me, [EtherDev]);

    struct FakeEtherDriver;
    impl Driver for FakeEtherDriver {
        fn name(&self) -> &str {
            "fake-ether"
        }
        fn probe(&self, _env: &Arc<OsEnv>, bus: &Bus) -> Vec<DeviceNode> {
            let mut out = Vec::new();
            while let Some((i, nic)) = bus.claim_nic() {
                let dev = new_com(
                    FakeEther {
                        me: SelfRef::new(),
                        mac: EtherAddr(nic.mac()),
                    },
                    |o| &o.me,
                );
                out.push(DeviceNode {
                    name: format!("eth{i}"),
                    class: DeviceClass::Ethernet,
                    description: "fake ethernet".into(),
                    object: dev as Arc<dyn IUnknown>,
                });
            }
            out
        }
    }

    fn setup() -> (Arc<OsEnv>, Bus) {
        let sim = Sim::new();
        let m = Machine::new(&sim, "m", 1 << 20);
        let n1 = Nic::new(&m, [2, 0, 0, 0, 0, 1]);
        let n2 = Nic::new(&m, [2, 0, 0, 0, 0, 2]);
        let env = OsEnv::new(&m);
        (env, Bus::new(vec![n1, n2], vec![], vec![]))
    }

    #[test]
    fn probe_finds_all_nics() {
        let (env, bus) = setup();
        let reg = DeviceRegistry::new();
        reg.register_driver(Arc::new(FakeEtherDriver));
        reg.probe(&env, &bus);
        let devs = reg.lookup(DeviceClass::Ethernet);
        assert_eq!(devs.len(), 2);
        assert_eq!(devs[0].name, "eth0");
        let ethers = reg.ethernet_devices();
        assert_eq!(ethers.len(), 2);
        assert_eq!(ethers[0].get_addr(), EtherAddr([2, 0, 0, 0, 0, 1]));
    }

    #[test]
    fn second_probe_finds_nothing_new() {
        let (env, bus) = setup();
        let reg = DeviceRegistry::new();
        reg.register_driver(Arc::new(FakeEtherDriver));
        reg.probe(&env, &bus);
        reg.probe(&env, &bus); // Hardware already claimed.
        assert_eq!(reg.lookup(DeviceClass::Ethernet).len(), 2);
    }

    #[test]
    fn two_drivers_share_the_bus() {
        // Two driver sets: the first claims one NIC, the second the rest —
        // like Linux and FreeBSD driver sets coexisting (§3.6).
        struct OneNic;
        impl Driver for OneNic {
            fn name(&self) -> &str {
                "one"
            }
            fn probe(&self, _e: &Arc<OsEnv>, bus: &Bus) -> Vec<DeviceNode> {
                bus.claim_nic()
                    .map(|(i, nic)| DeviceNode {
                        name: format!("one{i}"),
                        class: DeviceClass::Ethernet,
                        description: "one-nic driver".into(),
                        object: new_com(
                            FakeEther {
                                me: SelfRef::new(),
                                mac: EtherAddr(nic.mac()),
                            },
                            |o| &o.me,
                        ) as Arc<dyn IUnknown>,
                    })
                    .into_iter()
                    .collect()
            }
        }
        let (env, bus) = setup();
        let reg = DeviceRegistry::new();
        reg.register_driver(Arc::new(OneNic));
        reg.register_driver(Arc::new(FakeEtherDriver));
        reg.probe(&env, &bus);
        let names: Vec<_> = reg.all().into_iter().map(|d| d.name).collect();
        assert_eq!(names, ["one0", "eth1"]);
    }

    #[test]
    fn lookup_by_missing_class_is_empty() {
        let (env, bus) = setup();
        let reg = DeviceRegistry::new();
        reg.register_driver(Arc::new(FakeEtherDriver));
        reg.probe(&env, &bus);
        assert!(reg.lookup(DeviceClass::Block).is_empty());
        assert!(reg.block_devices().is_empty());
    }
}
