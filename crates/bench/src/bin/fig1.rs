//! Regenerates paper Figure 1: the structure of the OSKit — native
//! components and encapsulated donor code beneath a client OS.
//!
//! Boots a full kernel (drivers, network stack, file system) so every
//! component registers itself, then renders the registry.

#![forbid(unsafe_code)]

use oskit::machine::Sim;
use oskit::netbsd_fs::FfsFileSystem;
use oskit::KernelBuilder;
use std::net::Ipv4Addr;
use std::sync::Arc;

fn main() {
    let sim = Sim::new();
    let (kernel, _, _) = KernelBuilder::new("fig1")
        .nic([2, 0, 0, 0, 0, 1])
        .disk(4096)
        .boot(&sim);
    let k = Arc::clone(&kernel);
    sim.spawn("init", move || {
        k.init_networking(Ipv4Addr::new(10, 0, 0, 1), Ipv4Addr::new(255, 255, 255, 0));
        let disks = k.init_disks();
        if let Some(blkio) = disks.first() {
            FfsFileSystem::mkfs(blkio).expect("mkfs");
            let _fs = FfsFileSystem::mount_on(&k.env, blkio).expect("mount");
        }
    });
    sim.run();

    println!("Figure 1: the structure of the OSKit");
    println!("(shaded = encapsulated off-the-shelf code behind glue)\n");
    print!("{}", oskit::com::registry::render_structure());
    println!();
    println!("devices probed:");
    for d in kernel.fdev.all() {
        println!("  {:6} [{:?}] {}", d.name, d.class, d.description);
    }
}
