//! Regenerates the paper's Table 3 *source-size* breakdown of the kit's
//! components, split into native/glue code versus donor-idiom
//! ("encapsulated") code — the paper's headline structural claim that a
//! modest amount of native code unlocks a much larger encapsulated mass.
//! (Formerly the `table3` binary; the `table3` name now belongs to the
//! file-serving throughput benchmark.)

#![forbid(unsafe_code)]

use oskit_bench::{dir_loc, workspace_root};

struct Row {
    library: &'static str,
    description: &'static str,
    /// Crate directory under `crates/`.
    dir: &'static str,
    /// Subdirectories (relative to `src/`) holding donor-idiom code.
    donor_subdirs: &'static [&'static str],
}

const ROWS: &[Row] = &[
    Row { library: "com", description: "COM interfaces & support", dir: "com", donor_subdirs: &[] },
    Row { library: "machine", description: "Simulated PC substrate", dir: "machine", donor_subdirs: &[] },
    Row { library: "osenv", description: "Execution environment", dir: "osenv", donor_subdirs: &[] },
    Row { library: "boot", description: "Bootstrap support", dir: "boot", donor_subdirs: &[] },
    Row { library: "kern", description: "Kernel support", dir: "kern", donor_subdirs: &[] },
    Row { library: "lmm", description: "List Memory Manager", dir: "lmm", donor_subdirs: &[] },
    Row { library: "amm", description: "Address Map Manager", dir: "amm", donor_subdirs: &[] },
    Row { library: "c", description: "Minimal C library", dir: "clib", donor_subdirs: &[] },
    Row { library: "memdebug", description: "Malloc debugging", dir: "memdebug", donor_subdirs: &[] },
    Row { library: "gdb", description: "GDB remote stub", dir: "gdb", donor_subdirs: &[] },
    Row { library: "fdev", description: "Device driver support", dir: "fdev", donor_subdirs: &[] },
    Row { library: "diskpart", description: "Disk partitioning", dir: "diskpart", donor_subdirs: &[] },
    Row { library: "fsread", description: "File system reading", dir: "fsread", donor_subdirs: &[] },
    Row { library: "exec", description: "Program loading", dir: "exec", donor_subdirs: &[] },
    Row { library: "trace", description: "Observability substrate", dir: "trace", donor_subdirs: &[] },
    Row { library: "fault", description: "Fault injection", dir: "fault", donor_subdirs: &[] },
    Row { library: "bufcache", description: "Shared buffer cache", dir: "bufcache", donor_subdirs: &[] },
    Row { library: "linux_dev", description: "Linux drivers & support", dir: "linux-dev", donor_subdirs: &["linux"] },
    Row { library: "freebsd_net", description: "FreeBSD network stack", dir: "freebsd-net", donor_subdirs: &["bsd"] },
    Row { library: "netbsd_fs", description: "NetBSD file system", dir: "netbsd-fs", donor_subdirs: &["ffs"] },
    Row { library: "oskit (facade)", description: "Kernel builder & experiments", dir: "core", donor_subdirs: &[] },
];

fn main() {
    let root = workspace_root();
    println!("Table 3: \"filtered\" source code size of the components,");
    println!("native/glue vs donor-idiom (\"encapsulated\") implementation.");
    println!("The filter removes comments, attributes, blank and");
    println!("punctuation-only lines, per the paper's counting rule.\n");
    println!(
        "{:16} {:30} {:>8} {:>8} {:>8} {:>8}",
        "Library", "Description", "Native", "Donor", "Tests", "Total"
    );
    let (mut tn, mut td, mut tt) = (0, 0, 0);
    for r in ROWS {
        let src = root.join("crates").join(r.dir).join("src");
        let (all_code, all_test) = dir_loc(&src);
        let mut donor = 0;
        for sub in r.donor_subdirs {
            let (c, _) = dir_loc(&src.join(sub));
            donor += c;
        }
        let native = all_code.saturating_sub(donor);
        println!(
            "{:16} {:30} {:>8} {:>8} {:>8} {:>8}",
            r.library,
            r.description,
            native,
            donor,
            all_test,
            all_code + all_test
        );
        tn += native;
        td += donor;
        tt += all_test;
    }
    // Workspace-level examples, tests and benches.
    for (name, desc, dir) in [
        ("examples", "Example kernels", "examples"),
        ("tests", "Integration tests", "tests"),
        ("bench", "Experiment harnesses", "crates/bench"),
    ] {
        let (c, t) = dir_loc(&root.join(dir));
        println!(
            "{:16} {:30} {:>8} {:>8} {:>8} {:>8}",
            name, desc, c, 0, t, c + t
        );
        tn += c;
        tt += t;
    }
    println!("{}", "-".repeat(92));
    println!(
        "{:16} {:30} {:>8} {:>8} {:>8} {:>8}",
        "Total",
        "",
        tn,
        td,
        tt,
        tn + td + tt
    );
    println!(
        "\nDonor-idiom share of component code: {:.0}%  (the paper: 230k of 260k",
        100.0 * td as f64 / (tn + td) as f64
    );
    println!("lines encapsulated; here the donor code is re-authored, so the ratio");
    println!("reflects structure, not provenance — see DESIGN.md §2).");
}
