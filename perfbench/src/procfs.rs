//! Host resource sampling from `/proc`, with no dependency beyond std.
//!
//! `/proc/self/stat` gives the whole process's user and system time, in
//! 10 ms ticks.  Context switches and nanosecond CPU time are per thread
//! (`/proc/self/task/*/status` and `schedstat`), so the sampler sums them
//! over the live threads.  The simulator's threads all live through a
//! measured phase, so none of their time is lost to an exit.

use std::collections::BTreeMap;
use std::time::Instant;

/// Linux reports `utime`/`stime` in `USER_HZ` ticks, 100 on every
/// architecture the simulator runs on.
pub const TICKS_PER_SEC: f64 = 100.0;

/// The fields of a `status` file the benchmark reads.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Status {
    pub voluntary: u64,
    pub involuntary: u64,
    pub vm_hwm_kb: u64,
    pub cpus_allowed: String,
}

pub fn parse_status(text: &str) -> Status {
    let mut s = Status::default();
    for line in text.lines() {
        let Some((key, val)) = line.split_once(':') else {
            continue;
        };
        let val = val.trim();
        let num = || {
            val.split_whitespace()
                .next()
                .and_then(|v| v.parse().ok())
                .unwrap_or(0)
        };
        match key {
            "voluntary_ctxt_switches" => s.voluntary = num(),
            "nonvoluntary_ctxt_switches" => s.involuntary = num(),
            "VmHWM" => s.vm_hwm_kb = num(),
            "Cpus_allowed_list" => s.cpus_allowed = val.to_string(),
            _ => {}
        }
    }
    s
}

/// `(utime, stime)` in ticks from a `stat` line.  The command name may
/// hold spaces and parentheses, so fields are counted from its last `)`.
pub fn parse_stat(text: &str) -> Option<(u64, u64)> {
    let rest = &text[text.rfind(')')? + 1..];
    let f: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime and stime are fields 14, 15.
    Some((f.get(11)?.parse().ok()?, f.get(12)?.parse().ok()?))
}

/// CPU time in ns, the first field of a `schedstat` file.
pub fn parse_schedstat(text: &str) -> Option<u64> {
    text.split_whitespace().next()?.parse().ok()
}

/// Expands a kernel CPU list such as `0-3,8,10-11`.
pub fn parse_cpu_list(text: &str) -> Vec<usize> {
    let mut out = Vec::new();
    for part in text.trim().split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((a, b)) => {
                if let (Ok(a), Ok(b)) = (a.parse::<usize>(), b.parse::<usize>()) {
                    out.extend(a..=b);
                }
            }
            None => out.extend(part.parse::<usize>().ok()),
        }
    }
    out
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// One reading of the process's host resources.
#[derive(Clone, Debug)]
pub struct Sample {
    pub at: Instant,
    pub utime: u64,
    pub stime: u64,
    /// Per thread: (voluntary switches, involuntary switches, CPU ns).
    pub threads: BTreeMap<String, (u64, u64, u64)>,
}

impl Sample {
    /// Reads `/proc` after noting the time, so that the reading's own
    /// cost, some hundred microseconds of system calls, falls outside
    /// the set-up time that ends at a phase's start sample.
    pub fn take() -> Sample {
        let at = Instant::now();
        let mut threads = BTreeMap::new();
        if let Ok(dir) = std::fs::read_dir("/proc/self/task") {
            for e in dir.flatten() {
                let path = e.path();
                let s = parse_status(&read(&format!("{}/status", path.display())));
                let ns =
                    parse_schedstat(&read(&format!("{}/schedstat", path.display()))).unwrap_or(0);
                threads.insert(
                    e.file_name().to_string_lossy().into_owned(),
                    (s.voluntary, s.involuntary, ns),
                );
            }
        }
        let (utime, stime) = parse_stat(&read("/proc/self/stat")).unwrap_or((0, 0));
        Sample {
            at,
            utime,
            stime,
            threads,
        }
    }
}

/// Host resources spent between two samples.
#[derive(Clone, Copy, Debug, Default)]
pub struct Usage {
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    /// User plus system CPU, summed over threads at nanosecond grain.
    pub cpu_s: f64,
    pub voluntary: u64,
    pub involuntary: u64,
}

impl Usage {
    pub fn between(a: &Sample, b: &Sample) -> Usage {
        let (mut vol, mut invol, mut ns) = (0, 0, 0);
        for (tid, &(v, i, t)) in &b.threads {
            let (v0, i0, t0) = a.threads.get(tid).copied().unwrap_or((0, 0, 0));
            vol += v.saturating_sub(v0);
            invol += i.saturating_sub(i0);
            ns += t.saturating_sub(t0);
        }
        Usage {
            wall_s: b.at.duration_since(a.at).as_secs_f64(),
            user_s: b.utime.saturating_sub(a.utime) as f64 / TICKS_PER_SEC,
            sys_s: b.stime.saturating_sub(a.stime) as f64 / TICKS_PER_SEC,
            cpu_s: ns as f64 / 1e9,
            voluntary: vol,
            involuntary: invol,
        }
    }
}

/// Host speed control: milliseconds one fixed, CPU-bound loop takes,
/// median of five repetitions.  It touches no memory and makes no
/// system call, so it moves with the host's CPU speed and load, not
/// with the simulator: a round whose `wall_s` moves with it was slowed
/// by the host.
pub fn calibration_ms() -> f64 {
    let times: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            let mut rng = crate::gen::Rng::new(1);
            let mut acc = 0u64;
            for _ in 0..(1 << 21) {
                acc ^= rng.next_u64();
            }
            std::hint::black_box(acc);
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    crate::stats::median(&times)
}

/// Peak resident set (`VmHWM`) of the process so far, MiB.
pub fn peak_rss_mb() -> f64 {
    parse_status(&read("/proc/self/status")).vm_hwm_kb as f64 / 1024.0
}

/// Pins the whole process to the first CPU it may run on.
///
/// The simulator's run token lets only one simulated thread run at a
/// time, so a second CPU buys nothing; left free to migrate, the token
/// handoffs between threads on two CPUs make host timings bimodal
/// (the same run takes either ~1x or ~2x, with ~30% more context
/// switches).  Must run before any thread is spawned; threads inherit
/// the mask.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    let allowed = parse_status(&read("/proc/self/status")).cpus_allowed;
    let cpu = *parse_cpu_list(&allowed)
        .first()
        .ok_or_else(|| format!("no CPU in allowed list {allowed:?}"))?;
    let status = std::process::Command::new("taskset")
        .args([
            "-a",
            "-p",
            "-c",
            &cpu.to_string(),
            &std::process::id().to_string(),
        ])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("taskset: {e}"))?;
    if status.success() {
        Ok(cpu)
    } else {
        Err(format!("taskset exited with {status}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_fields() {
        let text = "Name:\tperfbench\nVmHWM:\t   51200 kB\nCpus_allowed_list:\t0-1\n\
                    voluntary_ctxt_switches:\t35612\nnonvoluntary_ctxt_switches:\t17\n";
        let s = parse_status(text);
        assert_eq!(s.voluntary, 35612);
        assert_eq!(s.involuntary, 17);
        assert_eq!(s.vm_hwm_kb, 51200);
        assert_eq!(s.cpus_allowed, "0-1");
        assert_eq!(parse_status(""), Status::default());
    }

    #[test]
    fn stat_fields_after_a_tricky_name() {
        let text = "4242 (a) b (c) S 1 4242 4242 0 -1 4194304 84 0 0 0 123 45 0 0 20 0 3 0";
        assert_eq!(parse_stat(text), Some((123, 45)));
        assert_eq!(parse_stat("4242 (x) S 1"), None);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn schedstat_first_field() {
        assert_eq!(parse_schedstat("3870422 1042 17\n"), Some(3870422));
        assert_eq!(parse_schedstat(""), None);
    }

    #[test]
    fn cpu_lists() {
        assert_eq!(parse_cpu_list("0-1"), vec![0, 1]);
        assert_eq!(parse_cpu_list("3,5-7,9\n"), vec![3, 5, 6, 7, 9]);
        assert_eq!(parse_cpu_list(""), Vec::<usize>::new());
    }

    #[test]
    fn live_sample_sees_this_process() {
        let a = Sample::take();
        let b = Sample::take();
        assert!(!b.threads.is_empty());
        let u = Usage::between(&a, &b);
        assert!(u.wall_s >= 0.0 && u.cpu_s >= 0.0);
        assert!(peak_rss_mb() > 0.0);
    }
}
