//! `perfbench` — the OSKit benchmark: three seeded closed-loop workloads
//! over the components' public APIs, measured end to end in host and
//! virtual time, and layer by layer at the COM seams.
//!
//! ```text
//! perfbench --workload stream|rpc|fileserve|all [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! A run repeats rounds of the workload for `--seconds`.  Each round is a
//! child process (`--round 0|1`) that builds a fresh testbed, runs the
//! workload once, checks it and prints its figures: a process per round
//! keeps one round's memory and allocator state out of the next.
//! `--trace 0` reports the end-to-end metrics; `--trace 1` alternates
//! untraced and traced rounds and reports the per-layer metrics.  Every
//! run also prints one line per round with its host times, context
//! switches and host-speed control.  The last line of stdout is one
//! JSON object; see NOTES.md.

mod gen;
mod metrics;
mod procfs;
mod seams;
mod span;
mod stats;
mod workloads;

use metrics::{Figure, RoundValues};
use span::Recorder;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Instant;
use workloads::{run_round, Input};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Set in a round's child process: run one round, traced or not.
    round: Option<bool>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        round: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {val}");
        let bit = || match val.as_str() {
            "0" => Ok(false),
            "1" => Ok(true),
            _ => Err(bad()),
        };
        match flag.as_str() {
            "--workload" => args.workload = val.clone(),
            "--seed" => args.seed = val.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = val.parse().map_err(|_| bad())?,
            "--trace" => args.trace = bit()?,
            "--round" => args.round = Some(bit()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// The child side: one round, printed as `ROUND`, `VALUE` and `PROBLEM`
/// lines.
fn one_round(workload: &str, input: &Input, traced: bool) {
    let calib_ms = procfs::calibration_ms();
    let round = run_round(input, traced.then(|| Arc::new(Recorder::default())));
    if traced {
        let path = std::path::Path::new("perfbench/out").join(format!("spans-{workload}.tsv"));
        if let Err(e) = span::write_tsv(&path, &round.spans) {
            eprintln!("perfbench: could not write {}: {e}", path.display());
        }
    }
    let (values, problems) = metrics::round_values(&round, procfs::peak_rss_mb(), calib_ms);
    let hash = |s: String| {
        let mut h = DefaultHasher::new();
        s.hash(&mut h);
        format!("{:016x}", h.finish())
    };
    println!(
        "ROUND {} {} {} {}",
        hash(round.fingerprint()),
        if traced {
            hash(round.span_fingerprint())
        } else {
            "-".to_string()
        },
        round.attempted,
        round.failed
    );
    for (name, v) in values {
        println!("VALUE {name} {v}");
    }
    for p in round.problems.iter().chain(&problems) {
        println!("PROBLEM {p}");
    }
}

struct Outcome {
    fingerprint: String,
    /// Of the spans' virtual side; traced rounds only.
    span_fingerprint: String,
    attempted: u64,
    failed: u64,
    values: RoundValues,
    problems: Vec<String>,
}

fn parse_round(stdout: &str, traced: bool) -> Option<Outcome> {
    let mut out: Option<Outcome> = None;
    for line in stdout.lines() {
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "ROUND" => {
                let f: Vec<&str> = rest.split(' ').collect();
                out = Some(Outcome {
                    fingerprint: f.first()?.to_string(),
                    span_fingerprint: f.get(1)?.to_string(),
                    attempted: f.get(2)?.parse().ok()?,
                    failed: f.get(3)?.parse().ok()?,
                    values: RoundValues {
                        traced,
                        values: Vec::new(),
                    },
                    problems: Vec::new(),
                });
            }
            "VALUE" => {
                let (name, v) = rest.split_once(' ')?;
                out.as_mut()?
                    .values
                    .values
                    .push((name.to_string(), v.parse().ok()?));
            }
            "PROBLEM" => out.as_mut()?.problems.push(rest.to_string()),
            _ => {}
        }
    }
    out
}

/// Runs one round in a child process and waits for it.
fn spawn_round(args: &Args, workload: &str, traced: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let seed = args.seed.to_string();
    let out = Command::new(exe)
        .args([
            "--workload",
            workload,
            "--seed",
            &seed,
            "--round",
            if traced { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawning a round: {e}"))?;
    let parsed = parse_round(&String::from_utf8_lossy(&out.stdout), traced);
    match parsed {
        Some(o) if out.status.success() => Ok(o),
        _ => Err(format!("round process failed ({})", out.status)),
    }
}

struct Run {
    rounds: Vec<RoundValues>,
    problems: Vec<String>,
    attempted: u64,
    failed: u64,
}

/// Rounds a run needs at least, whatever `--seconds` says: with tracing,
/// half of them are traced.
const MIN_ROUNDS: usize = 6;

fn run(args: &Args, workload: &str, ops: u64) -> Run {
    let t0 = Instant::now();
    let mut run = Run {
        rounds: Vec::new(),
        problems: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let mut reference: Option<String> = None;
    let mut span_reference: Option<String> = None;
    for k in 0usize.. {
        let traced = args.trace && k % 2 == 1;
        match spawn_round(args, workload, traced) {
            Ok(o) => {
                run.attempted += o.attempted;
                run.failed += o.failed;
                run.problems
                    .extend(o.problems.iter().map(|p| format!("round {k}: {p}")));
                match &reference {
                    None => reference = Some(o.fingerprint),
                    Some(r) if *r != o.fingerprint => run.problems.push(format!(
                        "round {k} ({}) differs from round 0 in virtual time or work counters",
                        if traced { "traced" } else { "untraced" }
                    )),
                    Some(_) => {}
                }
                if traced {
                    match &span_reference {
                        None => span_reference = Some(o.span_fingerprint),
                        Some(r) if *r != o.span_fingerprint => run.problems.push(format!(
                            "traced round {k} differs from the first in its spans' virtual times"
                        )),
                        Some(_) => {}
                    }
                }
                run.rounds.push(o.values);
            }
            Err(e) => {
                // A round that died counts every operation it attempted
                // as failed.
                run.attempted += ops;
                run.failed += ops;
                run.problems.push(format!("round {k}: {e}"));
            }
        }
        if !run.problems.is_empty()
            || (t0.elapsed().as_secs_f64() >= args.seconds && k + 1 >= MIN_ROUNDS)
        {
            break;
        }
    }
    run
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Prints the figures and returns the result line.
fn report(workload: &str, seed: u64, run: &Run, figures: &[Figure]) -> String {
    println!(
        "== perfbench {workload} seed={seed}: {} rounds",
        run.rounds.len()
    );
    for (k, r) in run.rounds.iter().enumerate() {
        let v = |name| r.get(name).unwrap_or(0.0);
        println!(
            "round {k:>3} {:<8} wall_s {:.6} cpu_s {:.6} voluntary_switches {:>6} calib_ms {:.3}",
            if r.traced { "traced" } else { "untraced" },
            v("wall_s"),
            v("cpu_s"),
            v("vcs"),
            v("bench.calib_ms")
        );
    }
    for f in figures {
        println!(
            "{:<44} {:>16.6} {:<12} ({})",
            f.name, f.value, f.unit, f.note
        );
    }
    println!(
        "op_fail_ratio {} ({} failed of {} attempted)",
        stats::ratio(run.failed as f64, run.attempted as f64),
        run.failed,
        run.attempted
    );
    for p in &run.problems {
        println!("FAIL {p}");
    }
    let body: Vec<String> = figures
        .iter()
        .map(|f| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                f.name,
                json_number(f.value),
                f.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.problems.is_empty() && run.failed == 0,
        run.attempted.max(1),
        run.failed,
        body.join(", ")
    )
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        std::process::exit(2);
    });
    let workloads: Vec<&str> = match args.workload.as_str() {
        "all" => vec!["stream", "rpc", "fileserve"],
        w => vec![w],
    };
    let inputs: Vec<Input> = workloads
        .iter()
        .map(|w| {
            Input::generate(w, args.seed).unwrap_or_else(|| {
                eprintln!("perfbench: unknown workload {w:?} (stream, rpc, fileserve, all)");
                std::process::exit(2);
            })
        })
        .collect();
    if let Some(traced) = args.round {
        one_round(&args.workload, &inputs[0], traced);
        return;
    }
    match procfs::pin_to_one_cpu() {
        Ok(cpu) => println!("pinned to CPU {cpu}: the run token serializes simulated threads"),
        Err(e) => eprintln!("perfbench: not pinned ({e}); host timings may be bimodal"),
    }
    for (w, input) in workloads.iter().zip(&inputs) {
        let run = run(&args, w, input.ops() as u64);
        let specs: &[metrics::Spec] = if args.trace {
            &metrics::PER_LAYER
        } else {
            &metrics::END_TO_END
        };
        let figures = metrics::aggregate(specs, &run.rounds);
        println!("{}", report(w, args.seed, &run, &figures));
    }
}
