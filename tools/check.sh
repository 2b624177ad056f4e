#!/usr/bin/env sh
# Tier-1 gate: everything that must stay green.
#   tools/check.sh           full run
#   tools/check.sh --fast    skip the release build, goldens and perfbench
#                            smoke run (perfbench is only type-checked)
set -eu

cd "$(dirname "$0")/.."

fast=0
for arg in "$@"; do
    case "$arg" in
        --fast) fast=1 ;;
        *) echo "usage: tools/check.sh [--fast]" >&2; exit 2 ;;
    esac
done

echo "==> every crate root forbids unsafe code"
missing=$(grep -Lx '#!\[forbid(unsafe_code)\]' crates/*/src/lib.rs shims/*/src/lib.rs || true)
if [ -n "$missing" ]; then
    echo "missing #![forbid(unsafe_code)]:" >&2
    echo "$missing" >&2
    exit 1
fi

echo "==> no cargo features: the workspace has one build"
# Runtime flags (an installed FaultPlan, NETIF_F_NAPI, NetConfig) select
# behaviour; a cargo feature would only duplicate one and split the build.
featured=$(grep -l '^\[features\]' crates/*/Cargo.toml shims/*/Cargo.toml || true)
gated=$(grep -rlE --include='*.rs' 'feature *= *"' crates shims tests examples || true)
if [ -n "$featured$gated" ]; then
    echo "cargo features declared or read:" >&2
    printf '%s\n' $featured $gated >&2
    exit 1
fi

echo "==> trace and fault are leaf crates: no oskit-* dependency"
# A ledger or injector that depends on another component is how a
# process-global side domain (a COM-published tracer or fault object)
# comes back; keep both crates free of it.
leaf=$(grep -nE '^[[:space:]]*(\[.*dependencies\.)?oskit-' crates/trace/Cargo.toml crates/fault/Cargo.toml || true)
if [ -n "$leaf" ]; then
    echo "leaf crate declares an oskit-* dependency:" >&2
    echo "$leaf" >&2
    exit 1
fi

echo "==> two-machine rigs come from oskit::testbed: no hand-built osenv"
# Tests, examples and the experiment harness stand machines up through
# oskit::testbed (or KernelBuilder), so the testbed's finish() sees
# every run; a hand-wired rig would bypass it.
rigs=$(grep -rn 'OsEnv::new(' tests crates/*/tests examples crates/core/src/experiments.rs || true)
if [ -n "$rigs" ]; then
    echo "hand-built OsEnv outside oskit::testbed:" >&2
    echo "$rigs" >&2
    exit 1
fi

echo "==> cargo test -q (workspace)"
cargo test -q

echo "==> fault-soak replay determinism (same seed, two processes, identical ledgers)"
# The soak tests run in parallel and cargo's progress dots can land in
# front of any line, so take every ledger line wherever it starts, sorted.
soak_a=$(cargo test -q -p oskit --test fault_soak -- --nocapture | grep -o 'fault-soak:.*' | sort || true)
soak_b=$(cargo test -q -p oskit --test fault_soak -- --nocapture | grep -o 'fault-soak:.*' | sort || true)
if [ -z "$soak_a" ]; then
    echo "fault-soak produced no ledger lines" >&2
    exit 1
fi
if [ "$soak_a" != "$soak_b" ]; then
    echo "fault-soak ledgers differ between identical runs:" >&2
    echo "--- run 1:" >&2; echo "$soak_a" >&2
    echo "--- run 2:" >&2; echo "$soak_b" >&2
    exit 1
fi

echo "==> cargo clippy --workspace --all-targets (warnings denied)"
cargo clippy --workspace --all-targets -- -D warnings

if [ "$fast" -eq 0 ]; then
    echo "==> cargo build --release (workspace)"
    cargo build --release
    echo "==> default table1/table2/table3 stdout byte-identical to tools/golden"
    ./target/release/table1 | diff - tools/golden/table1.txt
    ./target/release/table2 | diff - tools/golden/table2.txt
    ./target/release/table3 | diff - tools/golden/table3.txt
    echo "==> perfbench smoke: every workload correct (byte checks, cross-round determinism)"
    # 6 rounds a workload, traced and untraced alternating; each workload
    # ends with one JSON line whose "correct" must be true.
    bench=$(cargo run --release --quiet --offline --manifest-path perfbench/Cargo.toml -- \
        --workload all --seconds 0 --trace 1)
    results=$(printf '%s\n' "$bench" | grep -c '^{"correct": ' || true)
    correct=$(printf '%s\n' "$bench" | grep -c '^{"correct": true,' || true)
    if [ "$results" -ne 3 ] || [ "$correct" -ne 3 ]; then
        printf '%s\n' "$bench" >&2
        echo "perfbench: $correct of 3 workloads correct ($results result lines)" >&2
        exit 1
    fi
else
    echo "==> cargo check perfbench (the benchmark builds against the public API)"
    cargo check --offline --manifest-path perfbench/Cargo.toml
fi

echo "==> cargo doc --no-deps (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps

echo "==> all checks passed"
