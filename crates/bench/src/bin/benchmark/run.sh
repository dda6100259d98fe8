#!/usr/bin/env bash
# Build the benchmark in release profile, pin it to one CPU, run it.
#
#   run.sh --workload W --seed S --seconds T --trace 0|1
#       one workload, one pass; the last line of standard output is the
#       JSON result object (the form BENCHMARK.json's `command` uses)
#   run.sh [--seed S] [--seconds T] [--repeat]
#       every workload, each pass in a process of its own, as tables;
#       --repeat runs two sets and fails when they disagree
#
# Run it from anywhere inside the checkout; see README.md beside it.
set -euo pipefail

dir=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$dir/../../../../.." && pwd)

# The benchmark is a package of its own (this directory must build by
# itself), so the workspace's [profile.release] does not reach it and
# Cargo.toml here repeats it. Refuse to measure once the two differ.
if [ ! -f "$root/Cargo.toml" ]; then
    echo "run.sh: no workspace manifest at $root; the benchmark measures the repository it is part of" >&2
    exit 2
fi
profile() { awk '/^\[/ { on = ($0 == "[profile.release]") } on && NF && !/^#/' "$1"; }
if [ "$(profile "$dir/Cargo.toml")" != "$(profile "$root/Cargo.toml")" ]; then
    echo "run.sh: [profile.release] in $dir/Cargo.toml differs from $root/Cargo.toml; copy the workspace's over" >&2
    exit 2
fi

# The driver sets CARGO_TARGET_DIR relative to its checkout, and cargo
# reads a relative one against the current directory; make it absolute
# so the binary is where we look for it.
target=${CARGO_TARGET_DIR:-$root/target/benchmark}
case $target in /*) ;; *) target=$PWD/$target ;; esac
export CARGO_TARGET_DIR=$target

# Build output goes to standard error: standard output is the report.
cargo build --release --offline --quiet --manifest-path "$dir/Cargo.toml" >&2
bin=$target/release/benchmark

# Every workload is token-serialized (one runnable rank at a time), so
# one core measures the program; spread over several vCPUs it measures
# the hypervisor's cross-CPU wakeups. Pin to the first allowed CPU and
# tell the binary which CPUs the unpinned probe may use.
allowed=$(awk '/^Cpus_allowed_list:/ {print $2}' /proc/self/status)
first=${allowed%%[-,]*}
export BENCHMARK_UNPINNED_CPUS=$allowed
pin=(taskset -c "$first")
if ! "${pin[@]}" true 2>/dev/null; then
    echo "run.sh: cannot pin to CPU $first with taskset; the benchmark will refuse to print numbers" >&2
    pin=()
fi

single=0
for arg in "$@"; do
    [ "$arg" = --workload ] && single=1
done

if [ "$single" = 1 ]; then
    # The driver allows a run 180 s; a hung universe must not outlive it.
    exec timeout -k 5 170 "${pin[@]}" "$bin" "$@"
fi

echo "env:"
echo "  nproc: $(nproc)  (allowed CPUs: $allowed)"
echo "  pin: ${pin[*]:-FAILED}"
echo "  rustc: $(rustc --version)"
if commit=$(git -C "$root" rev-parse --short HEAD 2>/dev/null); then
    [ -z "$(git -C "$root" status --porcelain 2>/dev/null)" ] || commit="$commit (working tree modified)"
else
    commit="unknown (not a git checkout)"
fi
echo "  commit: $commit"
echo "  profile: release"
exec "${pin[@]}" "$bin" "$@"
