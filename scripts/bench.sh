#!/usr/bin/env bash
# Kernel benchmark with a tracked baseline — refreshes BENCH_kernels.json.
#
#   ./scripts/bench.sh           # quick mode (default)
#   ./scripts/bench.sh --full    # more reps + more geometries
#
# Runs `bench_kernels` under the repo's build flags (.cargo/config.toml).
# A smoke variant for CI lives in scripts/check.sh (it never touches
# the tracked BENCH_kernels.json).

set -euo pipefail
cd "$(dirname "$0")/.."

mode="${1:---quick}"
case "$mode" in
--quick | --full) ;;
*)
    echo "usage: $0 [--quick|--full]" >&2
    exit 2
    ;;
esac

cargo run --release -p mime-bench --bin bench_kernels -- "$mode" --out BENCH_kernels.json

echo "==> wrote BENCH_kernels.json"
