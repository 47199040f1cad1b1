#!/usr/bin/env bash
# Run every workload of the benchmark, each in a fresh process.
#   perfbench/all.sh [SEED] [SECONDS] [TRACE]   (defaults: 0, 50, 0)
set -euo pipefail
cd "$(dirname "$0")/.."
for workload in detection lemma1; do
    python3 perfbench/run.py --workload "$workload" --seed "${1:-0}" --seconds "${2:-50}" --trace "${3:-0}"
done
