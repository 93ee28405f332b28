#!/usr/bin/env bash
# Print the end-to-end metrics of all three workloads for one seed.
#
#   bash perfbench/report.sh [SEED]
#
# Run from the root of the source tree.  Each workload runs for 10 s of
# measurement, the run_seconds of BENCHMARK.json, and prints wall_s,
# peak_rss_mb, setup_s and error_rate with units and sample counts; the
# JSON line that ends each run is left out here.
set -euo pipefail
seed="${1:-1}"
for workload in cell-1e5 bounds hub-file; do
    python3 perfbench/run.py --workload "$workload" --seed "$seed" \
        --seconds 10 --trace 0 | grep -v '^{'
done
