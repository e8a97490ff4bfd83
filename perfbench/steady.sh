#!/usr/bin/env bash
# Same-code steadiness check: runs each workload on N seeds twice — side A
# on seeds 1..N, side B on seeds 101..100+N — with the command and run
# length BENCHMARK.json names, then compares the two sides. compare fails
# when a metric's quartile spread on either side exceeds its bound
# (setup_s exempt) or B's median is worse than A's by more than the bound.
#
#   bash perfbench/steady.sh [N] [workload ...]     (default: 10, all three)
#
# Run from the repository root; captures and logs go under
# .bench_build/steady/.
set -euo pipefail

runs=${1:-10}
shift || true
mapfile -t cmd < <(python3 -c 'import json; print("\n".join(json.load(open("BENCHMARK.json"))["command"]))')
secs=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
if [[ $# -gt 0 ]]; then
  workloads=("$@")
else
  mapfile -t workloads < <(python3 -c 'import json; print("\n".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
fi

out=.bench_build/steady
rm -rf "$out"
for side in A B; do
  base=0
  [[ $side == B ]] && base=100
  for w in "${workloads[@]}"; do
    for ((i = 1; i <= runs; i++)); do
      seed=$((base + i))
      mkdir -p "$out/logs"
      "${cmd[@]}" --workload "$w" --seed "$seed" --seconds "$secs" --trace 0 \
        -capture-dir "$out/$side" >"$out/logs/$side-$w-$seed.log" 2>&1
      tail -n 1 "$out/logs/$side-$w-$seed.log"
    done
  done
done
bash perfbench/run.sh compare "$out/A" "$out/B"
