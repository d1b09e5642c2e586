#!/bin/bash
# Run every workload over a range of seeds and append each result to a
# JSON-lines file, the input of `bpbench --check A.jsonl B.jsonl`.
#   bash bench/sweep.sh OUT.jsonl [first-seed] [last-seed] [seconds] [trace]
set -eu
out=$1
first=${2:-1}
last=${3:-10}
seconds=${4:-20}
trace=${5:-0}
for seed in $(seq "$first" "$last"); do
  for w in local_compute local_json cluster_whole cluster_part3; do
    bash bench/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace "$trace" --out "$out" >/dev/null
  done
done
