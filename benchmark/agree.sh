#!/usr/bin/env bash
# The repeatability gate: run two full sets of the same build back to
# back (every workload end to end, then traced) and exit non-zero if any
# end-to-end median differs between the sets by more than its bound in
# BENCHMARK.json, if any run was incorrect, or if engine.cycles,
# engine.flit_moves or sim.paper_sat_err are not identical.
#
#   benchmark/agree.sh [seed]        # about six minutes on two cores
#
# For a parent-vs-change pair, run one set in each checkout (same seed,
# same --seconds) and compare the two files with
#   benchmark/run.sh --agree <parent.jsonl> <change.jsonl>
set -euo pipefail
cd "$(dirname "$0")/.."
seed=${1:-0}
mkdir -p benchmark/out

for set in a b; do
    file=benchmark/out/agree-$set.jsonl
    : > "$file"
    for trace in 0 1; do
        for workload in paper-sat paper-lowload scale-serial scale-shards serve-mix artifacts; do
            echo "set $set: $workload --trace $trace" >&2
            # A failed check exits non-zero after printing its result;
            # the comparison reports it.
            result=$(benchmark/run.sh --workload "$workload" --seed "$seed" --trace "$trace" | tail -n 1) || true
            printf '{"workload": "%s/trace%s", "result": %s}\n' "$workload" "$trace" "$result" >> "$file"
        done
    done
done

exec benchmark/run.sh --agree benchmark/out/agree-a.jsonl benchmark/out/agree-b.jsonl
