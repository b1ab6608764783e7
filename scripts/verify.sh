#!/usr/bin/env bash
# Tier-1 verification: format, build, test, lint, smoke. Run from the
# repo root.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo build --release --workspace"
cargo build --release --workspace

echo "==> benchmark harness builds against the library + its unit tests"
# benchmark/ is its own workspace (path deps on crates/*), so the
# workspace build above never compiles it: a library refactor could
# break the harness unnoticed.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --manifest-path benchmark/Cargo.toml

echo "==> cargo test -q"
cargo test -q

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (warnings are errors) + doctests"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q
cargo test --doc --workspace -q

echo "==> repro_all --quick smoke"
SMOKE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR"' EXIT
cargo run --release -p bench --bin repro_all -- --quick --out "$SMOKE_DIR" \
  > "$SMOKE_DIR/stdout.txt"

# Every artifact the harness promises, plus its run manifest.
for stem in table1 table2 \
    fig5_uniform fig5_complement fig5_transpose fig5_bitrev \
    fig6_uniform fig6_complement fig6_transpose fig6_bitrev \
    fig7_uniform fig7_complement fig7_transpose fig7_bitrev \
    saturation; do
  for f in "$SMOKE_DIR/$stem.csv" "$SMOKE_DIR/$stem.manifest.json"; do
    [ -s "$f" ] || { echo "smoke: missing artifact $f" >&2; exit 1; }
  done
done
for f in "$SMOKE_DIR/report.md" "$SMOKE_DIR/plot.gp"; do
  [ -s "$f" ] || { echo "smoke: missing artifact $f" >&2; exit 1; }
done

# The manifests must be valid JSON with the expected schema, and the
# CSVs must parse with a stable header.
python3 - "$SMOKE_DIR" <<'EOF'
import csv, glob, json, sys
out = sys.argv[1]
manifests = glob.glob(out + "/*.manifest.json")
assert manifests, "no manifests written"
for path in manifests:
    with open(path) as f:
        m = json.load(f)
    assert m["schema"] == "netperf-run-manifest/1", path
    assert "seed_salt" in m and "counters" in m, path
for path in glob.glob(out + "/*.csv"):
    with open(path) as f:
        rows = list(csv.reader(f))
    assert len(rows) >= 2 and rows[0], path
print(f"smoke: {len(manifests)} manifests, all artifacts parse")
EOF

echo "==> traced telemetry smoke"
# Separate directory: traced manifests carry the /2 schema and must not
# trip the /1 assertion over the repro_all smoke dir above.
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$TRACE_DIR"' EXIT
cargo run --release --bin netperf -- run cube-duato-tiny --load 0.4 --quick \
  --trace "$TRACE_DIR/t" --csv "$TRACE_DIR/run.csv" > "$TRACE_DIR/stdout.txt"
cargo run --release -p bench --bin latency_breakdown -- --quick --out "$TRACE_DIR" \
  >> "$TRACE_DIR/stdout.txt"
for f in t.trace.jsonl t.trace.json t.breakdown.csv t.util.csv \
    run.csv run.manifest.json latency_breakdown.csv latency_breakdown.manifest.json; do
  [ -s "$TRACE_DIR/$f" ] || { echo "traced smoke: missing artifact $f" >&2; exit 1; }
done

# Validate the JSONL event log against the checked-in JSON schema
# (dependency-free validator covering the subset the schema uses),
# the Chrome trace envelope, the /2 manifests and the decomposition
# identity in the breakdown CSVs.
python3 - "$TRACE_DIR" scripts/trace.schema.json <<'EOF'
import csv, json, sys
out, schema_path = sys.argv[1], sys.argv[2]
schema = json.load(open(schema_path))

def check(obj, sch, path="$"):
    if "const" in sch and obj != sch["const"]:
        return f"{path}: {obj!r} != const {sch['const']!r}"
    if "enum" in sch and obj not in sch["enum"]:
        return f"{path}: {obj!r} not in enum"
    t = sch.get("type")
    if t == "object" and not isinstance(obj, dict):
        return f"{path}: not an object"
    if isinstance(obj, dict):
        for key in sch.get("required", []):
            if key not in obj:
                return f"{path}: missing required {key}"
        props = sch.get("properties", {})
        if sch.get("additionalProperties", True) is False:
            for key in obj:
                if key not in props:
                    return f"{path}: unexpected key {key}"
        for key, sub in props.items():
            if key in obj:
                err = check(obj[key], sub, f"{path}.{key}")
                if err:
                    return err
    if t == "integer":
        if not isinstance(obj, int) or isinstance(obj, bool):
            return f"{path}: not an integer"
        if "minimum" in sch and obj < sch["minimum"]:
            return f"{path}: {obj} < minimum {sch['minimum']}"
    elif t == "boolean":
        if not isinstance(obj, bool):
            return f"{path}: not a boolean"
    if "oneOf" in sch:
        hits = [s for s in sch["oneOf"] if check(obj, s, path) is None]
        if len(hits) != 1:
            return f"{path}: matches {len(hits)} oneOf branches, want 1"
    return None

n = 0
with open(out + "/t.trace.jsonl") as f:
    for i, line in enumerate(f, 1):
        err = check(json.loads(line), schema)
        assert err is None, f"t.trace.jsonl line {i}: {err}"
        n += 1
assert n > 0, "empty event log"

chrome = json.load(open(out + "/t.trace.json"))
assert chrome["traceEvents"], "empty Chrome trace"
assert chrome["displayTimeUnit"] == "ms"
phases = {e.get("ph") for e in chrome["traceEvents"]}
assert "X" in phases and "M" in phases, f"unexpected phase set {phases}"

for name in ("run", "latency_breakdown"):
    m = json.load(open(f"{out}/{name}.manifest.json"))
    assert m["schema"] == "netperf-run-manifest/2", name
    assert m["telemetry"]["stride"] >= 1, name

for name, cols in (("t.breakdown", None), ("latency_breakdown", "mean")):
    with open(f"{out}/{name}.csv") as f:
        rows = list(csv.DictReader(f))
    assert rows, f"{name}.csv is empty"
    pre = "mean_" if cols else ""
    tol = 1e-6 if cols else 0
    for row in rows:
        parts = sum(float(row[pre + c]) for c in ("src_queue", "routing", "blocked", "transfer"))
        total = float(row[pre + "total"] if cols else row["total"])
        assert abs(parts - total) <= tol, f"{name}.csv: {parts} != {total}"
print(f"traced smoke: {n} events valid, decomposition sums check out")
EOF

echo "==> fault-plane smoke"
# Separate directory again: faulted manifests carry the /3 schema and
# must not trip the /1 and /2 assertions above.
FAULT_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$TRACE_DIR" "$FAULT_DIR"' EXIT
cargo run --release --bin netperf -- run cube-duato-tiny --load 0.4 --quick \
  --faults links=0.1,routers=1 --csv "$FAULT_DIR/run.csv" > "$FAULT_DIR/stdout.txt"
cargo run --release -p bench --bin fault_sweep -- --quick --out "$FAULT_DIR" \
  >> "$FAULT_DIR/stdout.txt" 2>&1
# A malformed spec must fail structured: exit 2, one "error:" line.
if cargo run --release -q --bin netperf -- run cube-duato-tiny --faults bogus \
    2> "$FAULT_DIR/err.txt"; then
  echo "fault smoke: bad --faults spec was accepted" >&2; exit 1
fi
grep -q '^error:' "$FAULT_DIR/err.txt" \
  || { echo "fault smoke: unstructured error output" >&2; cat "$FAULT_DIR/err.txt" >&2; exit 1; }

python3 - "$FAULT_DIR" <<'EOF'
import csv, json, sys
out = sys.argv[1]
for name in ("run", "fault_sweep"):
    m = json.load(open(f"{out}/{name}.manifest.json"))
    assert m["schema"] == "netperf-run-manifest/3", name
    assert "dropped_packets" in m["counters"], name
scenarios = json.load(open(out + "/fault_sweep.manifest.json"))["scenarios"]
assert scenarios and all("faults" in s for s in scenarios)
for s in scenarios:
    assert s["faults"]["spec"] and s["faults"]["digest"].startswith("0x")
with open(out + "/fault_sweep.csv") as f:
    rows = list(csv.DictReader(f))
configs = {r["config"] for r in rows}
fracs = {r["fault_fraction"] for r in rows}
assert len(configs) == 5, f"want 5 configs, got {sorted(configs)}"
assert len(fracs) >= 3, f"want >=3 fault fractions, got {sorted(fracs)}"
any_dropped = False
for r in rows:
    created, delivered = int(float(r["created_packets"])), int(float(r["delivered_packets"]))
    dropped, unroutable = int(float(r["dropped_packets"])), int(float(r["unroutable_packets"]))
    if float(r["fault_fraction"]) == 0:
        assert dropped == 0 and unroutable == 0, r
    any_dropped |= dropped > 0
    # Counters are windowed (post-warm-up); packets in flight at the
    # window boundary allow a small carryover, so the accounting check
    # is exact only after drain (tests/fault_plane.rs) and bounded here.
    assert delivered + dropped + unroutable <= created + 0.1 * created + 64, r
assert any_dropped, "no faulted row dropped anything"
print(f"fault smoke: {len(rows)} rows, 5 configs x {len(fracs)} fractions, accounting holds")
EOF

echo "==> shard-equivalence smoke"
# A sharded run is an execution detail: the CSV must be byte-identical
# to the serial run's, and the manifest identical up to wall-clock
# time. Same relative artifact name in both directories so the
# manifests' "artifact" fields match too.
SHARD_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$TRACE_DIR" "$FAULT_DIR" "$SHARD_DIR"' EXIT
mkdir -p "$SHARD_DIR/serial" "$SHARD_DIR/sharded"
( cd "$SHARD_DIR/serial" && "$OLDPWD/target/release/netperf" run cube-duato-tiny \
    --load 0.4 --quick --csv run.csv > stdout.txt )
( cd "$SHARD_DIR/sharded" && "$OLDPWD/target/release/netperf" run cube-duato-tiny \
    --load 0.4 --quick --shards 2 --csv run.csv > stdout.txt )
cmp "$SHARD_DIR/serial/run.csv" "$SHARD_DIR/sharded/run.csv" \
  || { echo "shard smoke: sharded CSV differs from serial" >&2; exit 1; }
diff <(grep -v '"wall_clock_secs"' "$SHARD_DIR/serial/run.manifest.json") \
     <(grep -v '"wall_clock_secs"' "$SHARD_DIR/sharded/run.manifest.json") \
  || { echo "shard smoke: sharded manifest differs from serial" >&2; exit 1; }
# Bad shard counts must fail structured: exit 2, one "error:" line.
if cargo run --release -q --bin netperf -- run cube-duato-tiny --shards 0 \
    2> "$SHARD_DIR/err.txt"; then
  echo "shard smoke: --shards 0 was accepted" >&2; exit 1
fi
grep -q '^error:' "$SHARD_DIR/err.txt" \
  || { echo "shard smoke: unstructured error output" >&2; cat "$SHARD_DIR/err.txt" >&2; exit 1; }
if NETPERF_THREADS=abc cargo run --release -q --bin netperf -- \
    run cube-duato-tiny --quick 2> "$SHARD_DIR/err2.txt"; then
  echo "shard smoke: bad NETPERF_THREADS was accepted" >&2; exit 1
fi
grep -q '^error:' "$SHARD_DIR/err2.txt" \
  || { echo "shard smoke: unstructured error output" >&2; cat "$SHARD_DIR/err2.txt" >&2; exit 1; }
echo "shard smoke: serial and --shards 2 artifacts are byte-identical"

echo "==> design-space smoke"
DESIGN_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$TRACE_DIR" "$FAULT_DIR" "$SHARD_DIR" "$DESIGN_DIR"' EXIT
cargo run --release --bin netperf -- design --nodes 256 --pin-budget 160 --quick \
  --out "$DESIGN_DIR/design_report" > "$DESIGN_DIR/stdout.txt"
for f in design_report.csv design_report.json design_report.manifest.json; do
  [ -s "$DESIGN_DIR/$f" ] || { echo "design smoke: missing artifact $f" >&2; exit 1; }
done
python3 - "$DESIGN_DIR" scripts/design_report.schema.json <<'EOF'
import csv, json, sys
out, schema_path = sys.argv[1], sys.argv[2]
schema = json.load(open(schema_path))

def check(obj, sch, path="$"):
    if "const" in sch and obj != sch["const"]:
        return f"{path}: {obj!r} != const {sch['const']!r}"
    if "enum" in sch and obj not in sch["enum"]:
        return f"{path}: {obj!r} not in enum"
    t = sch.get("type")
    if t == "object" and not isinstance(obj, dict):
        return f"{path}: not an object"
    if isinstance(obj, dict):
        for key in sch.get("required", []):
            if key not in obj:
                return f"{path}: missing required {key}"
        props = sch.get("properties", {})
        if sch.get("additionalProperties", True) is False:
            for key in obj:
                if key not in props:
                    return f"{path}: unexpected key {key}"
        for key, sub in props.items():
            if key in obj:
                err = check(obj[key], sub, f"{path}.{key}")
                if err:
                    return err
    if t == "integer":
        if not isinstance(obj, int) or isinstance(obj, bool):
            return f"{path}: not an integer"
    elif t == "number":
        if not isinstance(obj, (int, float)) or isinstance(obj, bool):
            return f"{path}: not a number"
    elif t == "boolean":
        if not isinstance(obj, bool):
            return f"{path}: not a boolean"
    elif t == "string":
        if not isinstance(obj, str):
            return f"{path}: not a string"
    elif t == "array":
        if not isinstance(obj, list):
            return f"{path}: not an array"
        for i, item in enumerate(obj):
            err = check(item, sch.get("items", {}), f"{path}[{i}]")
            if err:
                return err
    if t in ("integer", "number") and "minimum" in sch and obj < sch["minimum"]:
        return f"{path}: {obj} < minimum {sch['minimum']}"
    return None

report = json.load(open(out + "/design_report.json"))
err = check(report, schema)
assert err is None, f"design_report.json: {err}"
points = report["points"]
assert report["candidates"] == len(points)
budget = report["budget"]["pin_budget"]
feasible = [p for p in points if p["feasible"]]
assert report["feasible"] == len(feasible)
assert feasible, "no feasible design point at the paper's budget"
# Feasibility is exactly the pin predicate; ranks are contiguous from 1
# in descending measured-throughput order; only feasible points carry
# simulation results.
for p in points:
    assert p["feasible"] == (p["pins_per_router"] <= budget), p["id"]
    assert p["feasible"] == ("measured_bits_per_ns" in p), p["id"]
ranks = [p["rank"] for p in points if "rank" in p]
assert ranks == list(range(1, len(feasible) + 1)), ranks
measured = [p["measured_bits_per_ns"] for p in feasible]
assert measured == sorted(measured, reverse=True), "points not ranked"
# The paper's Section 10 ordering at equal cost: the 16-ary 2-cube
# beats every full fat-tree of the same node count.
by_id = {p["id"]: p for p in points}
cube = by_id["cube k=16 n=2 duato-4vc"]
trees = [p for p in feasible if p["family"] == "tree"]
assert trees and all(
    cube["measured_bits_per_ns"] > t["measured_bits_per_ns"] for t in trees
), "cube-vs-tree ordering not reproduced"
with open(out + "/design_report.csv") as f:
    rows = list(csv.DictReader(f))
assert len(rows) == len(points)
m = json.load(open(out + "/design_report.manifest.json"))
assert m["schema"] == "netperf-design-manifest/1"
assert m["available_parallelism"] >= 1
assert m["counters"]["simulated"] == len(feasible)
print(f"design smoke: {len(points)} points ({len(feasible)} feasible) validate; "
      f"best = {feasible[0]['id']}")
EOF

echo "==> scale_sweep --quick smoke"
cargo run --release -p bench --bin scale_sweep -- --quick --out "$SHARD_DIR" \
  > "$SHARD_DIR/stdout.txt" 2>&1
python3 - "$SHARD_DIR" <<'EOF'
import csv, json, sys
out = sys.argv[1]
panel = json.load(open(out + "/scale_sweep.json"))
assert panel["host_cpus"] >= 1 and panel["quick"] is True
assert panel["available_parallelism"] >= 1
cells = panel["cells"]
assert cells, "empty scale panel"
by_cfg = {}
for c in cells:
    by_cfg.setdefault(c["config"], []).append(c)
for cfg, group in by_cfg.items():
    moves = {c["flit_moves"] for c in group}
    assert len(moves) == 1, f"{cfg}: flit_moves differ across shard counts: {moves}"
    shard_counts = sorted(c["shards"] for c in group)
    assert shard_counts[0] == 1 and len(shard_counts) >= 3, (cfg, shard_counts)
with open(out + "/scale_sweep.csv") as f:
    rows = list(csv.DictReader(f))
assert len(rows) == len(cells)
print(f"scale smoke: {len(cells)} cells over {len(by_cfg)} sizes, counters agree")
EOF

echo "==> serving-plane smoke"
# Checkpoint/resume must be invisible (byte-identical CSV, manifest
# identical up to wall-clock), the result cache must make a repeat
# sweep 100% hits with byte-identical artifacts, and `netperf
# snapshot --json` must validate against the checked-in schema.
SERVE_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$TRACE_DIR" "$FAULT_DIR" "$SHARD_DIR" "$DESIGN_DIR" "$SERVE_DIR"' EXIT
NP="$PWD/target/release/netperf"
( cd "$SERVE_DIR" && "$NP" run cube-duato-tiny --load 0.4 --quick \
    --csv run.csv > base.txt 2> base.err )
cp "$SERVE_DIR/run.csv" "$SERVE_DIR/golden.csv"
cp "$SERVE_DIR/run.manifest.json" "$SERVE_DIR/golden.manifest.json"
( cd "$SERVE_DIR" && "$NP" run cube-duato-tiny --load 0.4 --quick \
    --checkpoint-every 700 --snapshot ck.bin --csv run.csv > ck.txt 2> ck.err )
( cd "$SERVE_DIR" && "$NP" run cube-duato-tiny --load 0.4 --quick \
    --resume ck.bin --csv run.csv > resumed.txt 2> resumed.err )
cmp "$SERVE_DIR/golden.csv" "$SERVE_DIR/run.csv" \
  || { echo "serving smoke: resumed CSV differs from uninterrupted" >&2; exit 1; }
diff <(grep -v '"wall_clock_secs"' "$SERVE_DIR/golden.manifest.json") \
     <(grep -v '"wall_clock_secs"' "$SERVE_DIR/run.manifest.json") \
  || { echo "serving smoke: resumed manifest differs from uninterrupted" >&2; exit 1; }
"$NP" snapshot --json "$SERVE_DIR/ck.bin" > "$SERVE_DIR/snapshot.json"

# A checkpoint written by an older build (tests/data/README.md) must
# still decode to its pinned state hash; the straight run must still
# write the committed CSV; and resuming it must be refused with one
# ident-mismatch line (its ident predates the derived scenario ident).
FIX="$PWD/tests/data"
( cd "$SERVE_DIR" && "$NP" run cube-duato-tiny --load 0.4 --cycles 3000 --warmup 1000 \
    --csv fixture.csv > fixture.txt 2> fixture.err )
cmp "$FIX/cube-duato-tiny.l040.csv" "$SERVE_DIR/fixture.csv" \
  || { echo "serving smoke: straight run no longer writes the committed CSV" >&2; exit 1; }
if "$NP" run cube-duato-tiny --load 0.4 --cycles 3000 --warmup 1000 \
    --resume "$FIX/cube-duato-tiny.l040.c2000.npck" 2> "$SERVE_DIR/fixture.err" > /dev/null; then
  echo "serving smoke: a checkpoint under a stale ident was resumed" >&2; exit 1
fi
[ "$(wc -l < "$SERVE_DIR/fixture.err")" -eq 1 ] && grep -q '^error: .*ident' "$SERVE_DIR/fixture.err" \
  || { echo "serving smoke: stale checkpoint not refused with one ident line" >&2; cat "$SERVE_DIR/fixture.err" >&2; exit 1; }
"$NP" snapshot --json "$FIX/cube-duato-tiny.l040.c2000.npck" \
  | grep -q '"state_hash": "0xf30b052de339dc2e"' \
  || { echo "serving smoke: committed checkpoint lost its pinned state hash" >&2; exit 1; }

# A corrupted checkpoint must fail structured: exit 2, one error line.
python3 - "$SERVE_DIR/ck.bin" "$SERVE_DIR/bad.bin" <<'EOF'
import sys
data = bytearray(open(sys.argv[1], "rb").read())
data[len(data) // 2] ^= 1
open(sys.argv[2], "wb").write(data)
EOF
if "$NP" run cube-duato-tiny --load 0.4 --quick --resume "$SERVE_DIR/bad.bin" \
    2> "$SERVE_DIR/err.txt" > /dev/null; then
  echo "serving smoke: corrupt checkpoint was accepted" >&2; exit 1
fi
grep -q '^error:' "$SERVE_DIR/err.txt" \
  || { echo "serving smoke: unstructured error output" >&2; cat "$SERVE_DIR/err.txt" >&2; exit 1; }

# Cold sweep populates the cache; the warm repeat must be all hits
# (zero engine cycles) with byte-identical CSV.
( cd "$SERVE_DIR" && "$NP" sweep cube-duato-tiny --quick --grid 0.2:0.6:0.2 \
    --cache store --csv sweep.csv > cold.txt 2> cold.err )
cp "$SERVE_DIR/sweep.csv" "$SERVE_DIR/sweep.golden.csv"
( cd "$SERVE_DIR" && "$NP" sweep cube-duato-tiny --quick --grid 0.2:0.6:0.2 \
    --cache store --csv sweep.csv > warm.txt 2> warm.err )
grep -q '^cache: 0 hits, 3 misses$' "$SERVE_DIR/cold.txt" \
  || { echo "serving smoke: cold sweep miscounted" >&2; cat "$SERVE_DIR/cold.txt" >&2; exit 1; }
grep -q '^cache: 3 hits, 0 misses$' "$SERVE_DIR/warm.txt" \
  || { echo "serving smoke: warm sweep was not all hits" >&2; cat "$SERVE_DIR/warm.txt" >&2; exit 1; }
cmp "$SERVE_DIR/sweep.golden.csv" "$SERVE_DIR/sweep.csv" \
  || { echo "serving smoke: warm CSV differs from cold" >&2; exit 1; }

# One spool round-trip through `netperf serve` (the request hits the
# already-warm cache, so this is fast).
mkdir -p "$SERVE_DIR/spool"
printf '{"id": "v1", "op": "sweep", "name": "cube-duato-tiny", "quick": "true", "grid": "0.2:0.6:0.2"}\n' \
  > "$SERVE_DIR/spool/001.json"
( cd "$SERVE_DIR" && "$NP" serve --spool spool --once --cache store 2> serve.err )
grep -q '"status": "ok"' "$SERVE_DIR/spool/001.resp.json" \
  || { echo "serving smoke: serve response not ok" >&2; cat "$SERVE_DIR/spool/001.resp.json" >&2; exit 1; }
[ -f "$SERVE_DIR/spool/001.done" ] \
  || { echo "serving smoke: request not marked done" >&2; exit 1; }

# One stdin session: a bad line is answered with an error response and
# the same process goes on to answer the good line after it.
( cd "$SERVE_DIR" && printf '%s\n' 'not json' \
    '{"id": "s2", "op": "run", "name": "cube-duato-tiny", "quick": "true", "load": "0.4"}' \
    | "$NP" serve --cache store > session.txt 2> session.err ) \
  || { echo "serving smoke: serve exited non-zero on a bad line" >&2; exit 1; }
[ "$(wc -l < "$SERVE_DIR/session.txt")" -eq 2 ] \
  || { echo "serving smoke: want two responses" >&2; cat "$SERVE_DIR/session.txt" >&2; exit 1; }
sed -n 1p "$SERVE_DIR/session.txt" | grep -q '"status": "error", "exit_code": 2' \
  || { echo "serving smoke: bad line not answered with an error" >&2; exit 1; }
sed -n 2p "$SERVE_DIR/session.txt" | grep -qx '{"id": "s2", "status": "ok", "exit_code": 0}' \
  || { echo "serving smoke: good line after a bad one not served" >&2; exit 1; }

python3 - "$SERVE_DIR" scripts/snapshot.schema.json <<'EOF'
import json, re, sys
out, schema_path = sys.argv[1], sys.argv[2]
schema = json.load(open(schema_path))

def check(obj, sch, path="$"):
    if "const" in sch and obj != sch["const"]:
        return f"{path}: {obj!r} != const {sch['const']!r}"
    if "enum" in sch and obj not in sch["enum"]:
        return f"{path}: {obj!r} not in enum"
    t = sch.get("type")
    if t == "object" and not isinstance(obj, dict):
        return f"{path}: not an object"
    if isinstance(obj, dict):
        for key in sch.get("required", []):
            if key not in obj:
                return f"{path}: missing required {key}"
        props = sch.get("properties", {})
        if sch.get("additionalProperties", True) is False:
            for key in obj:
                if key not in props:
                    return f"{path}: unexpected key {key}"
        for key, sub in props.items():
            if key in obj:
                err = check(obj[key], sub, f"{path}.{key}")
                if err:
                    return err
    if t == "integer":
        if not isinstance(obj, int) or isinstance(obj, bool):
            return f"{path}: not an integer"
        if "minimum" in sch and obj < sch["minimum"]:
            return f"{path}: {obj} < minimum {sch['minimum']}"
    elif t == "boolean":
        if not isinstance(obj, bool):
            return f"{path}: not a boolean"
    elif t == "string":
        if not isinstance(obj, str):
            return f"{path}: not a string"
        if "pattern" in sch and not re.search(sch["pattern"], obj):
            return f"{path}: {obj!r} does not match {sch['pattern']}"
    if "not" in sch and check(obj, sch["not"], path) is None:
        return f"{path}: matches forbidden sub-schema"
    if "oneOf" in sch:
        hits = [s for s in sch["oneOf"] if check(obj, s, path) is None]
        if len(hits) != 1:
            return f"{path}: matches {len(hits)} oneOf branches, want 1"
    return None

info = json.load(open(out + "/snapshot.json"))
err = check(info, schema)
assert err is None, f"snapshot.json: {err}"
assert info["format"] == "NPCK" and info["warmed_up"] is True

# The warm-sweep manifest differs from cold only in wall clock and
# hit/miss counts.
cold = json.load(open(out + "/sweep.manifest.json"))
assert cold["cache"] == {"hits": 3, "misses": 0}
resp = json.load(open(out + "/spool/001.resp.json"))
assert resp == {"id": "v1", "status": "ok", "exit_code": 0}, resp
print("serving smoke: resume byte-identical, warm cache all hits, "
      "snapshot info validates")
EOF

echo "==> stepper-equivalence smoke"
# The stepper and the shard count are execution details behind the
# bit-identity contract: the CSV from the `reference` audit and from a
# 4-shard run must be byte-identical to the default run's, and the
# manifest identical up to wall-clock time. The audit needs the
# reference-engine feature, which only the --workspace build enables
# (the `cargo run --bin netperf` smokes above relink netperf without).
cargo build --release --workspace -q
STEP_DIR="$(mktemp -d)"
trap 'rm -rf "$SMOKE_DIR" "$TRACE_DIR" "$FAULT_DIR" "$SHARD_DIR" "$DESIGN_DIR" "$SERVE_DIR" "$STEP_DIR"' EXIT
step_run() { # <dir> [extra flags...]
  local dir="$STEP_DIR/$1"; shift
  mkdir -p "$dir"
  ( cd "$dir" && "$NP" run cube-duato-tiny --load 0.4 --quick "$@" --csv run.csv > stdout.txt )
}
step_run default
step_run reference --stepper reference
step_run sharded --shards 4
step_run reference-sharded --stepper reference --shards 4
for mode in reference sharded reference-sharded; do
  cmp "$STEP_DIR/default/run.csv" "$STEP_DIR/$mode/run.csv" \
    || { echo "stepper smoke: $mode CSV differs from default" >&2; exit 1; }
  diff <(grep -v '"wall_clock_secs"' "$STEP_DIR/default/run.manifest.json") \
       <(grep -v '"wall_clock_secs"' "$STEP_DIR/$mode/run.manifest.json") \
    || { echo "stepper smoke: $mode manifest differs from default" >&2; exit 1; }
done
# A bogus stepper name (a retired kernel's included) must fail
# structured: exit 2, one "error:" line.
for name in bogus soa; do
  if "$NP" run cube-duato-tiny --quick --stepper "$name" 2> "$STEP_DIR/err.txt" > /dev/null; then
    echo "stepper smoke: --stepper $name was accepted" >&2; exit 1
  fi
  grep -q '^error:' "$STEP_DIR/err.txt" \
    || { echo "stepper smoke: unstructured error output" >&2; cat "$STEP_DIR/err.txt" >&2; exit 1; }
done
echo "stepper smoke: default, reference, 4-shard and reference+4-shard artifacts are byte-identical"

echo "==> bench_engine --quick schema smoke"
# Quick mode exists for exactly this: assert the BENCH_engine.json
# schema without the full timing run. Never writes the committed
# BENCH_engine.json.
cargo run --release -p bench --bin bench_engine -- --quick \
  --out "$STEP_DIR/bench.json" > "$STEP_DIR/bench_stdout.txt"
python3 - "$STEP_DIR/bench.json" <<'EOF'
import json, sys
b = json.load(open(sys.argv[1]))
assert b["benchmark"].startswith("engine kernel"), b.get("benchmark")
assert b["quick"] is True, "verify must use --quick, not the committed protocol"
for key in ("protocol", "seed_salt", "mean_low_load_speedup", "mean_probe_overhead",
            "wheel_low_load_speedup", "wheel_saturation_speedup",
            "wheel_drain_tail_speedup", "sharded_low_load_speedup",
            "sharded_saturation_speedup", "sharded_drain_tail_speedup"):
    assert key in b, f"missing summary key {key}"
runs = b["runs"]
assert runs, "no bench runs recorded"
for r in runs:
    for leg in ("default", "every_cycle", "sharded", "baseline", "traced"):
        assert r[leg]["seconds"] > 0, (r["config"], leg)
        assert r[leg]["cycles_per_sec"] > 0, (r["config"], leg)
    for ratio in ("speedup", "wheel_speedup", "sharded_speedup"):
        assert r[ratio] > 0, (r["config"], ratio)
    assert r["probe_overhead"] >= 0, (r["config"], "probe_overhead must be floored at 0")
drains = b["drain_tail"]["runs"]
assert drains, "no drain-tail runs recorded"
for d in drains:
    for leg in ("default", "every_cycle", "sharded"):
        assert d[leg]["seconds"] > 0, (d["config"], leg)
    for ratio in ("wheel_speedup", "sharded_speedup"):
        assert d[ratio] > 0, (d["config"], ratio)
print(f"bench smoke: {len(runs)} quick runs + {len(drains)} drain-tail runs, "
      "schema holds (default/every_cycle/sharded/baseline/traced legs present)")
EOF

echo "verify: OK"
