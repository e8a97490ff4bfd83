#!/usr/bin/env bash
# fabric_smoke.sh — end-to-end smoke test of the distributed check fabric
# as real processes: two accserve workers, one coordinator over them, a
# mixed /v1/batch through the coordinator, and a verdict-by-verdict
# comparison against a direct single-worker answer.
#
# fabric_smoke.sh --chaos runs the self-healing scenario instead: a
# coordinator born with an EMPTY membership table, three workers that
# self-register via -join, a SIGKILL of one worker mid-batch, and a
# replacement join — asserting every answer is either exact or an honest
# coverage-tagged partial, and that the killed worker's lease evicts it.
#
# fabric_smoke.sh --budget-storm runs the anytime scenario: a coordinator
# over two workers takes the SAME check again and again under tiny doubling
# budgets, asserting every answer is exact or an honest resumable partial
# (coverage declared, truncated, Retry-After on 200-partials), coverage
# never regresses across rounds, and the storm converges to the exact
# verdict a direct single-worker check gives. A machine fast enough to
# answer the first round exactly passes trivially — the assertions hold
# either way.
#
# fabric_smoke.sh --warm-restart runs the persistent-cache scenario: two
# workers each with their own -cache-dir under a coordinator, a warming
# batch, then a SIGTERM of one worker (graceful drain flushes its exact
# results to the disk tier) and a restart over the SAME directory —
# asserting the restarted process answers the repeat batch with identical
# verdicts, zero solves, and counted disk-tier hits. A fresh coordinator
# over the same two workers (empty merged cache, same ring) then sends the
# batch again: its shard groups must reach the restarted worker's disk tier
# with zero shard solves.
#
# Exits non-zero on any non-200 answer or verdict mismatch. Requires only
# the go toolchain and python3 (for JSON comparison); picks free ports
# itself.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=default
if [[ "${1:-}" == "--chaos" ]]; then MODE=chaos; fi
if [[ "${1:-}" == "--budget-storm" ]]; then MODE=budget-storm; fi
if [[ "${1:-}" == "--warm-restart" ]]; then MODE=warm-restart; fi

workdir=$(mktemp -d)
pids=()
cleanup() {
  for pid in "${pids[@]}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$workdir"
}
trap cleanup EXIT

echo "== building accserve"
go build -o "$workdir/accserve" ./cmd/accserve

pick_port() {
  python3 - <<'EOF'
import socket
s = socket.socket()
s.bind(("127.0.0.1", 0))
print(s.getsockname()[1])
s.close()
EOF
}

wait_up() {
  local url=$1
  for _ in $(seq 1 50); do
    if curl -fsS -o /dev/null "$url/healthz"; then return 0; fi
    sleep 0.1
  done
  echo "server at $url never came up" >&2
  return 1
}

batch='{
  "requests": [
    {"relations": ["Mobile#:string,string,string,int", "Address:string,string,string,int"],
     "methods": ["AcM1:Mobile#:0", "AcM2:Address:0,1"],
     "formula": "(![exists n,p,s,ph. pre Mobile#(n,p,s,ph)]) U [exists n. bind AcM1(n)]"},
    {"relations": ["Mobile#:string,string,string,int", "Address:string,string,string,int"],
     "methods": ["AcM1:Mobile#:0", "AcM2:Address:0,1"],
     "formula": "[exists n,p,s,ph. pre Mobile#(n,p,s,ph)] & (![exists n,p,s,ph. pre Mobile#(n,p,s,ph)])"},
    {"relations": ["Mobile#:string,string,string,int", "Address:string,string,string,int"],
     "methods": ["AcM1:Mobile#:0", "AcM2:Address:0,1"],
     "formula": "[exists n. bind AcM1(n)]",
     "options": {"grounded": true}}
  ]
}'

if [[ $MODE == chaos ]]; then
  C_PORT=$(pick_port); W1_PORT=$(pick_port); W2_PORT=$(pick_port); W3_PORT=$(pick_port); W4_PORT=$(pick_port)
  C="http://127.0.0.1:$C_PORT"
  W2="http://127.0.0.1:$W2_PORT"

  echo "== chaos: coordinator on $C with an empty membership table"
  "$workdir/accserve" -coordinator -addr "127.0.0.1:$C_PORT" \
    -dispatch-retries 2 -breaker-threshold 1 -breaker-cooldown 10s &
  pids+=($!)

  # /healthz 503s while the table is empty — watch membership converge via
  # the admin view instead.
  wait_members() {
    local want=$1
    for _ in $(seq 1 100); do
      got=$(curl -fsS "$C/v1/workers" 2>/dev/null \
        | python3 -c 'import json,sys; print(json.load(sys.stdin)["members"])' 2>/dev/null || echo "")
      if [[ "$got" == "$want" ]]; then return 0; fi
      sleep 0.1
    done
    echo "membership never reached $want members (last: ${got:-unreachable})" >&2
    curl -fsS "$C/v1/workers" >&2 || true
    return 1
  }
  wait_members 0

  # start_worker leaves the new process's PID in LAST_WORKER_PID (a plain
  # function, not a command substitution, so the pids cleanup array grows).
  start_worker() {
    local port=$1
    "$workdir/accserve" -worker -addr "127.0.0.1:$port" \
      -join "$C" -advertise "http://127.0.0.1:$port" -lease-ttl 2s &
    LAST_WORKER_PID=$!
    pids+=("$LAST_WORKER_PID")
  }

  echo "== chaos: three workers self-register via /v1/join"
  start_worker "$W1_PORT"; W1_PID=$LAST_WORKER_PID
  start_worker "$W2_PORT"
  start_worker "$W3_PORT"
  wait_members 3
  wait_up "$W2"

  echo "== chaos: batch in flight, SIGKILL worker :$W1_PORT mid-batch"
  curl -fsS -X POST "$C/v1/batch" -H 'Content-Type: application/json' \
    -d "$batch" > "$workdir/chaos1.json" &
  BATCH_PID=$!
  sleep 0.05
  kill -9 "$W1_PID" 2>/dev/null || true
  wait "$BATCH_PID"

  curl -fsS -X POST "$W2/v1/batch" -H 'Content-Type: application/json' \
    -d "$batch" > "$workdir/direct.json"

  python3 - "$workdir/chaos1.json" "$workdir/direct.json" <<'EOF'
import json, sys
fabric = json.load(open(sys.argv[1]))["results"]
direct = json.load(open(sys.argv[2]))["results"]
if len(fabric) != len(direct):
    sys.exit(f"item counts differ: {len(fabric)} vs {len(direct)}")
fields = ["satisfiable", "fragment", "in_fragment", "decidable",
          "engine", "truncated", "depth"]
partials = 0
for i, (f, d) in enumerate(zip(fabric, direct)):
    if "error" in f:
        sys.exit(f"item {i} errored during chaos (failover should absorb a kill): {f['error']}")
    fr, dr = f["result"], d["result"]
    done, total = fr.get("shards_completed", 0), fr.get("shards_total", 0)
    if total and done < total:
        # Honest partial: coverage declared, truncation flagged.
        if not fr.get("truncated"):
            sys.exit(f"item {i}: partial cover {done}/{total} without truncated")
        partials += 1
        continue
    for k in fields:
        if fr.get(k) != dr.get(k):
            sys.exit(f"item {i}: {k} = {fr.get(k)!r} via chaos fabric, {dr.get(k)!r} direct")
print(f"chaos batch: {len(fabric)} items, {partials} honest partial(s), rest exact")
EOF

  echo "== chaos: lease of the killed worker lapses (no coordinator restart)"
  wait_members 2
  curl -fsS "$C/metrics" | grep -q '^accserve_registry_expirations_total [1-9]' || {
    echo "killed worker's lease never expired" >&2; exit 1; }

  echo "== chaos: replacement worker joins on :$W4_PORT"
  start_worker "$W4_PORT"
  wait_members 3

  curl -fsS -X POST "$C/v1/batch" -H 'Content-Type: application/json' \
    -d "$batch" > "$workdir/chaos2.json"
  python3 - "$workdir/chaos2.json" "$workdir/direct.json" <<'EOF'
import json, sys
fabric = json.load(open(sys.argv[1]))["results"]
direct = json.load(open(sys.argv[2]))["results"]
fields = ["satisfiable", "fragment", "in_fragment", "decidable",
          "engine", "truncated", "depth"]
for i, (f, d) in enumerate(zip(fabric, direct)):
    if "error" in f:
        sys.exit(f"item {i} errored after heal: {f['error']}")
    fr, dr = f["result"], d["result"]
    done, total = fr.get("shards_completed", 0), fr.get("shards_total", 0)
    if total and done < total:
        sys.exit(f"item {i}: still partial ({done}/{total}) after the replacement joined")
    for k in fields:
        if fr.get(k) != dr.get(k):
            sys.exit(f"item {i}: {k} = {fr.get(k)!r} via healed fabric, {dr.get(k)!r} direct")
print(f"healed batch: all {len(fabric)} items exact")
EOF

  curl -fsS "$C/metrics" | grep -q '^accserve_registry_joins_total [1-9]' || {
    echo "joins not counted" >&2; exit 1; }
  echo "fabric smoke (chaos): OK"
  exit 0
fi

if [[ $MODE == budget-storm ]]; then
  W1_PORT=$(pick_port); W2_PORT=$(pick_port); C_PORT=$(pick_port)
  W1="http://127.0.0.1:$W1_PORT"; W2="http://127.0.0.1:$W2_PORT"; C="http://127.0.0.1:$C_PORT"

  echo "== budget-storm: workers on $W1 $W2, coordinator on $C"
  "$workdir/accserve" -worker -addr "127.0.0.1:$W1_PORT" &
  pids+=($!)
  "$workdir/accserve" -worker -addr "127.0.0.1:$W2_PORT" &
  pids+=($!)
  "$workdir/accserve" -coordinator -fabric-workers "$W1,$W2" -addr "127.0.0.1:$C_PORT" &
  pids+=($!)
  wait_up "$W1"; wait_up "$W2"; wait_up "$C"

  echo "== budget-storm: identical check under tiny doubling budgets"
  python3 - "$C" "$W1" <<'EOF'
import json, sys, urllib.request, urllib.error

coord, worker = sys.argv[1], sys.argv[2]
# A deliberately wide unsat check (many root shards, several hundred
# paths) so µs-to-ms budgets actually interrupt the search somewhere.
req = {
    "relations": ["Mobile#:string,string,string,int", "Address:string,string,string,int",
                  "Email:string,string", "Phone:string,string",
                  "Fax:string,string", "Pager:string,string"],
    "methods": ["AcM1:Mobile#:0", "AcM2:Address:0,1", "AcM3:Email:0", "AcM4:Phone:0",
                "AcM5:Email:1", "AcM6:Phone:1", "AcM7:Fax:0", "AcM8:Fax:1",
                "AcM9:Pager:0", "AcM10:Pager:1"],
    "formula": ("[exists n,p,s,ph. pre Mobile#(n,p,s,ph)]"
                " & (![exists n,p,s,ph. pre Mobile#(n,p,s,ph)])"
                " & [exists a,b. pre Email(a,b)] & [exists a2,b2. pre Email(a2,b2)]"
                " & [exists c,d. pre Phone(c,d)] & [exists c2,d2. pre Phone(c2,d2)]"
                " & [exists e1,e2. pre Fax(e1,e2)] & [exists g1,g2. pre Pager(g1,g2)]"),
    "options": {"max_depth": 4, "engine": "bounded"},
}

def post(base, body, budget=None):
    url = base + "/v1/check" + (f"?budget={budget}" if budget else "")
    data = json.dumps(body).encode()
    r = urllib.request.Request(url, data=data, headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(r, timeout=30) as resp:
            return resp.status, dict(resp.headers), json.load(resp)
    except urllib.error.HTTPError as e:
        return e.code, dict(e.headers), json.loads(e.read() or b"{}")

_, _, direct = post(worker, req, "30s")

budget_us = 500  # 500µs: almost certainly too small for the first rounds
prev_cov = 0.0
partials = 0
final = None
for rnd in range(40):
    status, headers, body = post(coord, req, f"{budget_us}us")
    budget_us *= 2
    if status != 200:
        # An honest refusal must be machine-readable: a cause-coded 504
        # (zero-progress expiry) or a Retry-After'd 503.
        code = body.get("code", "")
        if status == 504 and code in ("budget_exhausted", "deadline_exceeded"):
            continue
        if status == 503 and code == "no_healthy_workers":
            continue
        sys.exit(f"round {rnd}: unexpected refusal {status} {body}")
    cov = body.get("coverage", 0)
    if cov < prev_cov:
        sys.exit(f"round {rnd}: coverage regressed {prev_cov} -> {cov}")
    prev_cov = cov
    if body.get("resumable"):
        partials += 1
        if not body.get("truncated"):
            sys.exit(f"round {rnd}: resumable partial not marked truncated: {body}")
        if not (0 < cov < 1):
            sys.exit(f"round {rnd}: resumable partial coverage {cov} not in (0,1)")
        if "Retry-After" not in headers:
            sys.exit(f"round {rnd}: 200-partial carries no Retry-After header")
        continue
    final = body
    break
if final is None:
    sys.exit("storm never settled in 40 doubling rounds")
if final.get("coverage") != 1:
    sys.exit(f"settled answer has coverage {final.get('coverage')}, want 1")
for k in ("satisfiable", "truncated", "fragment", "engine"):
    if final.get(k) != direct.get(k):
        sys.exit(f"settled {k} = {final.get(k)!r}, direct worker says {direct.get(k)!r}")
print(f"budget storm: settled exactly after {partials} honest partial(s)")
EOF

  # A storm that saw partials must have resumed at least once; on a machine
  # fast enough to answer round one exactly there is nothing to resume.
  curl -fsS "$C/metrics" | grep -q '^accserve_coordinator_checks_total [1-9]' || {
    echo "coordinator answered no checks" >&2; exit 1; }
  echo "fabric smoke (budget-storm): OK"
  exit 0
fi

if [[ $MODE == warm-restart ]]; then
  W1_PORT=$(pick_port); W2_PORT=$(pick_port); C_PORT=$(pick_port)
  W1="http://127.0.0.1:$W1_PORT"; W2="http://127.0.0.1:$W2_PORT"; C="http://127.0.0.1:$C_PORT"
  mkdir -p "$workdir/cache1" "$workdir/cache2"

  echo "== warm-restart: workers on $W1 $W2 with persistent cache dirs"
  "$workdir/accserve" -worker -addr "127.0.0.1:$W1_PORT" -cache-dir "$workdir/cache1" &
  W1_PID=$!; pids+=("$W1_PID")
  "$workdir/accserve" -worker -addr "127.0.0.1:$W2_PORT" -cache-dir "$workdir/cache2" &
  pids+=($!)
  "$workdir/accserve" -coordinator -fabric-workers "$W1,$W2" -addr "127.0.0.1:$C_PORT" &
  pids+=($!)
  wait_up "$W1"; wait_up "$W2"; wait_up "$C"

  echo "== warm-restart: warming batch (direct to worker 1 and through the coordinator)"
  curl -fsS -X POST "$W1/v1/batch" -H 'Content-Type: application/json' \
    -d "$batch" > "$workdir/warm.json"
  curl -fsS -X POST "$C/v1/batch" -H 'Content-Type: application/json' \
    -d "$batch" > /dev/null

  echo "== warm-restart: SIGTERM worker 1 (graceful drain flushes the disk tier)"
  kill -TERM "$W1_PID"
  wait "$W1_PID" 2>/dev/null || true
  if ! ls "$workdir/cache1"/* >/dev/null 2>&1; then
    echo "worker 1 left no disk-tier segments in its cache dir" >&2; exit 1
  fi

  echo "== warm-restart: restarting worker 1 over the same -cache-dir"
  "$workdir/accserve" -worker -addr "127.0.0.1:$W1_PORT" -cache-dir "$workdir/cache1" &
  pids+=($!)
  wait_up "$W1"

  curl -fsS -X POST "$W1/v1/batch" -H 'Content-Type: application/json' \
    -d "$batch" > "$workdir/restarted.json"

  python3 - "$workdir/warm.json" "$workdir/restarted.json" <<'EOF'
import json, sys
warm = json.load(open(sys.argv[1]))["results"]
restarted = json.load(open(sys.argv[2]))["results"]
if len(warm) != len(restarted):
    sys.exit(f"item counts differ: {len(warm)} vs {len(restarted)}")
fields = ["satisfiable", "fragment", "in_fragment", "decidable",
          "engine", "truncated", "depth", "witness"]
served = 0
for i, (w, r) in enumerate(zip(warm, restarted)):
    if "error" in w or "error" in r:
        sys.exit(f"item {i} errored: warm {w} restarted {r}")
    wr, rr = w["result"], r["result"]
    for k in fields:
        if wr.get(k) != rr.get(k):
            sys.exit(f"item {i}: {k} = {rr.get(k)!r} after restart, {wr.get(k)!r} before")
    if rr.get("cached"):
        served += 1
if served != len(restarted):
    sys.exit(f"only {served}/{len(restarted)} repeat answers were served cached after restart")
print(f"restart: all {len(restarted)} repeat verdicts identical and cache-served")
EOF

  echo "== warm-restart: restarted worker's metrics show disk hits and zero solves"
  metrics=$(curl -fsS "$W1/metrics")
  grep -q '^accserve_cache_tier_hits_total{tier="disk"} [1-9]' <<<"$metrics" || {
    echo "restarted worker counted no disk-tier hits" >&2; exit 1; }
  grep -q '^accserve_cache_disk_records [1-9]' <<<"$metrics" || {
    echo "restarted worker recovered no disk records" >&2; exit 1; }
  grep -q '^accserve_checks_total 0' <<<"$metrics" || {
    echo "restarted worker re-solved instead of serving the disk tier" >&2; exit 1; }

  disk_hits() { sed -n 's/^accserve_cache_tier_hits_total{tier="disk"} //p' <<<"$1"; }
  direct_hits=$(disk_hits "$metrics")
  C2_PORT=$(pick_port); C2="http://127.0.0.1:$C2_PORT"
  echo "== warm-restart: fresh coordinator $C2 over the same workers sends the batch as shard groups"
  "$workdir/accserve" -coordinator -fabric-workers "$W1,$W2" -addr "127.0.0.1:$C2_PORT" &
  pids+=($!)
  wait_up "$C2"
  curl -fsS -X POST "$C2/v1/batch" -H 'Content-Type: application/json' \
    -d "$batch" > "$workdir/regrouped.json"

  python3 - "$workdir/warm.json" "$workdir/regrouped.json" <<'EOF'
import json, sys
warm = json.load(open(sys.argv[1]))["results"]
regrouped = json.load(open(sys.argv[2]))["results"]
if len(warm) != len(regrouped):
    sys.exit(f"item counts differ: {len(warm)} vs {len(regrouped)}")
fields = ["satisfiable", "fragment", "in_fragment", "decidable",
          "engine", "truncated", "depth"]
for i, (w, r) in enumerate(zip(warm, regrouped)):
    if "error" in w or "error" in r:
        sys.exit(f"item {i} errored: direct {w} via fresh coordinator {r}")
    for k in fields:
        if w["result"].get(k) != r["result"].get(k):
            sys.exit(f"item {i}: {k} = {r['result'].get(k)!r} via fresh coordinator, {w['result'].get(k)!r} direct")
print(f"fresh coordinator: all {len(regrouped)} verdicts identical")
EOF

  metrics=$(curl -fsS "$W1/metrics")
  grep -q '^accserve_shard_checks_total 0' <<<"$metrics" || {
    echo "restarted worker re-solved a shard group instead of serving the disk tier" >&2; exit 1; }
  grep -q '^accserve_shard_plan_mismatches_total 0' <<<"$metrics" || {
    echo "restarted worker refused a shard group's plan" >&2; exit 1; }
  group_hits=$(disk_hits "$metrics")
  if (( group_hits <= direct_hits )); then
    echo "no shard group reached the restarted worker's disk tier (disk hits $direct_hits -> $group_hits)" >&2; exit 1
  fi
  echo "restart: shard groups served from disk (disk hits $direct_hits -> $group_hits), zero shard solves"
  echo "fabric smoke (warm-restart): OK"
  exit 0
fi

W1_PORT=$(pick_port); W2_PORT=$(pick_port); C_PORT=$(pick_port)
W1="http://127.0.0.1:$W1_PORT"; W2="http://127.0.0.1:$W2_PORT"; C="http://127.0.0.1:$C_PORT"

echo "== starting workers on $W1 $W2"
"$workdir/accserve" -worker -addr "127.0.0.1:$W1_PORT" &
pids+=($!)
"$workdir/accserve" -worker -addr "127.0.0.1:$W2_PORT" &
pids+=($!)

# A one-entry merged-result cache: the batch's fanned-out checks settle
# exactly one after another, so each displaces the last, and the eviction
# counter below shows the coordinator honours -cache-size.
echo "== starting coordinator on $C"
"$workdir/accserve" -coordinator -fabric-workers "$W1,$W2" -addr "127.0.0.1:$C_PORT" -cache-size 1 &
pids+=($!)

wait_up "$W1"; wait_up "$W2"; wait_up "$C"

echo "== mixed batch through the coordinator"
curl -fsS -X POST "$C/v1/batch" -H 'Content-Type: application/json' \
  -d "$batch" > "$workdir/fabric.json"
echo "== same batch direct to one worker"
curl -fsS -X POST "$W1/v1/batch" -H 'Content-Type: application/json' \
  -d "$batch" > "$workdir/direct.json"

python3 - "$workdir/fabric.json" "$workdir/direct.json" <<'EOF'
import json, sys
fabric = json.load(open(sys.argv[1]))["results"]
direct = json.load(open(sys.argv[2]))["results"]
if len(fabric) != len(direct):
    sys.exit(f"item counts differ: {len(fabric)} vs {len(direct)}")
fields = ["satisfiable", "fragment", "in_fragment", "decidable",
          "engine", "truncated", "depth"]
for i, (f, d) in enumerate(zip(fabric, direct)):
    if ("error" in f) != ("error" in d):
        sys.exit(f"item {i}: error parity differs: {f} vs {d}")
    if "error" in f:
        continue
    fr, dr = f["result"], d["result"]
    for k in fields:
        if fr.get(k) != dr.get(k):
            sys.exit(f"item {i}: {k} = {fr.get(k)!r} via fabric, {dr.get(k)!r} direct")
    if not fr["satisfiable"] and fr["paths_explored"] != dr["paths_explored"]:
        sys.exit(f"item {i}: paths {fr['paths_explored']} via fabric, {dr['paths_explored']} direct")
print(f"verdicts match on all {len(fabric)} items")
EOF

echo "== containment task through the coordinator"
containment='{
  "mode": "access",
  "relations": ["Catalog:int", "Detail:int"],
  "methods": ["scanCatalog:Catalog", "lookupDetail:Detail:0"],
  "q1": "exists x. Detail(x)",
  "q2": "exists x. Catalog(x)",
  "depth": 4
}'
curl -fsS -X POST "$C/v1/containment" -H 'Content-Type: application/json' \
  -d "$containment" > "$workdir/containment.json"
python3 - "$workdir/containment.json" <<'EOF'
import json, sys
out = json.load(open(sys.argv[1]))
if out.get("contained") is not True or out.get("exact") is not True:
    sys.exit(f"access containment verdict wrong: {out}")
if not out.get("engine"):
    sys.exit(f"containment answer names no engine: {out}")
print("containment forwarded through the coordinator: OK")
EOF
curl -fsS "$C/metrics" | grep -q '^accserve_coordinator_task_forwards_total{task="containment"} [1-9]' || {
  echo "coordinator forwarded no containment task" >&2; exit 1; }

echo "== coordinator health and metrics"
curl -fsS "$C/healthz" | grep -q '"status":"ok"' || { echo "coordinator not healthy" >&2; exit 1; }
curl -fsS "$C/metrics" | grep -q '^accserve_fabric_shards_dispatched_total [1-9]' || {
  echo "coordinator dispatched no shards" >&2; exit 1; }
curl -fsS "$C/metrics" | grep -q '^accserve_coordinator_cache_evictions_total [1-9]' || {
  echo "coordinator merged-result cache never evicted under -cache-size 1" >&2; exit 1; }

echo "fabric smoke: OK"
