#!/usr/bin/env bash
# bench_diff.sh — compare a fresh mlbench report against the committed
# baseline, endpoint by endpoint: achieved QPS and the latency
# quantiles, with the relative delta against a configurable regression
# threshold (TOLERANCE, default 10%). Serve-path PRs run this to show
# their numbers; with STRICT=1 a regression beyond the tolerance fails
# the run, which is what CI does after the e2e smoke pass. Because
# shared runners are noisy, STRICT_ENDPOINTS narrows the gate to the
# endpoints whose latency is dominated by compute rather than scheduling
# — leave it empty to gate everything. CI gates predict_single,
# predict_batch and topm_full under a 50% tolerance that absorbs
# shared-runner noise. topm_full does not time a sweep: after warmup
# every top-M request is answered from the daemon's per-(model, M)
# top-M cache (in both committed baselines its request count equals
# mltuned_topm_cache_hits_total), so its gate covers the cached top-M
# read path — a memo lookup plus response encoding — not sweep compute.
#
# The run key must match before any delta is trusted: a fresh report
# whose run.engine differs from the baseline's is refused outright.
# Daemons now always report "float64"; reports recorded against a
# daemon serving another engine measured that choice, not this code.
#
# Usage:
#   scripts/bench_diff.sh <fresh.json> [baseline.json]
#   STRICT=1 TOLERANCE=0.10 scripts/bench_diff.sh <fresh.json>
#   STRICT=1 STRICT_ENDPOINTS=predict_single,predict_batch scripts/bench_diff.sh <fresh.json>
#
# Baseline defaults to the repo's committed BENCH_serve.json.
set -euo pipefail
cd "$(dirname "$0")/.."

FRESH="${1:?usage: bench_diff.sh <fresh.json> [baseline.json]}"
BASELINE="${2:-BENCH_serve.json}"
STRICT="${STRICT:-}"
TOLERANCE="${TOLERANCE:-0.10}"
STRICT_ENDPOINTS="${STRICT_ENDPOINTS:-}"

[ -r "$FRESH" ] || { echo "bench_diff: cannot read $FRESH" >&2; exit 1; }
[ -r "$BASELINE" ] || { echo "bench_diff: cannot read baseline $BASELINE" >&2; exit 1; }

FRESH="$FRESH" BASELINE="$BASELINE" STRICT="$STRICT" TOLERANCE="$TOLERANCE" \
STRICT_ENDPOINTS="$STRICT_ENDPOINTS" python3 - <<'EOF'
import json, os, sys

fresh_path, base_path = os.environ["FRESH"], os.environ["BASELINE"]
strict = os.environ["STRICT"] != ""
tol = float(os.environ["TOLERANCE"])
# The endpoints STRICT gates on; empty = every endpoint gates.
gate_eps = {e for e in os.environ["STRICT_ENDPOINTS"].split(",") if e}

with open(fresh_path) as f:
    fresh = json.load(f)
with open(base_path) as f:
    base = json.load(f)

for name, doc in (("fresh", fresh), ("baseline", base)):
    if doc.get("schema") != "mltuned-bench/v1":
        sys.exit(f"bench_diff: {name} report schema {doc.get('schema')!r} is not mltuned-bench/v1")

print(f"bench_diff: {fresh_path} vs {base_path}")
fr, br = fresh.get("run", {}), base.get("run", {})
for key in ("workers", "target_qps", "batch_size", "top_m", "engine", "weight_format", "proto"):
    fv, bv = fr.get(key), br.get(key)
    if key == "proto":
        # Reports that predate the field ran over HTTP.
        fv, bv = fv or "http", bv or "http"
    if fv != bv:
        if key == "engine":
            # The engine is part of the run key, not a tunable: latency
            # deltas across engines measure the engine choice, not the
            # code under test. Refuse instead of noting.
            sys.exit(f"bench_diff: run.engine differs (fresh {fv!r} vs baseline {bv!r}); "
                     "re-run mlbench against a daemon serving the baseline's engine")
        print(f"  note: run.{key} differs (fresh {fv} vs baseline {bv}) — "
              "deltas below are not apples-to-apples")

def fmt_ms(v): return f"{v*1e3:8.2f}ms"

regressed = []
names = sorted(set(fresh["endpoints"]) | set(base["endpoints"]))
print(f"  {'endpoint':<16} {'metric':<6} {'baseline':>10} {'fresh':>10} {'delta':>8}")
for name in names:
    f_ep, b_ep = fresh["endpoints"].get(name), base["endpoints"].get(name)
    if f_ep is None or b_ep is None:
        print(f"  {name:<16} only in {'baseline' if f_ep is None else 'fresh'}")
        continue
    rows = [("qps", b_ep["achieved_qps"], f_ep["achieved_qps"], False)]
    for q in ("p50", "p95", "p99"):
        rows.append((q, b_ep["latency_seconds"][q], f_ep["latency_seconds"][q], True))
    for metric, b_v, f_v, lower_is_better in rows:
        delta = (f_v - b_v) / b_v if b_v else float("inf")
        worse = delta > tol if lower_is_better else delta < -tol
        mark = "  <-- worse" if worse else ""
        if metric == "qps":
            print(f"  {name:<16} {metric:<6} {b_v:>10.1f} {f_v:>10.1f} {delta:>+7.1%}{mark}")
        else:
            print(f"  {name:<16} {metric:<6} {fmt_ms(b_v):>10} {fmt_ms(f_v):>10} {delta:>+7.1%}{mark}")
        if worse:
            regressed.append((name, f"{name}/{metric} {delta:+.1%}"))

if regressed:
    gating = [msg for ep, msg in regressed if not gate_eps or ep in gate_eps]
    warns = [msg for ep, msg in regressed if gate_eps and ep not in gate_eps]
    print(f"bench_diff: {len(regressed)} metric(s) beyond the {tol:.0%} tolerance: "
          f"{', '.join(msg for _, msg in regressed)}")
    if strict and gating:
        sys.exit(1)
    if strict and warns:
        print("bench_diff: regressions outside STRICT_ENDPOINTS, warn-only")
    elif not strict:
        print("bench_diff: warn-only (set STRICT=1 to fail on this)")
else:
    print(f"bench_diff: all endpoint metrics within the {tol:.0%} tolerance")
EOF
