#!/usr/bin/env bash
# Telemetry smoke for pm-server.
#
# Boots the server on stdio, drives one full election through it, scrapes
# the `Metrics` verb, and validates the scrape:
#
#   * the JSON snapshot and the Prometheus rendering are both present;
#   * the Prometheus exposition parses — every non-comment line is
#     `name{labels} value` with a finite float value, and every histogram
#     carries `_sum`, `_count` and a cumulative `le="+Inf"` bucket;
#   * the required series exist: per-verb latency for the verbs served,
#     transport byte counters, sweep timing, core-lock wait and hold and
#     the transport's request parse, response serialize and response write
#     (one of each per request answered before the scrape), and the
#     per-phase election telemetry harvested from the finished session.
#
# Telemetry is wall-clock dependent, so this cannot be a golden diff like
# the server smoke — structural validation is the contract instead.
#
# Usage: scripts/telemetry_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/../../.."
cargo build --release -p pm-server --bins

SPEC='{"Submit":{"spec":{"name":"telemetry-smoke","tags":[],"generator":{"Hexagon":{"radius":4}},"algorithm":"Pipeline","scheduler":{"SeededRandom":7},"options":{"assume_outer_boundary_known":false,"reconnect":true,"track_connectivity":false,"round_budget":null,"seed":7,"occupancy":"Dense"},"faults":{"seed":0,"reset":"None","processes":[]}}}}'

OUT="$(mktemp)"
trap 'rm -f "$OUT"' EXIT
printf '%s\n' "$SPEC" '{"Run":{"session":1}}' '"Metrics"' '"Shutdown"' \
  | ./target/release/pm-scenarios serve --stdio --log-json > "$OUT"

python3 - "$OUT" <<'PYEOF'
import json, math, sys

lines = [json.loads(l) for l in open(sys.argv[1]) if l.strip()]
scrape = next(l["Metrics"] for l in lines if isinstance(l, dict) and "Metrics" in l)
snap, prom = scrape["metrics"], scrape["prometheus"]

names = (
    {c["name"] for c in snap["counters"]}
    | {g["name"] for g in snap["gauges"]}
    | {h["name"] for h in snap["histograms"]}
)
required = {
    "pm_server_verb_latency_us",
    "pm_server_bytes_read_total",
    "pm_server_bytes_written_total",
    "pm_server_active_connections",
    "pm_server_sweep_duration_us",
    "pm_server_core_lock_wait_us",
    "pm_server_core_lock_hold_us",
    "pm_server_request_parse_us",
    "pm_server_response_serialize_us",
    "pm_server_response_write_us",
    "pm_election_phase_wall_us",
    "pm_election_phase_rounds_total",
    "pm_election_phase_activations_total",
}
missing = required - names
assert not missing, f"missing series: {sorted(missing)}"

served = {
    tuple(l.values())
    for h in snap["histograms"]
    if h["name"] == "pm_server_verb_latency_us" and h["count"] > 0
    for l in h["labels"]
}
assert ("verb", "submit") in served and ("verb", "run") in served, served

per_request = (
    "pm_server_core_lock_wait_us",
    "pm_server_core_lock_hold_us",
    "pm_server_request_parse_us",
    "pm_server_response_serialize_us",
    "pm_server_response_write_us",
)
for h in snap["histograms"]:
    if h["name"] in per_request:
        assert h["count"] >= 2, f"{h['name']} counted {h['count']} of 2 requests"

parsed = 0
for line in prom.splitlines():
    if not line or line.startswith("#"):
        continue
    name_labels, value = line.rsplit(" ", 1)
    assert math.isfinite(float(value)), f"bad value: {line}"
    name = name_labels.split("{", 1)[0]
    assert name and all(c.isalnum() or c in "_:" for c in name), f"bad name: {line}"
    parsed += 1
assert parsed > 0, "empty exposition"
for h in snap["histograms"]:
    for suffix in ("_sum", "_count"):
        assert h["name"] + suffix in prom, f"missing {h['name']}{suffix}"
assert 'le="+Inf"' in prom, "missing +Inf buckets"

print(f"TELEMETRY-SMOKE-OK ({len(names)} series, {parsed} exposition lines)")
PYEOF
