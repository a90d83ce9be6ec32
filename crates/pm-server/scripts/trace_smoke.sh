#!/usr/bin/env bash
# Trace smoke for the span recorder and the HTTP observability listener.
#
# Two halves, both structural (trace timestamps are wall-clock dependent,
# so — like the telemetry smoke — this cannot be a golden diff):
#
#   * boot the real server with `--tcp 127.0.0.1:0 --http 127.0.0.1:0`,
#     drive one fault-injected self-stabilising session over the line
#     protocol (a two-round Watch, then Run), then scrape `/healthz`, `/metrics` and `/trace` over plain
#     HTTP. The metrics scrape must carry the same required series as the
#     Metrics verb; the trace scrape must be structurally valid Chrome
#     trace-event JSON containing the `run` verb span, the per-session
#     scheduler slice, and the fault-firing instants.
#   * run `pm-scenarios profile` on the same scenario and validate the
#     written trace file: session → phase → round span nesting, the
#     `shape:build`, `start:analysis` and `start:connectivity` spans under
#     the session, balanced B/E pairs, fault instants parented under the
#     open phase.
#
# Usage: scripts/trace_smoke.sh
set -euo pipefail

cd "$(dirname "$0")/../../.."
cargo build --release -p pm-server --bins
BIN=./target/release/pm-scenarios

WORK="$(mktemp -d)"
SERVER_PID=""
cleanup() {
  [ -n "$SERVER_PID" ] && kill "$SERVER_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

"$BIN" serve --tcp 127.0.0.1:0 --http 127.0.0.1:0 2> "$WORK/stderr.log" &
SERVER_PID=$!

# Both listeners announce themselves on stderr; wait for the two lines.
for _ in $(seq 1 100); do
  if grep -q "http listening on " "$WORK/stderr.log" \
    && grep -v "http listening" "$WORK/stderr.log" | grep -q "listening on "; then
    break
  fi
  sleep 0.1
done
HTTP_ADDR="$(sed -n 's/.*http listening on \([0-9.:]*\).*/\1/p' "$WORK/stderr.log" | head -1)"
PROTO_ADDR="$(grep -v "http listening" "$WORK/stderr.log" \
  | sed -n 's/.*listening on \([0-9.:]*\).*/\1/p' | head -1)"
echo "protocol on $PROTO_ADDR, http on $HTTP_ADDR"

python3 - "$PROTO_ADDR" "$HTTP_ADDR" <<'PYEOF'
import json, socket, sys

proto_addr, http_addr = sys.argv[1], sys.argv[2]

def protocol(request):
    host, port = proto_addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall((json.dumps(request) + "\n").encode())
        reader = sock.makefile()
        while True:
            response = json.loads(reader.readline())
            # Streamed `Round` lines (a Watch window) precede the final
            # response; every other response is final.
            if not (isinstance(response, dict) and "Round" in response):
                return response

def scrape(path):
    host, port = http_addr.rsplit(":", 1)
    with socket.create_connection((host, int(port)), timeout=10) as sock:
        sock.sendall(f"GET {path} HTTP/1.1\r\nHost: x\r\n\r\n".encode())
        raw = b""
        while chunk := sock.recv(65536):
            raw += chunk
    head, body = raw.decode().split("\r\n\r\n", 1)
    return head.splitlines()[0], body

status, body = scrape("/healthz")
assert status == "HTTP/1.1 200 OK" and body == "ok\n", (status, body)

spec = {"Submit": {"spec": {
    "name": "trace-smoke", "tags": [],
    "generator": {"Hexagon": {"radius": 4}},
    "algorithm": "SelfStabMax", "scheduler": {"SeededRandom": 7},
    "options": {"assume_outer_boundary_known": False, "reconnect": True,
                "track_connectivity": False, "round_budget": None,
                "seed": 7, "occupancy": "Dense"},
    "faults": {"seed": 7, "reset": "None", "processes": [
        {"kind": "Removals", "start": 1, "period": 2, "until": 5, "count": 2}]},
}}}
session = protocol(spec)["Submitted"]["session"]
# Two streamed rounds first, so the helper reads past `Round` lines.
watched = protocol({"Watch": {"session": session, "rounds": 2}})
assert "Status" in watched or "Done" in watched, watched
done = protocol({"Run": {"session": session}})
assert "Done" in done, done

status, metrics = scrape("/metrics")
assert status == "HTTP/1.1 200 OK", status
for series in ("pm_server_verb_latency_us", "pm_election_phase_rounds_total",
               "pm_server_sweep_duration_us", "pm_trace_dropped_events"):
    assert series in metrics, f"missing series {series}"

status, trace_json = scrape("/trace")
assert status == "HTTP/1.1 200 OK", status
trace = json.loads(trace_json)
events = trace["traceEvents"]
assert isinstance(trace["otherData"]["dropped"], int)
open_spans = 0
for event in events:
    assert event["ph"] in ("B", "E", "i"), event
    assert isinstance(event["ts"], int) and event["ts"] >= 0, event
    assert event["name"] and event["cat"], event
    open_spans += {"B": 1, "E": -1, "i": 0}[event["ph"]]
assert open_spans == 0, f"{open_spans} unbalanced span(s) in the scrape"
names = [e["name"] for e in events]
assert "run" in names, "no `run` verb span in the live trace"
assert any(n.startswith("session:") for n in names), "no scheduler slice span"
assert any(n.startswith("fault:") for n in names), "no fault-firing instant"

protocol("Shutdown")
print(f"TRACE-SMOKE-OK http ({len(events)} events scraped)")
PYEOF

wait "$SERVER_PID"
SERVER_PID=""

# Second half: the offline profiler on the committed corpus scenario.
"$BIN" profile faults-selfstab-periodic-removals \
  --out "$WORK/profile.trace.json" --folded "$WORK/profile.folded"

python3 - "$WORK/profile.trace.json" "$WORK/profile.folded" <<'PYEOF'
import json, sys

trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]

spans = {}  # id -> (name, cat, parent)
stack, orphans = [], 0
for event in events:
    if event["ph"] == "B":
        spans[event["args"]["span"]] = (
            event["name"], event["cat"], event["args"]["parent"])
        stack.append(event["args"]["span"])
    elif event["ph"] == "E":
        assert stack and stack[-1] == event["args"]["span"], "mis-nested E"
        stack.pop()
assert not stack, f"unclosed spans: {stack}"

# The span hierarchy: session → phase → rounds, with the shape build and
# the start-up layers directly under the session and the fault firings as
# instants parented under the open phase span.
sessions = [s for s, (n, c, _) in spans.items() if c == "session"]
assert len(sessions) == 1, f"expected one session span, got {sessions}"
phases = [s for s, (n, c, p) in spans.items()
          if c == "phase" and p == sessions[0]]
assert phases, "no phase span under the session"
start = {n for s, (n, c, p) in spans.items() if c == "start" and p == sessions[0]}
for name in ("shape:build", "start:analysis", "start:connectivity"):
    assert name in start, f"no `{name}` span under the session"
rounds = [s for s, (n, c, p) in spans.items() if c == "round" and p in phases]
assert len(rounds) >= 6, f"expected >= 6 round spans, got {len(rounds)}"
faults = [e for e in events if e["ph"] == "i" and e["cat"] == "fault"]
assert len(faults) == 3, f"expected 3 fault firings, got {len(faults)}"
for fault in faults:
    assert fault["args"]["parent"] in phases, f"fault outside a phase: {fault}"
    assert fault["name"].startswith("fault:removals@r"), fault

folded = [line.rsplit(" ", 1) for line in open(sys.argv[2]) if line.strip()]
assert folded and all(int(weight) >= 0 for _, weight in folded)
assert any(path.split(";")[0].startswith("session:") for path, _ in folded)

print(f"TRACE-SMOKE-OK profile ({len(events)} events, "
      f"{len(rounds)} rounds, {len(faults)} fault firings)")
PYEOF
