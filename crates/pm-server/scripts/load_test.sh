#!/usr/bin/env bash
# Load-tests pm-server over concurrent TCP connections.
#
# Spawns one `pm-scenarios serve --tcp` server (done internally by the
# `load` subcommand) and floods it with thousands of small election
# sessions from concurrent client threads. The run fails unless:
#
#   * fairness holds — every submitted session completes with a unique
#     leader (no client starves another's sessions);
#   * memory stays bounded — the server's session budget sits deliberately
#     below the client count, clients absorb the retryable `Busy`
#     rejection with backoff, every client cancels its own sessions, and
#     the final `stats` verb shows 0 live sessions and at least one sweep.
#
# The summary line reports sessions/s and how many `Busy` answers the
# clients resent.
#
# A second run then holds the service path to a throughput floor: one
# client running 400 hexagon(2) sessions back to back must reach at least
# 200 sessions/s. Each session is three requests, so a request that waits
# on a delayed ACK (about 40 ms) caps this near 8/s; a stall-free server
# runs thousands per second, so the floor holds on a slow CI box too.
#
# Usage: scripts/load_test.sh [SESSIONS] [CLIENTS]
set -euo pipefail

SESSIONS="${1:-2000}"
CLIENTS="${2:-32}"
FLOOR=200

cd "$(dirname "$0")/../../.."
cargo build --release -p pm-server --bins
./target/release/pm-scenarios load --sessions "$SESSIONS" --clients "$CLIENTS"

summary=$(./target/release/pm-scenarios load --sessions 400 --clients 1 2>&1)
echo "$summary" >&2
# The summary reads `... in 0.09s (4405/s); ...`.
rate=$(sed -n 's|.*(\([0-9]*\)/s).*|\1|p' <<<"$summary")
if [[ -z "$rate" || "$rate" -lt "$FLOOR" ]]; then
    echo "load_test: single-client throughput ${rate:-unknown}/s is below the ${FLOOR}/s floor" >&2
    exit 1
fi
