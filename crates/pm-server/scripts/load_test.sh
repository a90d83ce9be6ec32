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
# Usage: scripts/load_test.sh [SESSIONS] [CLIENTS]
set -euo pipefail

SESSIONS="${1:-2000}"
CLIENTS="${2:-32}"

cd "$(dirname "$0")/../../.."
cargo build --release -p pm-server --bins
exec ./target/release/pm-scenarios load --sessions "$SESSIONS" --clients "$CLIENTS"
