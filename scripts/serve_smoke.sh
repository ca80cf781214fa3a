#!/usr/bin/env bash
# serve_smoke.sh — end-to-end serving smoke: build hdcps-serve and
# hdcps-load, boot the server on an ephemeral port, drive it with a
# fixed-rate Poisson open-loop run, then SIGTERM it and let the server's own
# conservation ledger be the verdict. hdcps-serve exits nonzero unless the
# graceful drain proves that every accepted task was processed (submitted +
# spawned == processed + retired + quarantined + cancelled, outstanding 0),
# and hdcps-load submits over its persistent streams with -retries 1 (no
# second attempt: a terminal answer or a transport error exits nonzero, and
# a 429/503 is counted as backpressure, not retried away) — so this script
# passing means: the binaries build, the progress-ack stream protocol serves
# real traffic, backpressure never turns into server failure, and shutdown
# loses nothing. Readiness is gated on GET /readyz (via hdcps-load
# -wait-ready), not on liveness: the server answers /healthz the moment the
# process is up, but only reports ready once it will admit work.
#
# Env knobs (defaults are the CI shape):
#   SMOKE_DIR         artifact/work directory   (unset: a fresh mktemp -d,
#                                               removed when the smoke passes)
#   SERVE_SMOKE_RATE  offered tasks/second      (4000)
#   SERVE_SMOKE_DUR   load duration             (2s)
#   SERVE_SMOKE_SCALE input scale               (tiny)
#
# Artifacts on failure (and, with SMOKE_DIR set, success):
# $SMOKE_DIR/serve.log, load.txt, hist.json, addr.
set -euo pipefail

cd "$(dirname "$0")/.."

RATE="${SERVE_SMOKE_RATE:-4000}"
DUR="${SERVE_SMOKE_DUR:-2s}"
SCALE="${SERVE_SMOKE_SCALE:-tiny}"
GO="${GO:-go}"

if [ -n "${SMOKE_DIR:-}" ]; then
    rm -rf "$SMOKE_DIR"
    mkdir -p "$SMOKE_DIR"
else
    SMOKE_DIR="$(mktemp -d)"
    trap '[ $? -eq 0 ] && rm -rf "$SMOKE_DIR"' EXIT
fi

echo "serve-smoke: building binaries into $SMOKE_DIR"
"$GO" build -o "$SMOKE_DIR/hdcps-serve" ./cmd/hdcps-serve
"$GO" build -o "$SMOKE_DIR/hdcps-load" ./cmd/hdcps-load

echo "serve-smoke: booting hdcps-serve (scale=$SCALE) on an ephemeral port"
"$SMOKE_DIR/hdcps-serve" \
    -addr 127.0.0.1:0 -addr-file "$SMOKE_DIR/addr" \
    -workload sssp -input road -scale "$SCALE" -workers 4 \
    >"$SMOKE_DIR/serve.log" 2>&1 &
SERVE_PID=$!

# The server writes its bound address once listening; poll briefly.
for _ in $(seq 1 100); do
    [ -s "$SMOKE_DIR/addr" ] && break
    if ! kill -0 "$SERVE_PID" 2>/dev/null; then
        echo "serve-smoke: FAIL — server died before listening" >&2
        cat "$SMOKE_DIR/serve.log" >&2
        exit 1
    fi
    sleep 0.1
done
ADDR="$(cat "$SMOKE_DIR/addr")"
echo "serve-smoke: server up at $ADDR (pid $SERVE_PID), waiting on /readyz"

LOAD_RC=0
"$SMOKE_DIR/hdcps-load" \
    -url "http://$ADDR" -wait-ready 10s -retries 1 \
    -rate "$RATE" -duration "$DUR" -hist "$SMOKE_DIR/hist.json" \
    2>&1 | tee "$SMOKE_DIR/load.txt" || LOAD_RC=$?

echo "serve-smoke: SIGTERM — graceful drain must be ledger-exact"
kill -TERM "$SERVE_PID"
SERVE_RC=0
wait "$SERVE_PID" || SERVE_RC=$?
tail -n 3 "$SMOKE_DIR/serve.log"

if [ "$LOAD_RC" -ne 0 ]; then
    echo "serve-smoke: FAIL — hdcps-load exited $LOAD_RC (see $SMOKE_DIR/load.txt)" >&2
    exit 1
fi
if [ "$SERVE_RC" -ne 0 ]; then
    echo "serve-smoke: FAIL — graceful drain exited $SERVE_RC (see $SMOKE_DIR/serve.log)" >&2
    exit 1
fi
echo "serve-smoke: PASS — traffic served, drain ledger exact"
