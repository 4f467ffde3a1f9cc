#!/usr/bin/env bash
# Build stampsim, boot stampserve on an ephemeral port and run the
# black-box e2e suite against the server (and stampsim beside it). Uses
# bats when installed (CI installs it), otherwise falls back to
# executing checks.sh directly — same assertions either way. The server
# log is kept at $E2E_WORKDIR/stampserve.log so CI can upload it on
# failure.
set -euo pipefail

cd "$(dirname "$0")/../.."
for tool in curl jq; do
  command -v "$tool" >/dev/null || {
    echo "e2e: $tool is required" >&2
    exit 2
  }
done

export E2E_WORKDIR="${E2E_WORKDIR:-$(mktemp -d)}"
mkdir -p "$E2E_WORKDIR"
echo "e2e: workdir $E2E_WORKDIR"

go build -o "$E2E_WORKDIR/stampserve" ./cmd/stampserve
go build -o "$E2E_WORKDIR/stampsim" ./cmd/stampsim

"$E2E_WORKDIR/stampserve" -addr 127.0.0.1:0 -workers 4 \
  >"$E2E_WORKDIR/stampserve.log" 2>&1 &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true; wait "$SERVER_PID" 2>/dev/null || true' EXIT

# The server prints `stampserve listening on http://<addr>` once the
# listener is bound; poll the log for that handshake line.
STAMPSERVE_URL=""
for _ in $(seq 1 100); do
  if ! kill -0 "$SERVER_PID" 2>/dev/null; then
    echo "e2e: stampserve exited during startup:" >&2
    cat "$E2E_WORKDIR/stampserve.log" >&2
    exit 1
  fi
  STAMPSERVE_URL=$(sed -n 's/^stampserve listening on \(http:\/\/.*\)$/\1/p' \
    "$E2E_WORKDIR/stampserve.log" | head -n1)
  [[ -n "$STAMPSERVE_URL" ]] && break
  sleep 0.1
done
[[ -n "$STAMPSERVE_URL" ]] || {
  echo "e2e: no listening handshake after 10s" >&2
  cat "$E2E_WORKDIR/stampserve.log" >&2
  exit 1
}
export STAMPSERVE_URL
echo "e2e: server up at $STAMPSERVE_URL (pid $SERVER_PID)"

rc=0
if command -v bats >/dev/null; then
  bats scripts/e2e/verify.bats || rc=$?
else
  echo "e2e: bats not installed, running checks.sh directly"
  bash scripts/e2e/checks.sh || rc=$?
fi

if ((rc != 0)); then
  echo "e2e: FAILED — server log at $E2E_WORKDIR/stampserve.log" >&2
else
  echo "e2e: all checks passed"
fi
exit "$rc"
