#!/usr/bin/env bash
# Black-box assertions against a running stampserve instance.
#
# Requires STAMPSERVE_URL (e.g. http://127.0.0.1:43817) plus curl and
# jq, and a stampsim binary in the work directory (run.sh builds it
# there). Each check_* function exercises one acceptance property; bats
# wraps them one-per-@test (scripts/e2e/verify.bats), and running this
# file directly executes them all in order for hosts without bats.
set -u

: "${STAMPSERVE_URL:?set STAMPSERVE_URL to the server base URL}"
WORKDIR="${E2E_WORKDIR:-$(mktemp -d)}"

fail() {
  echo "FAIL: $*" >&2
  return 1
}

get() { curl -fsS "${STAMPSERVE_URL}$1"; }

post_spec() { # post_spec '<json>' -> run id on stdout, full reply saved
  curl -fsS -X POST -H 'Content-Type: application/json' \
    -d "$1" "${STAMPSERVE_URL}/runs" | tee "$WORKDIR/last_submit.json" | jq -r .id
}

wait_done() { # wait_done <run-id> [timeout-s]
  local id=$1 deadline=$((SECONDS + ${2:-30})) state=unknown
  while ((SECONDS < deadline)); do
    state=$(get "/runs/$id" | jq -r .state)
    case "$state" in
    done | failed) return 0 ;;
    esac
    sleep 0.2
  done
  fail "run $id still '$state' after ${2:-30}s"
}

JACOBI_SPEC='{"app":"jacobi","machine":"niagara","n":6,"iters":4,"seed":1}'

check_healthz() {
  [[ "$(get /healthz | jq -r .status)" == "ok" ]] || fail "/healthz did not answer ok"
}

check_jacobi_barrier_stream() {
  local id
  id=$(post_spec "$JACOBI_SPEC") || fail "jacobi submit"
  echo "$id" >"$WORKDIR/jacobi_run_id"
  wait_done "$id" || return 1
  get "/runs/$id/events" >"$WORKDIR/jacobi_events.ndjson" || fail "event download"

  # One streamed barrier event per generation: iters+1 of them (one
  # explicit Barrier plus one implicit synch_comm barrier per
  # iteration), generations numbered consecutively from 1.
  local gens
  gens=$(jq -s -c '[.[] | select(.kind == "barrier") | .gen]' \
    "$WORKDIR/jacobi_events.ndjson")
  [[ "$gens" == "[1,2,3,4,5]" ]] ||
    fail "barrier generations $gens, want [1,2,3,4,5]"

  # Event sequence numbers must be gapless from 1.
  jq -s -e '[.[].seq] == [range(1; length + 1)]' \
    "$WORKDIR/jacobi_events.ndjson" >/dev/null ||
    fail "event seq numbers are not gapless from 1"

  local status
  status=$(get "/runs/$id" | tee "$WORKDIR/jacobi_status.json" | jq -r .result.status)
  [[ "$status" == "done" ]] || fail "jacobi result status $status"
  jq -e '.result.events.barrier_generations == 5' \
    "$WORKDIR/jacobi_status.json" >/dev/null ||
    fail "status barrier_generations != 5"
}

check_experiment_scenario() {
  local id
  id=$(post_spec '{"experiment":"models"}') || fail "experiment submit"
  wait_done "$id" 60 || return 1
  get "/runs/$id" >"$WORKDIR/models_status.json"
  jq -e '.result.status == "done" and .result.passed == true' \
    "$WORKDIR/models_status.json" >/dev/null ||
    fail "experiment models did not pass: $(jq -c .result.checks "$WORKDIR/models_status.json")"
}

check_metrics_exposition() {
  get /metrics >"$WORKDIR/metrics.prom" || fail "metrics scrape"
  local want
  for want in \
    'stampserve_runs_submitted_total' \
    'stampserve_events_total{kind="barrier"}' \
    'stampserve_run_t_ticks' \
    'stampserve_run_drift_relerr'; do
    grep -qF "$want" "$WORKDIR/metrics.prom" ||
      fail "/metrics missing $want"
  done
}

check_cache_byte_identical() {
  local first id
  first=$(cat "$WORKDIR/jacobi_run_id") || fail "run the jacobi check first"
  id=$(post_spec "$JACOBI_SPEC") || fail "jacobi resubmit"
  jq -e '.cached == true' "$WORKDIR/last_submit.json" >/dev/null ||
    fail "identical spec resubmission was not served from cache"
  wait_done "$id" || return 1
  get "/runs/$first/result" >"$WORKDIR/result_first.json"
  get "/runs/$id/result" >"$WORKDIR/result_cached.json"
  cmp -s "$WORKDIR/result_first.json" "$WORKDIR/result_cached.json" ||
    fail "cached result bytes differ from the primary run's"
  get "/runs/$id/events" >"$WORKDIR/events_cached.ndjson"
  cmp -s "$WORKDIR/jacobi_events.ndjson" "$WORKDIR/events_cached.ndjson" ||
    fail "cached event stream differs from the primary run's"
  get /metrics | grep -q 'stampserve_cache_hits_total [1-9]' ||
    fail "cache hit not counted in /metrics"
}

check_sse_matches_ndjson() {
  local id
  id=$(cat "$WORKDIR/jacobi_run_id") || fail "run the jacobi check first"
  curl -fsS -H 'Accept: text/event-stream' "${STAMPSERVE_URL}/runs/$id/events" \
    >"$WORKDIR/jacobi_events.sse" || fail "SSE download"

  # Each SSE frame is an "event: <kind>" line, a "data: <json>" line and
  # a blank line: the payloads must be the NDJSON lines, in order, and
  # each frame's event name that line's kind.
  sed -n 's/^data: //p' "$WORKDIR/jacobi_events.sse" >"$WORKDIR/sse_data.ndjson"
  cmp -s "$WORKDIR/sse_data.ndjson" "$WORKDIR/jacobi_events.ndjson" ||
    fail "SSE data payloads differ from the NDJSON lines"
  sed -n 's/^event: //p' "$WORKDIR/jacobi_events.sse" >"$WORKDIR/sse_kinds.txt"
  jq -r .kind "$WORKDIR/jacobi_events.ndjson" >"$WORKDIR/ndjson_kinds.txt"
  cmp -s "$WORKDIR/sse_kinds.txt" "$WORKDIR/ndjson_kinds.txt" ||
    fail "SSE event names differ from the NDJSON kinds"

  # Resuming with ?from=10 returns the NDJSON lines after the tenth.
  get "/runs/$id/events?from=10" >"$WORKDIR/events_from10.ndjson" || fail "resume download"
  tail -n +11 "$WORKDIR/jacobi_events.ndjson" >"$WORKDIR/events_tail.ndjson"
  [[ -s "$WORKDIR/events_tail.ndjson" ]] || fail "jacobi stream has no lines past the tenth"
  cmp -s "$WORKDIR/events_from10.ndjson" "$WORKDIR/events_tail.ndjson" ||
    fail "?from=10 did not return NDJSON lines 11 onward"
}

# stampsim and stampserve run a scenario through one runner: for one
# spec per app, stampsim's -metrics-out file must equal the run registry
# the server serves for the same spec.
check_stampsim_matches_server() {
  local sim="$WORKDIR/stampsim" c app args spec id
  [[ -x "$sim" ]] || fail "no stampsim binary at $sim"
  for c in \
    'jacobi|-app jacobi -n 8|{"app":"jacobi","n":8}' \
    'apsp|-app apsp -n 8 -mode bulksync|{"app":"apsp","n":8,"mode":"bulksync"}' \
    'bank|-app bank -n 16 -procs 4 -manager karma|{"app":"bank","n":16,"procs":4,"manager":"karma"}' \
    'airline|-app airline -n 8 -policy strict|{"app":"airline","n":8,"policy":"strict"}'; do
    IFS='|' read -r app args spec <<<"$c"
    # shellcheck disable=SC2086 # args is a list of words
    "$sim" $args -metrics-out "$WORKDIR/stampsim_$app.prom" >/dev/null ||
      fail "stampsim $args"
    id=$(post_spec "$spec") || fail "$app submit"
    wait_done "$id" || return 1
    get "/runs/$id/metrics" >"$WORKDIR/stampserve_$app.prom" || fail "$app metrics"
    diff -u "$WORKDIR/stampsim_$app.prom" "$WORKDIR/stampserve_$app.prom" ||
      fail "$app: stampsim -metrics-out differs from /runs/$id/metrics"
  done
}

run_all_checks() {
  local rc=0 c
  for c in check_healthz check_jacobi_barrier_stream check_experiment_scenario \
    check_metrics_exposition check_cache_byte_identical check_sse_matches_ndjson \
    check_stampsim_matches_server; do
    # Like bats, stop a check at its first failed assertion: run it under
    # errexit, in a subshell whose status is read only after it exits (a
    # check called as an if condition would run with errexit ignored).
    (set -e; "$c")
    if (($? == 0)); then
      echo "ok   $c"
    else
      echo "FAIL $c"
      rc=1
    fi
  done
  return $rc
}

# Execute everything when run directly; stay quiet when sourced (bats).
if [[ "${BASH_SOURCE[0]}" == "$0" ]]; then
  run_all_checks
fi
