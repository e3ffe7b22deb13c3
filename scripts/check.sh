#!/usr/bin/env bash
# Repo gate: formatting, lints, build, and the full test suite.
#
# Run before pushing:   ./scripts/check.sh
# Fast mode (no tests): ./scripts/check.sh --no-tests
#
# Tier-1 (the seed contract) is `cargo build --release && cargo test -q`;
# this script is a superset: it adds rustfmt, clippy with warnings
# denied, and the workspace-wide test run (the bare root `cargo test`
# only covers the umbrella package).

set -euo pipefail
cd "$(dirname "$0")/.."

run_tests=1
if [[ "${1:-}" == "--no-tests" ]]; then
    run_tests=0
fi

echo "==> cargo fmt --check"
cargo fmt --all -- --check

echo "==> cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# rustdoc with warnings denied: catches doc links left pointing at
# deleted or private items. --lib because the `mime` library and the
# `mime` binary would otherwise write the same doc output path.
echo "==> cargo doc --workspace --no-deps --lib (warnings denied)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib

echo "==> cargo build --release"
cargo build --release

if [[ "$run_tests" == 1 ]]; then
    # perfbench is a workspace of its own, so nothing above compiles it:
    # its self-tests make a break in the API it calls, or in the traced
    # replay's bit-identity, fail this gate rather than a benchmark run.
    # CARGO_TARGET_DIR=target points them at the `mime` just built, not
    # a stale .bench_build copy.
    echo "==> perfbench self-tests"
    CARGO_TARGET_DIR=target cargo test --release -q --manifest-path perfbench/Cargo.toml

    echo "==> cargo test --workspace"
    cargo test --workspace -q

    # kernel-bench smoke: tiny shapes, asserts the threaded GEMM and
    # parallel executor still match their references; writes only under
    # target/ (the tracked BENCH_kernels.json is refreshed by
    # scripts/bench.sh, not here)
    echo "==> bench_kernels --smoke"
    cargo run --release -p mime-bench --bin bench_kernels -- --smoke

    # observability smoke: a tiny batch through the hardware executor
    # with tracing + metrics on; the trace must be well-formed JSON and
    # every metrics line must match the Prometheus text grammar
    echo "==> mime batch --trace-out/--metrics-out smoke"
    obs_trace=target/obs_smoke.trace.json
    obs_metrics=target/obs_smoke.metrics.prom
    batch_out=$(cargo run --release -p mime-cli --bin mime -- batch \
        --images 2 --tasks 2 --threads 2 \
        --trace-out "$obs_trace" --metrics-out "$obs_metrics")
    if command -v python3 >/dev/null 2>&1; then
        python3 -c "import json,sys; json.load(open(sys.argv[1]))" "$obs_trace"
    else
        grep -q '"traceEvents"' "$obs_trace"
    fi
    if grep -Evq '^[a-z_]+(\{[^}]*\})? [0-9.eE+-]+$' "$obs_metrics"; then
        echo "FAIL: metrics line(s) do not match the Prometheus grammar:" >&2
        grep -Ev '^[a-z_]+(\{[^}]*\})? [0-9.eE+-]+$' "$obs_metrics" | head >&2
        exit 1
    fi
    # batch runs on the sparse software path: thresholded activations
    # must actually skip compacted GEMM rows
    grep -q '^mime_sparse_rows_skipped_total [1-9]' "$obs_metrics"
    grep -q '^mime_runtime_layer_latency_seconds_count' "$obs_metrics"
    # FC weight panels are prepacked exactly once per process at plan
    # load (counter == 1 despite multiple images/tasks), and the
    # resident-panel footprint gauge is nonzero
    grep -q '^mime_prepack_total 1$' "$obs_metrics"
    grep -q '^mime_prepack_bytes [1-9]' "$obs_metrics"

    # sparse-vs-dense smoke: pinning the dispatcher to the dense packed
    # kernels must not change a single logit bit
    echo "==> mime batch --dense-only bit-identity smoke"
    dense_out=$(cargo run --release -p mime-cli --bin mime -- batch \
        --images 2 --tasks 2 --threads 2 --dense-only \
        --metrics-out target/obs_smoke.dense.prom)
    grep -q '^mime_sparse_rows_skipped_total 0$' target/obs_smoke.dense.prom
    sparse_ck=$(grep 'logits checksum' <<<"$batch_out")
    dense_ck=$(grep 'logits checksum' <<<"$dense_out")
    [[ -n "$sparse_ck" && "$sparse_ck" == "$dense_ck" ]] \
        || { echo "FAIL: --dense-only changed the logits checksum" >&2; exit 1; }

    # fused-epilogue smoke: disabling prepacking (which also disables
    # the fused GEMM+threshold kernel) must not change a single logit
    # bit, and the prepack counter must stay at zero
    echo "==> mime batch --no-prepack bit-identity smoke"
    unfused_out=$(cargo run --release -p mime-cli --bin mime -- batch \
        --images 2 --tasks 2 --threads 2 --no-prepack \
        --metrics-out target/obs_smoke.noprepack.prom)
    if grep -q '^mime_prepack_total' target/obs_smoke.noprepack.prom; then
        echo "FAIL: --no-prepack still prepacked" >&2
        exit 1
    fi
    unfused_ck=$(grep 'logits checksum' <<<"$unfused_out")
    [[ -n "$unfused_ck" && "$unfused_ck" == "$sparse_ck" ]] \
        || { echo "FAIL: fused epilogue changed the logits checksum" >&2; exit 1; }

    # serving-loop chaos smoke: every fault mode must terminate every
    # request (no hang — enforced by the wall-clock timeout; no panic —
    # enforced by the exit code) and publish its serve metrics
    echo "==> mime serve chaos smoke (every --inject mode)"
    for fault in none nan-poison bitflip truncate garble panic flaky slow overload; do
        serve_metrics="target/serve_smoke.$fault.prom"
        timeout 120 cargo run --release -p mime-cli --bin mime -- serve \
            --requests 64 --tasks 3 --inject "$fault" \
            --metrics-out "$serve_metrics" >/dev/null \
            || { echo "FAIL: mime serve --inject $fault (panic, error, or hang)" >&2; exit 1; }
        grep -q '^mime_serve_requests_total 64$' "$serve_metrics"
    done
    # panels are prepacked exactly once at serve startup — 64 requests
    # across the worker pool must not bump the counter past 1
    grep -q '^mime_prepack_total 1$' target/serve_smoke.none.prom
    grep -q '^mime_prepack_bytes [1-9]' target/serve_smoke.none.prom
    # overload must shed the overflow; a poisoned bank must leave its
    # breaker open at drain time
    grep -q '^mime_serve_shed_total 32$' target/serve_smoke.overload.prom
    grep -q '^mime_serve_breaker_open 1$' target/serve_smoke.nan-poison.prom
    grep -q '^mime_serve_worker_restarts_total [1-9]' target/serve_smoke.panic.prom
    grep -q '^mime_serve_retries_total [1-9]' target/serve_smoke.flaky.prom
    grep -q '^mime_serve_deadline_exceeded_total [1-9]' target/serve_smoke.slow.prom

    # multi-process front-door smoke: a 2-replica fleet behind a TCP
    # listener, 64 loadgen requests while one replica is kill -9'd
    # mid-run. The supervisor must respawn it, every request must reach
    # a terminal state (loadgen exits nonzero otherwise), and the
    # restarts metric must record the kill.
    echo "==> mime serve --listen front-door smoke (kill -9 one replica)"
    fd_metrics=target/frontdoor_smoke.prom
    fd_log=target/frontdoor_smoke.log
    rm -f "$fd_metrics" "$fd_log"
    timeout 120 ./target/release/mime --metrics-out "$fd_metrics" serve \
        --listen 127.0.0.1:0 --replicas 2 --tasks 3 > "$fd_log" 2>/dev/null &
    fd_pid=$!
    for _ in $(seq 1 100); do
        grep -q 'listening on' "$fd_log" 2>/dev/null && break
        sleep 0.2
    done
    fd_addr=$(grep -o 'listening on [0-9.:]*' "$fd_log" | awk '{print $3}')
    [[ -n "$fd_addr" ]] || { echo "FAIL: front door never announced its address" >&2; exit 1; }
    # kill -9 one replica worker as soon as it exists; the supervisor
    # must detect the death under load, requeue the victim request, and
    # respawn the slot (another kill mid-run keeps the pressure on)
    for _ in $(seq 1 100); do
        pgrep -f 'mime replica-worker' >/dev/null 2>&1 && break
        sleep 0.2
    done
    pgrep -f 'mime replica-worker' | head -n1 | xargs -r kill -9
    ( sleep 0.1; pgrep -f 'mime replica-worker' | head -n1 | xargs -r kill -9 ) &
    killer_pid=$!
    timeout 120 ./target/release/mime loadgen --connect "$fd_addr" \
        --requests 64 --concurrency 4 --tasks 3 \
        --bench-out target/frontdoor_smoke_bench.json --label kill-one --drain \
        || { echo "FAIL: loadgen saw a request with no terminal state" >&2; exit 1; }
    wait "$killer_pid" || true
    wait "$fd_pid" \
        || { echo "FAIL: front door crashed or failed to drain cleanly" >&2; exit 1; }
    grep -q '^mime_frontdoor_requests_total 64$' "$fd_metrics"
    grep -q '^mime_replica_restarts_total [1-9]' "$fd_metrics"

    # fleet-observability smoke: live /metrics + /healthz scrapes on the
    # frame port while the fleet is up, a SIGUSR1 flight-recorder dump
    # from a running replica, and a stitched cross-process trace with
    # one lane per process at drain
    echo "==> mime serve --listen observability smoke (/metrics, /healthz, flight dump)"
    obs_fd_metrics=target/obs_fleet_smoke.prom
    obs_fd_trace=target/obs_fleet_smoke.trace.json
    obs_fd_log=target/obs_fleet_smoke.log
    obs_flight_dir=target/obs_fleet_smoke_flight
    rm -rf "$obs_fd_metrics" "$obs_fd_trace" "$obs_fd_log" "$obs_flight_dir"
    http_get() { # http_get <addr> <path>
        if command -v curl >/dev/null 2>&1; then
            curl -sf --max-time 10 "http://$1$2"
        else
            python3 -c "import urllib.request,sys; \
sys.stdout.write(urllib.request.urlopen('http://$1$2', timeout=10).read().decode())"
        fi
    }
    timeout 120 ./target/release/mime \
        --metrics-out "$obs_fd_metrics" --trace-out "$obs_fd_trace" serve \
        --listen 127.0.0.1:0 --replicas 2 --tasks 3 \
        --flight-dir "$obs_flight_dir" > "$obs_fd_log" 2>/dev/null &
    obs_fd_pid=$!
    for _ in $(seq 1 100); do
        grep -q 'listening on' "$obs_fd_log" 2>/dev/null && break
        sleep 0.2
    done
    obs_fd_addr=$(grep -o 'listening on [0-9.:]*' "$obs_fd_log" | awk '{print $3}')
    [[ -n "$obs_fd_addr" ]] || { echo "FAIL: observed front door never announced its address" >&2; exit 1; }
    timeout 120 ./target/release/mime loadgen --connect "$obs_fd_addr" \
        --requests 64 --concurrency 4 --tasks 3 --slow-threshold-ms 1000 >/dev/null \
        || { echo "FAIL: loadgen against the observed front door" >&2; exit 1; }
    # live scrape while the fleet is still up: Prometheus grammar, the
    # front door's own counters, and the aggregated replica counters
    # must all agree with the 64 requests loadgen just completed
    scrape=target/obs_fleet_smoke.scrape.prom
    http_get "$obs_fd_addr" /metrics > "$scrape" \
        || { echo "FAIL: GET /metrics on the frame port" >&2; exit 1; }
    if grep -Evq '^[a-z_]+(\{[^}]*\})? [0-9.eE+-]+$' "$scrape"; then
        echo "FAIL: /metrics line(s) do not match the Prometheus grammar:" >&2
        grep -Ev '^[a-z_]+(\{[^}]*\})? [0-9.eE+-]+$' "$scrape" | head >&2
        exit 1
    fi
    grep -q '^mime_frontdoor_requests_total 64$' "$scrape"
    grep -q '^mime_frontdoor_success_total 64$' "$scrape"
    grep -q '^mime_replica_requests_total 64$' "$scrape"
    grep -q '^mime_frontdoor_queue_wait_seconds_count 64$' "$scrape"
    http_get "$obs_fd_addr" /healthz | grep -q '"status":"ok"' \
        || { echo "FAIL: /healthz did not report ok" >&2; exit 1; }
    http_get "$obs_fd_addr" /readyz | grep -q '^ready' \
        || { echo "FAIL: /readyz did not report ready" >&2; exit 1; }
    # SIGUSR1 flips a running replica's flight recorder into a dump;
    # the file must appear and parse as mime-flight/v1 JSON
    pgrep -f 'mime replica-worker' | head -n1 | xargs -r kill -USR1
    flight_file=""
    for _ in $(seq 1 50); do
        # the glob probe must not trip set -e/pipefail while the dump
        # is still being written, hence find + || true
        flight_file=$(find "$obs_flight_dir" -name 'mime_flight_replica*_sigusr1_*.json' 2>/dev/null | head -n1 || true)
        [[ -n "$flight_file" ]] && break
        sleep 0.2
    done
    [[ -n "$flight_file" ]] || { echo "FAIL: SIGUSR1 produced no flight dump" >&2; exit 1; }
    if command -v python3 >/dev/null 2>&1; then
        python3 -c "
import json, sys
d = json.load(open(sys.argv[1]))
assert d['schema'] == 'mime-flight/v1', d['schema']
assert d['reason'] == 'sigusr1', d['reason']
assert d['events'], 'flight ring was empty'
" "$flight_file"
    else
        grep -q '"schema":"mime-flight/v1"' "$flight_file"
        grep -q '"reason":"sigusr1"' "$flight_file"
    fi
    # drain; the exit-written stitched trace must hold one lane per
    # process (front door + both replicas)
    timeout 120 ./target/release/mime loadgen --connect "$obs_fd_addr" \
        --requests 1 --concurrency 1 --drain >/dev/null \
        || { echo "FAIL: drain loadgen against the observed front door" >&2; exit 1; }
    wait "$obs_fd_pid" \
        || { echo "FAIL: observed front door crashed or failed to drain" >&2; exit 1; }
    if command -v python3 >/dev/null 2>&1; then
        python3 -c "
import json, sys
d = json.load(open(sys.argv[1]))
ev = d['traceEvents']
labels = {e['args']['name'] for e in ev if e.get('ph') == 'M'}
assert 'frontdoor' in labels and 'replica 0' in labels and 'replica 1' in labels, labels
assert any(e['name'] == 'replica_request' for e in ev), 'no stitched replica spans'
" "$obs_fd_trace"
    else
        grep -q '"name":"replica_request"' "$obs_fd_trace"
    fi
    # brownout overload smoke (DESIGN.md §13): under sustained load far
    # above one replica's capacity the fleet must climb the threshold
    # ladder — rung metrics move, replies brown out — while every
    # request still reaches a terminal state; and rung 0 must stay
    # bit-identical, so an unloaded brownout fleet and a --no-brownout
    # fleet must print the same loadgen logits checksum. Both fleets
    # pin --no-batch: pipelined batching raises one replica's capacity
    # enough that this workload no longer overloads it (the batching
    # smoke below covers that path), and the ladder only climbs under
    # real pressure.
    echo "==> mime serve --listen brownout overload smoke"
    bo_metrics=target/brownout_smoke.prom
    bo_log=target/brownout_smoke.log
    rm -f "$bo_metrics" "$bo_log"
    timeout 180 ./target/release/mime --metrics-out "$bo_metrics" serve \
        --listen 127.0.0.1:0 --replicas 1 --tasks 2 --no-batch > "$bo_log" 2>/dev/null &
    bo_pid=$!
    for _ in $(seq 1 100); do
        grep -q 'listening on' "$bo_log" 2>/dev/null && break
        sleep 0.2
    done
    bo_addr=$(grep -o 'listening on [0-9.:]*' "$bo_log" | awk '{print $3}')
    [[ -n "$bo_addr" ]] || { echo "FAIL: brownout front door never announced its address" >&2; exit 1; }
    # parity leg first: unloaded, the controller must hold rung 0
    bo_quiet=$(timeout 120 ./target/release/mime loadgen --connect "$bo_addr" \
        --requests 64 --concurrency 1 --tasks 2) \
        || { echo "FAIL: unloaded loadgen against the brownout fleet" >&2; exit 1; }
    grep -qF '[64, 0, 0, 0, 0, 0, 0, 0]' <<<"$bo_quiet" \
        || { echo "FAIL: unloaded brownout fleet left rung 0" >&2; exit 1; }
    # overload leg: open-loop Poisson arrivals far above one replica's
    # capacity, enough connections to keep the queue deep
    timeout 120 ./target/release/mime loadgen --connect "$bo_addr" \
        --requests 3000 --concurrency 64 --tasks 2 --rate 4000 \
        --deadline-ms 200 --label brownout-2x --drain >/dev/null \
        || { echo "FAIL: overload loadgen saw a request with no terminal state" >&2; exit 1; }
    wait "$bo_pid" || { echo "FAIL: brownout front door crashed or failed to drain" >&2; exit 1; }
    grep -Eq '^mime_brownout_rung_transitions_total [1-9]' "$bo_metrics" \
        || { echo "FAIL: overload never moved the brownout rung" >&2; exit 1; }
    grep -Eq '^mime_replica_rung_total\{rung="[1-7]"\} [1-9]' "$bo_metrics" \
        || { echo "FAIL: no replica served a browned-out rung" >&2; exit 1; }
    grep -Eq '^mime_frontdoor_brownout_total [1-9]' "$bo_metrics" \
        || { echo "FAIL: front door counted no browned-out replies" >&2; exit 1; }
    # control fleet: --no-brownout serves the identical rung-0 bits
    nb_metrics=target/brownout_smoke.nobrownout.prom
    nb_log=target/brownout_smoke.nobrownout.log
    rm -f "$nb_metrics" "$nb_log"
    timeout 180 ./target/release/mime --metrics-out "$nb_metrics" serve \
        --listen 127.0.0.1:0 --replicas 1 --tasks 2 --no-brownout --no-batch > "$nb_log" 2>/dev/null &
    nb_pid=$!
    for _ in $(seq 1 100); do
        grep -q 'listening on' "$nb_log" 2>/dev/null && break
        sleep 0.2
    done
    nb_addr=$(grep -o 'listening on [0-9.:]*' "$nb_log" | awk '{print $3}')
    [[ -n "$nb_addr" ]] || { echo "FAIL: control front door never announced its address" >&2; exit 1; }
    nb_quiet=$(timeout 120 ./target/release/mime loadgen --connect "$nb_addr" \
        --requests 64 --concurrency 1 --tasks 2 --drain) \
        || { echo "FAIL: loadgen against the control fleet" >&2; exit 1; }
    wait "$nb_pid" || { echo "FAIL: control front door crashed or failed to drain" >&2; exit 1; }
    bo_ck=$(grep 'logits checksum' <<<"$bo_quiet")
    nb_ck=$(grep 'logits checksum' <<<"$nb_quiet")
    [[ -n "$bo_ck" && "$bo_ck" == "$nb_ck" ]] \
        || { echo "FAIL: rung 0 is not bit-identical to --no-brownout ($bo_ck vs $nb_ck)" >&2; exit 1; }

    # pipelined-batching smoke (DESIGN.md §15): a --max-batch 8 fleet
    # and a --no-batch control serve the same mixed-task workload under
    # enough backlog to form real batches. The loadgen logits checksum
    # is order-independent, so the two runs must print the same value
    # (batched execution is bit-identical), the batch-size histogram
    # must record dispatches, and at least one dispatch must coalesce
    # more than one request. Both fleets run --no-brownout so the rung
    # controller can't fork the logits under load.
    echo "==> mime serve --listen pipelined-batching smoke"
    pb_metrics=target/batch_smoke.prom
    pb_log=target/batch_smoke.log
    rm -f "$pb_metrics" "$pb_log"
    timeout 180 ./target/release/mime --metrics-out "$pb_metrics" serve \
        --listen 127.0.0.1:0 --replicas 1 --tasks 4 --no-brownout \
        --capacity 512 --deadline-ms 10000 --max-batch 8 > "$pb_log" 2>/dev/null &
    pb_pid=$!
    for _ in $(seq 1 100); do
        grep -q 'listening on' "$pb_log" 2>/dev/null && break
        sleep 0.2
    done
    pb_addr=$(grep -o 'listening on [0-9.:]*' "$pb_log" | awk '{print $3}')
    [[ -n "$pb_addr" ]] || { echo "FAIL: batching front door never announced its address" >&2; exit 1; }
    pb_out=$(timeout 120 ./target/release/mime loadgen --connect "$pb_addr" \
        --requests 256 --concurrency 16 --tasks 4 --rate 2000 \
        --deadline-ms 10000 --drain) \
        || { echo "FAIL: loadgen against the batching fleet" >&2; exit 1; }
    wait "$pb_pid" || { echo "FAIL: batching front door crashed or failed to drain" >&2; exit 1; }
    grep -Eq '^mime_frontdoor_batch_size_count [1-9]' "$pb_metrics" \
        || { echo "FAIL: batch-size histogram recorded no dispatches" >&2; exit 1; }
    pb_b1=$(awk '/^mime_frontdoor_batch_size_bucket\{le="1"\}/ {print $2}' "$pb_metrics")
    pb_bc=$(awk '/^mime_frontdoor_batch_size_count/ {print $2}' "$pb_metrics")
    [[ -n "$pb_b1" && -n "$pb_bc" && "$pb_b1" -lt "$pb_bc" ]] \
        || { echo "FAIL: no dispatch coalesced more than one request ($pb_b1 of $pb_bc single)" >&2; exit 1; }
    # control fleet: --no-batch serves the identical bits one at a time
    nbat_log=target/batch_smoke.nobatch.log
    rm -f "$nbat_log"
    timeout 180 ./target/release/mime serve \
        --listen 127.0.0.1:0 --replicas 1 --tasks 4 --no-brownout \
        --capacity 512 --deadline-ms 10000 --no-batch > "$nbat_log" 2>/dev/null &
    nbat_pid=$!
    for _ in $(seq 1 100); do
        grep -q 'listening on' "$nbat_log" 2>/dev/null && break
        sleep 0.2
    done
    nbat_addr=$(grep -o 'listening on [0-9.:]*' "$nbat_log" | awk '{print $3}')
    [[ -n "$nbat_addr" ]] || { echo "FAIL: no-batch front door never announced its address" >&2; exit 1; }
    nbat_out=$(timeout 120 ./target/release/mime loadgen --connect "$nbat_addr" \
        --requests 256 --concurrency 16 --tasks 4 --rate 2000 \
        --deadline-ms 10000 --drain) \
        || { echo "FAIL: loadgen against the no-batch fleet" >&2; exit 1; }
    wait "$nbat_pid" || { echo "FAIL: no-batch front door crashed or failed to drain" >&2; exit 1; }
    pb_ck=$(grep 'logits checksum' <<<"$pb_out")
    nbat_ck=$(grep 'logits checksum' <<<"$nbat_out")
    [[ -n "$pb_ck" && "$pb_ck" == "$nbat_ck" ]] \
        || { echo "FAIL: batched logits are not bit-identical to --no-batch ($pb_ck vs $nbat_ck)" >&2; exit 1; }
fi

echo "==> all checks passed"
