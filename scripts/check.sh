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

    # the kernels' bit-identity claims (every ISA arm, the fused FC tile)
    # rest on optimized codegen — FMA contraction and how the portable arm
    # vectorizes — which the debug-profile run above does not exercise
    echo "==> cargo test --release -p mime-tensor"
    cargo test --release -q -p mime-tensor

    # the executor's bitwise checks against MimeNetwork::forward (every
    # entry point, dispatch policy and worker count over the resident
    # operands) under the same optimized codegen
    echo "==> cargo test --release -p mime-runtime"
    cargo test --release -q -p mime-runtime

    # the vendored `bytes` shim sits outside the workspace; its tests pin
    # the zero-copy views (`From<Vec<u8>>`, `copy_to_bytes`) the image
    # loader relies on
    echo "==> cargo test -p bytes"
    cargo test -q -p bytes

    # kernel-bench smoke: tiny shapes, asserts the threaded GEMM, sparse
    # dispatch, fused epilogue and resident conv weights still match
    # their references; writes only under target/ (the tracked
    # BENCH_kernels.json is refreshed by scripts/bench.sh, not here)
    echo "==> bench_kernels --smoke"
    cargo run --release -p mime-bench --bin bench_kernels -- --smoke

    # observability smoke: a tiny batch through the hardware executor
    # with tracing + metrics on; the trace must be well-formed JSON and
    # every metrics line must match the Prometheus text grammar
    echo "==> mime batch --trace-out/--metrics-out smoke"
    obs_trace=target/obs_smoke.trace.json
    obs_metrics=target/obs_smoke.metrics.prom
    cargo run --release -p mime-cli --bin mime -- batch \
        --images 2 --tasks 2 \
        --trace-out "$obs_trace" --metrics-out "$obs_metrics" >/dev/null
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
    # the batch runs once, so its image counter is the batch size
    grep -q '^mime_runtime_images_total 2$' "$obs_metrics"
    # FC weight panels are prepacked exactly once per process at plan
    # load (counter == 1 despite multiple images/tasks), and the
    # resident-panel footprint gauge is nonzero
    grep -q '^mime_prepack_total 1$' "$obs_metrics"
    grep -q '^mime_prepack_bytes [1-9]' "$obs_metrics"

    # golden logits: the forward-oracle tests compare the executor with
    # MimeNetwork::forward in one process, so a change that moved both
    # alike (tensor storage, the image decode, quantization) would still
    # pass them. These runs pin the absolute bits; `serve` covers pack →
    # unpack → bind → prepack → fleet. The values are those of a build
    # that fuses multiply-adds (target-cpu=native on an x86_64 host with
    # FMA).
    echo "==> golden logits checksums"
    if [[ "$(uname -m)" == x86_64 ]] && grep -qw fma /proc/cpuinfo; then
        # the kernels' part count comes from MIME_THREADS; the bits must
        # not, so the batch runs at the default count, 1 and 3
        for threads in default 1 3; do
            if [[ "$threads" == default ]]; then
                golden_batch=$(./target/release/mime batch --images 6 --tasks 3)
            else
                golden_batch=$(MIME_THREADS=$threads ./target/release/mime batch --images 6 --tasks 3)
            fi
            grep -Eq '^ *logits checksum: +6211ee016172787c$' <<<"$golden_batch" \
                && grep -Eq '^ *macs executed: +3170364$' <<<"$golden_batch" \
                || { echo "FAIL: mime batch --images 6 --tasks 3 (MIME_THREADS=$threads) moved:" >&2
                     grep -E 'logits checksum|macs executed' <<<"$golden_batch" >&2; exit 1; }
        done
        golden_serve=$(timeout 120 ./target/release/mime serve --requests 64 --tasks 3) \
            || { echo "FAIL: mime serve --requests 64 --tasks 3" >&2; exit 1; }
        grep -Eq '^ *logits checksum: +4b1c1d1c93742306$' <<<"$golden_serve" \
            || { echo "FAIL: mime serve --requests 64 --tasks 3 moved:" >&2
                 grep 'logits checksum' <<<"$golden_serve" >&2; exit 1; }
    else
        echo "golden check skipped: the pinned checksums are for x86_64 with FMA"
    fi

    # serving chaos smoke: `mime serve` without --listen drives 64
    # requests through its own fleet (front door + 2 replica processes)
    # under every --inject fault. Every request must terminate (no hang
    # — enforced by the wall-clock timeout; no lost request — enforced
    # by the exit code) and the front door must publish its metrics.
    echo "==> mime serve chaos smoke (every --inject fault)"
    for fault in none replica-abort replica-hang replica-slow conn-garbage conn-truncate; do
        serve_metrics="target/serve_smoke.$fault.prom"
        rm -f "$serve_metrics"
        timeout 120 ./target/release/mime --metrics-out "$serve_metrics" serve \
            --requests 64 --tasks 3 --inject "$fault" --deadline-ms 1000 >/dev/null \
            || { echo "FAIL: mime serve --inject $fault (error, lost request, or hang)" >&2; exit 1; }
        grep -q '^mime_frontdoor_requests_total 64$' "$serve_metrics"
    done
    # each replica process prepacks its panels exactly once at startup:
    # 64 requests must not bump the fleet-wide counter past one per
    # spawned replica (2, plus one per respawn)
    serve_pk=$(awk '/^mime_prepack_total / {print $2}' target/serve_smoke.none.prom)
    serve_rs=$(awk '/^mime_replica_restarts_total / {print $2}' target/serve_smoke.none.prom)
    [[ -n "$serve_pk" && -n "$serve_rs" && "$serve_pk" -eq $((2 + serve_rs)) ]] \
        || { echo "FAIL: $serve_pk prepack pass(es) for 2 replica(s) + $serve_rs respawn(s)" >&2; exit 1; }
    grep -q '^mime_prepack_bytes [1-9]' target/serve_smoke.none.prom
    # an aborted replica is respawned and its requests requeued; a hung
    # one is declared dead and respawned; a slowed one blows deadlines;
    # both connection faults are answered as bad frames
    grep -Eq '^mime_replica_restarts_total [1-9]' target/serve_smoke.replica-abort.prom
    grep -Eq '^mime_frontdoor_retries_total [1-9]' target/serve_smoke.replica-abort.prom
    grep -Eq '^mime_replica_restarts_total [1-9]' target/serve_smoke.replica-hang.prom
    grep -Eq '^mime_frontdoor_deadline_exceeded_total [1-9]' target/serve_smoke.replica-slow.prom
    grep -Eq '^mime_frontdoor_bad_frames_total [1-9]' target/serve_smoke.conn-garbage.prom
    grep -Eq '^mime_frontdoor_bad_frames_total [1-9]' target/serve_smoke.conn-truncate.prom

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
    # process (front door + both replicas), and every front-door
    # request span's trace id must appear on exactly one stitched
    # replica_request span, batched or not
    timeout 120 ./target/release/mime loadgen --connect "$obs_fd_addr" \
        --requests 1 --concurrency 1 --drain >/dev/null \
        || { echo "FAIL: drain loadgen against the observed front door" >&2; exit 1; }
    wait "$obs_fd_pid" \
        || { echo "FAIL: observed front door crashed or failed to drain" >&2; exit 1; }
    if command -v python3 >/dev/null 2>&1; then
        python3 -c "
import collections, json, sys
d = json.load(open(sys.argv[1]))
ev = d['traceEvents']
labels = {e['args']['name'] for e in ev if e.get('ph') == 'M'}
assert 'frontdoor' in labels and 'replica 0' in labels and 'replica 1' in labels, labels
spans = [e for e in ev if e.get('ph') == 'X']
front = [e['args']['trace'] for e in spans if e['name'] == 'request']
replica = collections.Counter(e['args'].get('trace') for e in spans if e['name'] == 'replica_request')
assert front, 'no front-door request spans'
bad = [t for t in front if replica[t] != 1]
assert not bad, '%d of %d traces lack exactly one replica_request span: %s' % (len(bad), len(front), bad[:8])
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
