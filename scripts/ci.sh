#!/usr/bin/env bash
# CI gate for the MSROPM workspace, structured as named stages:
#
#   fmt    rustfmt check
#   lint   clippy over all targets and rustdoc, deny warnings; bash -n
#          over scripts/*.sh
#   test   full test suite, plus the CNF-repair proptest in release
#   build  release build incl. examples and the perfbench benchmark
#   smoke  job-server determinism smoke + wire smoke (real TCP loopback:
#          boot msropm_serve on an ephemeral port, run solve_remote
#          submit/status/cancel against it under a hard timeout) + HTTP
#          gateway smoke on two event loops (every problem class as JSON
#          over raw sockets, plus /v1/stats and /metrics scrapes)
#   chaos  fault-injection suite (crates/client/tests/chaos.rs): armed
#          panics, killed workers, deadlines and socket faults against
#          the binary codec, under a hard timeout — fault points are
#          process-global so the suite runs single-threaded
#   perf   bench_phase_step / serve_bench / wire_bench regression gates
#          against the committed BENCH_*.json baselines (wire_bench also
#          asserts the fault points are disarmed no-ops)
#
#   ./scripts/ci.sh                # full gate: every stage in order
#   ./scripts/ci.sh --quick        # fast stages only (fmt, lint, test)
#   ./scripts/ci.sh --stage lint   # one named stage (repeatable)
#
# Every stage prints its elapsed seconds; the last line is always a
# machine-readable CI_SUMMARY (result, per-stage timings, total).
set -euo pipefail
cd "$(dirname "$0")/.."

ALL_STAGES=(fmt lint test build smoke chaos perf)
QUICK_STAGES=(fmt lint test)

usage() {
    local joined
    joined=$(IFS='|'; echo "${ALL_STAGES[*]}")
    echo "usage: $0 [--quick] [--stage <$joined>]..." >&2
    exit 2
}

stage_fmt() {
    cargo fmt --check
}

stage_lint() {
    cargo clippy --all-targets -- -D warnings
    # The vendored epoll/poll shim carries the workspace's unsafe FFI
    # code; hold it to the same deny-warnings bar explicitly.
    cargo clippy -p polling --all-targets -- -D warnings
    check_unsafe_surface
    # Broken intra-doc links (for example to deleted or private items)
    # fail the gate instead of rotting silently.
    RUSTDOCFLAGS="-D warnings" cargo doc --offline --no-deps --workspace
    # Syntax check of every shell script, the ones CI never runs too.
    for script in scripts/*.sh; do
        bash -n "$script"
    done
    # The A/B summary's claim rule on synthetic reports.
    python3 scripts/ab_report.py --self-test
}

# The workspace crates' only unsafe is the guarded wide-sine dispatch in
# osc's fastmath: one `allow(unsafe_code)` item in a crate that denies
# unsafe, and every other crate forbids it outright.
check_unsafe_surface() {
    local allows lib
    allows=$(git grep -n 'allow(unsafe_code)' -- crates || true)
    if [[ $(wc -l <<<"$allows") -ne 1 || $allows != crates/osc/src/fastmath.rs:* ]]; then
        echo "unsafe surface: expected one allow(unsafe_code), in crates/osc/src/fastmath.rs; found:" >&2
        echo "$allows" >&2
        return 1
    fi
    grep -qxF '#![deny(unsafe_code)]' crates/osc/src/lib.rs || {
        echo "unsafe surface: crates/osc/src/lib.rs must deny(unsafe_code)" >&2
        return 1
    }
    for lib in crates/*/src/lib.rs; do
        [[ $lib == crates/osc/src/lib.rs ]] && continue
        grep -qxF '#![forbid(unsafe_code)]' "$lib" || {
            echo "unsafe surface: $lib must forbid(unsafe_code)" >&2
            return 1
        }
    done
}

stage_test() {
    cargo test -q
    # The incremental CNF repair against its from-scratch reference, in
    # release too: integer overflow goes unchecked there.
    PROPTEST_CASES=2000 cargo test -q --release -p msropm-problems --lib cnf_repair
    # The lane-width-specialized fixed-point drift and step against their
    # generic reference loops, bit for bit, likewise in release; the
    # mean-field lanes of complete graphs against their solo kernels and
    # within their bound of the per-edge form; and the noise increment's
    # wrap past half a turn per step.
    PROPTEST_CASES=2000 cargo test -q --release -p msropm-osc --lib drift_and_step_match_reference
    cargo test -q --release -p msropm-osc --lib -- mean_field_form mixed_complete_graph_lanes \
        noise_increment_wraps
    # Every lane of the f64 batch kernel, both sweep bodies, against a
    # one-lane kernel built from that lane's network, bit for bit — the
    # width check on the float kernel every run steps, likewise in release.
    PROPTEST_CASES=2000 cargo test -q --release -p msropm-osc --lib every_lane_matches_its_solo_kernel
    # Every wide sine tier the CPU runs against the baseline-width loop,
    # bit for bit; only a release build vectorizes, so only there does
    # the check compare vector code with vector code.
    cargo test -q --release -p msropm-osc --lib every_tier_matches_base_bitwise
    # The golden digests, the lane-identity contracts and the kernel
    # equivalences (the cross-format control test among them), in
    # release too: production runs release builds.
    cargo test -q --release --test f64_golden --test fx_golden --test lane_equivalence \
        --test batch_determinism --test kernel_equivalence
}

stage_build() {
    cargo build --release
    cargo build --release --examples
    # perfbench is a workspace of its own, so the builds above never
    # compile it; an API change in the crates it uses must not break
    # the benchmark unseen.
    cargo build --release --offline --manifest-path perfbench/Cargo.toml
}

stage_smoke() {
    # In-process server smoke: mixed batch, 1-vs-4-worker and
    # 1-vs-4-shard determinism. `timeout` tears everything down if
    # anything deadlocks.
    timeout --kill-after=10 120 \
        cargo run --release -p msropm-bench --bin serve_bench -- --smoke

    # Wire smoke: a real TCP server on an ephemeral loopback port, then
    # submit/status/cancel through the solve_remote client. The cancelled
    # job must never produce a report (asserted inside `smoke`). The
    # pass holds 512 completely idle connections open through the whole
    # scenario — served by the event loop with no per-connection
    # threads.
    cargo build --release -p msropm-server -p msropm-client \
        --bin msropm_serve --bin solve_remote
    run_wire_smoke "reactor" "--idle 512"

    # Problem-compiler smoke: one instance of every problem class
    # through the `problem` CLI verb (SubmitProblem on the wire),
    # covering the standard-format file ingestion paths too. (The
    # `smoke` verb above already submits all nine classes in-process
    # in-process; this exercises the user-facing CLI surface.)
    run_problem_smoke

    # HTTP gateway smoke: boot the HTTP codec on two event loops and
    # drive every problem class over raw sockets — no client library,
    # just bytes — then scrape /v1/stats and /metrics.
    run_http_smoke

    # Fixed-point backend smoke: a `--backend fixed` deployment forces
    # every job onto the integer kernel server-side, and a client-side
    # `--backend fixed` submission carries the tag over the wire codec.
    run_fixed_backend_smoke
}

# Boots msropm_serve with `--backend fixed` (binary codec) and
# submits through solve_remote: once plain (the server-side override
# forces the fixed-point kernel), once with the client's own
# `--backend fixed` flag (the config codec carries the backend tag
# end-to-end). Both must complete and report.
run_fixed_backend_smoke() {
    local port_file addr
    port_file=$(mktemp -t msropm_fx_smoke.XXXXXX)
    ./target/release/msropm_serve \
        --addr 127.0.0.1:0 --frontend reactor --workers 1 \
        --shards auto --backend fixed --port-file "$port_file" &
    wire_server_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port_file" ]] && break
        kill -0 "$wire_server_pid" 2>/dev/null || { echo "msropm_serve died" >&2; return 1; }
        sleep 0.1
    done
    [[ -s "$port_file" ]] || { echo "msropm_serve never published its port" >&2; return 1; }
    addr=$(<"$port_file")
    echo "    fixed-backend smoke against $addr (server-forced + client-tagged)"
    timeout --kill-after=10 60 \
        ./target/release/solve_remote --addr "$addr" \
        submit --graph kings:4x4 --replicas 2 --seed 7
    timeout --kill-after=10 60 \
        ./target/release/solve_remote --addr "$addr" \
        submit --graph kings:4x4 --replicas 2 --seed 7 --backend fixed
    kill "$wire_server_pid" 2>/dev/null || true
    wait "$wire_server_pid" 2>/dev/null || true
    wire_server_pid=""
    rm -f "$port_file"
}

# One raw HTTP/1.1 exchange over /dev/tcp: request on fd 9, response on
# stdout. `connection: close` delimits the response by EOF, so no
# content-length parsing is needed on the read side; the outer timeout
# turns a wedged server into a failure instead of a hung CI job.
http_request() {
    local addr=$1 method=$2 path=$3 body=${4-}
    local host=${addr%:*} port=${addr##*:}
    exec 9<>"/dev/tcp/$host/$port"
    if [[ -n "$body" ]]; then
        printf '%s %s HTTP/1.1\r\nhost: ci\r\nconnection: close\r\ncontent-type: application/json\r\ncontent-length: %s\r\n\r\n%s' \
            "$method" "$path" "${#body}" "$body" >&9
    else
        printf '%s %s HTTP/1.1\r\nhost: ci\r\nconnection: close\r\n\r\n' \
            "$method" "$path" >&9
    fi
    timeout --kill-after=5 30 cat <&9
    exec 9<&- 9>&-
}

# Boots `msropm_serve --frontend http --loops 2` and submits one
# instance of every problem class as JSON over raw sockets (each request
# on a fresh connection, so they round-robin across both loops),
# polling each job to a terminal report, then asserts /v1/stats and
# /metrics expose the registry (including the frontend marker).
run_http_smoke() {
    local port_file addr
    port_file=$(mktemp -t msropm_http_smoke.XXXXXX)
    ./target/release/msropm_serve \
        --addr 127.0.0.1:0 --frontend http --loops 2 --workers 2 \
        --shards auto --port-file "$port_file" &
    wire_server_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port_file" ]] && break
        kill -0 "$wire_server_pid" 2>/dev/null || { echo "msropm_serve died" >&2; return 1; }
        sleep 0.1
    done
    [[ -s "$port_file" ]] || { echo "msropm_serve never published its port" >&2; return 1; }
    addr=$(<"$port_file")
    echo "    http smoke against $addr (every class over raw HTTP/1.1)"

    local graph='p edge 4 5\ne 1 2\ne 2 3\ne 3 4\ne 1 4\ne 1 3\n'
    local cnf='p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n'
    local weights='3 1 4 1 5 9 2 6\n'
    local qubo='{\"n\":4,\"linear\":[-1.0,0.5,-0.5,0.25],\"quadratic\":[[0,1,1.0],[1,2,-1.0]]}'
    local ising='{\"n\":4,\"h\":[0.1,-0.2,0.3,0.0],\"j\":[[0,1,1.0],[1,2,1.0],[2,3,-1.0]]}'

    local class input response job_id status
    for spec in \
        "coloring|$graph" \
        "max-cut|$graph" \
        "max-k-cut|$graph" \
        "mis|$graph" \
        "vertex-cover|$graph" \
        "number-partition|$weights" \
        "cnf-sat|$cnf" \
        "qubo|$qubo" \
        "ising|$ising"
    do
        class=${spec%%|*}
        input=${spec#*|}
        response=$(http_request "$addr" POST /v1/problems \
            "{\"tenant\":\"ci\",\"class\":\"$class\",\"input\":\"$input\",\"replicas\":2,\"seed\":7}")
        job_id=$(grep -o '"job_id":[0-9]*' <<< "$response" | head -1 | cut -d: -f2)
        [[ -n "$job_id" ]] || { echo "http submit of $class failed: $response" >&2; return 1; }
        status=
        for _ in $(seq 1 150); do
            status=$(http_request "$addr" GET "/v1/jobs/$job_id?tenant=ci")
            grep -q '"state":"queued"\|"state":"running"' <<< "$status" || break
            sleep 0.2
        done
        grep -q '"state":"done"' <<< "$status" \
            || { echo "http job $job_id ($class) never finished: $status" >&2; return 1; }
        grep -q '"type":"problem_report"' <<< "$status" \
            || { echo "done answer for $class lacks its report: $status" >&2; return 1; }
    done

    # One more submission on the fixed-point backend: the JSON config
    # codec must carry {"backend":"fixed"} end-to-end.
    response=$(http_request "$addr" POST /v1/problems \
        "{\"tenant\":\"ci\",\"class\":\"max-cut\",\"input\":\"$graph\",\"replicas\":2,\"seed\":7,\"config\":{\"backend\":\"fixed\"}}")
    job_id=$(grep -o '"job_id":[0-9]*' <<< "$response" | head -1 | cut -d: -f2)
    [[ -n "$job_id" ]] || { echo "http submit on fixed backend failed: $response" >&2; return 1; }
    status=
    for _ in $(seq 1 150); do
        status=$(http_request "$addr" GET "/v1/jobs/$job_id?tenant=ci")
        grep -q '"state":"queued"\|"state":"running"' <<< "$status" || break
        sleep 0.2
    done
    grep -q '"state":"done"' <<< "$status" \
        || { echo "fixed-backend http job $job_id never finished: $status" >&2; return 1; }

    response=$(http_request "$addr" GET /v1/stats)
    grep -q '"frontend":"http"' <<< "$response" \
        || { echo "/v1/stats lacks the frontend marker: $response" >&2; return 1; }
    grep -q '"jobs_completed":10' <<< "$response" \
        || { echo "/v1/stats should count 10 completed jobs: $response" >&2; return 1; }

    response=$(http_request "$addr" GET /metrics)
    grep -q '^msropm_jobs_completed 10' <<< "$response" \
        || { echo "/metrics lacks msropm_jobs_completed: $response" >&2; return 1; }
    grep -q '^msropm_frontend{kind="http"} 1' <<< "$response" \
        || { echo "/metrics lacks the frontend gauge: $response" >&2; return 1; }

    kill "$wire_server_pid" 2>/dev/null || true
    wait "$wire_server_pid" 2>/dev/null || true
    wire_server_pid=""
    rm -f "$port_file"
}

# Boots a binary-codec server and submits one instance of every
# problem class through `solve_remote problem`, using generator specs
# for the graph classes and temp files for the text/JSON formats.
run_problem_smoke() {
    local port_file addr tmpdir
    port_file=$(mktemp -t msropm_problem_smoke.XXXXXX)
    tmpdir=$(mktemp -d -t msropm_problem_inputs.XXXXXX)
    ./target/release/msropm_serve \
        --addr 127.0.0.1:0 --frontend reactor --workers 2 \
        --shards auto --port-file "$port_file" &
    wire_server_pid=$!
    for _ in $(seq 1 100); do
        [[ -s "$port_file" ]] && break
        kill -0 "$wire_server_pid" 2>/dev/null || { echo "msropm_serve died" >&2; return 1; }
        sleep 0.1
    done
    [[ -s "$port_file" ]] || { echo "msropm_serve never published its port" >&2; return 1; }
    addr=$(<"$port_file")
    echo "    problem smoke against $addr (every class via SubmitProblem)"

    printf '3 1 4 1 5 9 2 6\n' > "$tmpdir/weights.txt"
    printf 'p cnf 3 3\n1 2 0\n-1 3 0\n-2 -3 0\n' > "$tmpdir/tiny.cnf"
    printf '{"n": 4, "linear": [-1.0, 0.5, -0.5, 0.25], "quadratic": [[0, 1, 1.0], [1, 2, -1.0]]}\n' \
        > "$tmpdir/tiny_qubo.json"
    printf '{"n": 4, "h": [0.1, -0.2, 0.3, 0.0], "j": [[0, 1, 1.0], [1, 2, 1.0], [2, 3, -1.0]]}\n' \
        > "$tmpdir/tiny_ising.json"

    local class input
    for spec in \
        "coloring kings:4x4" \
        "max-cut cycle:7" \
        "max-k-cut kings:4x4" \
        "mis cycle:9" \
        "vertex-cover kings:3x3" \
        "number-partition $tmpdir/weights.txt" \
        "cnf-sat $tmpdir/tiny.cnf" \
        "qubo $tmpdir/tiny_qubo.json" \
        "ising $tmpdir/tiny_ising.json"
    do
        read -r class input <<< "$spec"
        timeout --kill-after=10 60 \
            ./target/release/solve_remote --addr "$addr" \
            problem --class "$class" --input "$input" --replicas 2 --seed 7
    done

    kill "$wire_server_pid" 2>/dev/null || true
    wait "$wire_server_pid" 2>/dev/null || true
    wire_server_pid=""
    rm -rf "$port_file" "$tmpdir"
}

# Boots msropm_serve with the given --frontend on an ephemeral port and
# runs `solve_remote smoke` (plus any extra smoke flags) against it.
run_wire_smoke() {
    local frontend=$1 extra=$2
    local port_file addr
    port_file=$(mktemp -t msropm_wire_smoke.XXXXXX)
    ./target/release/msropm_serve \
        --addr 127.0.0.1:0 --frontend "$frontend" --workers 1 \
        --shards auto --max-conns 600 --port-file "$port_file" &
    wire_server_pid=$!   # global: finish() reaps it on any exit path
    for _ in $(seq 1 100); do
        [[ -s "$port_file" ]] && break
        kill -0 "$wire_server_pid" 2>/dev/null || { echo "msropm_serve died" >&2; return 1; }
        sleep 0.1
    done
    [[ -s "$port_file" ]] || { echo "msropm_serve never published its port" >&2; return 1; }
    addr=$(<"$port_file")
    echo "    wire smoke against $addr ($frontend frontend${extra:+, $extra})"
    # shellcheck disable=SC2086  # $extra is intentionally word-split
    timeout --kill-after=10 180 \
        ./target/release/solve_remote smoke --addr "$addr" $extra
    kill "$wire_server_pid" 2>/dev/null || true
    wait "$wire_server_pid" 2>/dev/null || true
    wire_server_pid=""
    rm -f "$port_file"
}

stage_chaos() {
    # Every wait in the suite is internally bounded; the outer timeout
    # is the backstop that turns a wedged run into a hard failure
    # instead of a hung CI job. Single-threaded: the fault points are
    # process-global and the tests serialize on them.
    timeout --kill-after=10 600 \
        cargo test -q -p msropm-client --test chaos --test failure_modes \
        -- --test-threads=1
}

stage_perf() {
    timeout --kill-after=10 600 \
        cargo run --release -p msropm-bench --bin bench_phase_step -- \
        --out "$(mktemp -t bench_phase_step_ci.XXXXXX.json)" \
        --baseline BENCH_phase_step.json
    timeout --kill-after=10 600 \
        cargo run --release -p msropm-bench --bin serve_bench -- \
        --out "$(mktemp -t bench_serve_ci.XXXXXX.json)" \
        --baseline BENCH_serve.json
    timeout --kill-after=10 600 \
        cargo run --release -p msropm-bench --bin wire_bench -- \
        --out "$(mktemp -t bench_wire_ci.XXXXXX.json)" \
        --baseline BENCH_serve.json
    # Solution-quality gate: deterministic problem-compiler accuracy
    # vs the committed per-class baselines.
    timeout --kill-after=10 600 \
        cargo run --release -p msropm-bench --bin problems_bench -- \
        --out "$(mktemp -t bench_problems_ci.XXXXXX.json)" \
        --baseline BENCH_problems.json
}

# --- driver ----------------------------------------------------------

stages=()
while [[ $# -gt 0 ]]; do
    case "$1" in
        --quick)
            stages+=("${QUICK_STAGES[@]}")
            ;;
        --stage)
            shift
            [[ $# -gt 0 ]] || usage
            stages+=("$1")
            ;;
        *)
            usage
            ;;
    esac
    shift
done
if [[ ${#stages[@]} -eq 0 ]]; then
    stages=("${ALL_STAGES[@]}")
fi
for s in "${stages[@]}"; do
    declare -F "stage_$s" > /dev/null || { echo "unknown stage: $s" >&2; usage; }
done

summary=()
current_stage=""
wire_server_pid=""
finish() {
    local rc=$?
    if [[ -n "$wire_server_pid" ]]; then
        kill "$wire_server_pid" 2>/dev/null || true
    fi
    local joined=""
    if [[ ${#summary[@]} -gt 0 ]]; then
        joined=$(IFS=,; echo "${summary[*]}")
    fi
    if [[ $rc -eq 0 ]]; then
        echo "CI_SUMMARY result=pass stages=$joined total=${SECONDS}s"
    else
        echo "CI_SUMMARY result=fail stage=${current_stage:-setup} stages=$joined total=${SECONDS}s"
    fi
}
trap finish EXIT

for s in "${stages[@]}"; do
    current_stage=$s
    t0=$SECONDS
    echo "==> stage $s"
    "stage_$s"
    dt=$((SECONDS - t0))
    echo "==> stage $s OK (${dt}s)"
    summary+=("$s:${dt}s")
done
current_stage=""

echo "CI gate passed."
