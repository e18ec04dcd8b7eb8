#!/usr/bin/env bash
# Build and run the test suite under one or more CMake presets, plus
# the repo lint gate.
#
#   scripts/check.sh              # default preset only
#   scripts/check.sh analyze      # static analyzer (tools/bmr_check)
#   scripts/check.sh lint         # just the lint gate (scripts/lint.sh)
#   scripts/check.sh asan         # just the asan preset
#   scripts/check.sh ubsan        # decoder/store suites under UBSan
#   scripts/check.sh chaos        # full chaos sweep (scripts/chaos.sh)
#   scripts/check.sh bench        # smoke bench + BENCH_datapath.json gate
#                                 # + e2ebench driver build and self-test
#   scripts/check.sh service      # smoke bench + BENCH_service.json gate
#                                 # (jobs/sec, per-tenant fairness, p99)
#   scripts/check.sh obs          # traced wordcount + artifact validation
#   scripts/check.sh introspect   # live HTTP endpoints scraped over TCP
#                                 # transport + stitched-trace gate
#   scripts/check.sh tcp          # RPC-heavy suites over the TCP transport
#   scripts/check.sh codec        # shuffle-heavy suites with shuffle.codec=lz4
#   scripts/check.sh all          # analyze, lint, default, tcp, codec,
#                                 # chaos, bench, service, obs, introspect,
#                                 # asan, tsan, ubsan
#   scripts/check.sh default tsan # any explicit list
#
# Sanitizer presets build into their own directories (build-asan,
# build-tsan) so they never disturb the default build tree.  The `tidy`
# preset (build-tidy) needs a Clang toolchain and runs the
# -Wthread-safety analysis over the annotated locking API.
set -euo pipefail
cd "$(dirname "$0")/.."

presets=("$@")
if [ ${#presets[@]} -eq 0 ]; then
  presets=(default)
elif [ "${presets[0]}" = "all" ]; then
  # analyze runs first: the static analyzer compiles in ~2s and fails
  # fast on invariant violations before any build or test time is spent.
  presets=(analyze lint default tcp codec chaos bench service obs introspect asan tsan ubsan)
fi

jobs=$(nproc 2>/dev/null || echo 2)
for preset in "${presets[@]}"; do
  echo "== preset: ${preset} =="
  if [ "${preset}" = analyze ]; then
    # Static analyzer (docs/GUIDE.md §12): compiled directly — no cmake
    # configure needed — so the leg gates `all` in seconds.
    mkdir -p build
    g++ -std=c++20 -O2 -Wall -Wextra -Werror -I tools/bmr_check \
      -o build/bmr_check_gate tools/bmr_check/analyzer.cc \
      tools/bmr_check/main.cc
    ./build/bmr_check_gate --root=.
    continue
  fi
  if [ "${preset}" = lint ]; then
    scripts/lint.sh
    continue
  fi
  if [ "${preset}" = ubsan ]; then
    # UBSan leg: the untrusted-input decoders and the store stack — the
    # suites whose inputs the fuzzer mutates — with recovery disabled
    # so any UB report is fatal.
    cmake --preset ubsan >/dev/null
    cmake --build --preset ubsan -j "${jobs}" --target \
      common_test net_framing_test stores_test fuzz_decoders_test >/dev/null
    for t in common_test net_framing_test stores_test fuzz_decoders_test; do
      echo "== ubsan: ${t} =="
      "./build-ubsan/tests/${t}"
    done
    continue
  fi
  if [ "${preset}" = chaos ]; then
    scripts/chaos.sh
    continue
  fi
  if [ "${preset}" = bench ]; then
    # Smoke-size bench run; fails if any BENCH_datapath.json metric
    # regresses more than 20% below the checked-in baseline.
    scripts/bench.sh --smoke --suite datapath
    # The end-to-end benchmark driver (e2ebench/, BENCHMARK.json) is its
    # own CMake package over src/: build it and run its self-test, so a
    # src/ change that breaks it fails here rather than in a benchmark
    # run.  Its build tree goes under build/.
    CARGO_TARGET_DIR=build/e2ebench-target python3 e2ebench/run.py --self-test
    continue
  fi
  if [ "${preset}" = service ]; then
    # Multi-tenant job-service bench: sustained jobs/sec, per-tenant
    # fair-share fraction (floor 0.4 = the 50%-10% bar), and p99 job
    # latency (gated as its inverse), vs BENCH_service.baseline.json.
    scripts/bench.sh --smoke --suite service
    continue
  fi
  if [ "${preset}" = tcp ]; then
    # Transport-parity leg: the RPC-heavy unit suites build their
    # transport through tests/transport_test_util.h (and the engine
    # through the net.transport knob), so the same binaries rerun over
    # real TCP sockets with one env var.  rpc_test itself always covers
    # both transports; these reruns put the shuffle service, DFS and
    # multi-job scheduling on the wire path too.
    cmake --preset default >/dev/null
    cmake --build --preset default -j "${jobs}" >/dev/null
    for t in rpc_test net_framing_test dfs_test shuffle_service_test \
             mr_unit_test multijob_test; do
      echo "== tcp: ${t} =="
      BMR_NET_TRANSPORT=tcp "./build/tests/${t}"
    done
    continue
  fi
  if [ "${preset}" = codec ]; then
    # Codec-parity leg: rerun the suites that push real segments through
    # the shuffle path with block compression on (BMR_SHUFFLE_CODEC is
    # the env fallback for the shuffle.codec knob), so every framed
    # record stream also round-trips the lz4 encoder, the per-block
    # checksums, and the pool-backed decode buffers.  The chaos leg
    # covers codecs under fault load; this one covers them in the plain
    # unit suites.
    cmake --preset default >/dev/null
    cmake --build --preset default -j "${jobs}" >/dev/null
    for t in shuffle_service_test mr_unit_test multijob_test engine_test \
             fuzz_decoders_test arena_test; do
      echo "== codec: ${t} =="
      BMR_SHUFFLE_CODEC=lz4 "./build/tests/${t}"
    done
    continue
  fi
  if [ "${preset}" = obs ]; then
    # Observability leg: run a traced wordcount plus a simulated run
    # through the exporters and self-validate the artifacts (Perfetto
    # JSON well-formedness, span nesting, monotonic timestamps;
    # Prometheus naming and histogram coherence) — bmr_trace --check
    # exits nonzero on any violation.
    cmake --preset default >/dev/null
    cmake --build build -j "${jobs}" --target bmr_trace >/dev/null
    ./build/tools/bmr_trace --check \
      --trace-out=build/obs_trace.json --prom-out=build/obs_metrics.prom
    continue
  fi
  if [ "${preset}" = introspect ]; then
    # Live-introspection leg (GUIDE §15): a job service over the TCP
    # transport serves /metrics, /jobs, and /trace over HTTP while an
    # external scraper (this script + curl) pulls and validates all
    # three — then the stitched-trace acceptance gate runs over TCP.
    cmake --preset default >/dev/null
    cmake --build build -j "${jobs}" --target bmr_trace >/dev/null
    serve_log=$(mktemp)
    BMR_NET_TRANSPORT=tcp ./build/tools/bmr_trace --serve=30 \
      >"${serve_log}" 2>&1 &
    serve_pid=$!
    trap 'kill "${serve_pid}" 2>/dev/null || true' EXIT
    port=""
    for _ in $(seq 1 100); do
      port=$(sed -n 's/^INTROSPECT PORT=//p' "${serve_log}")
      [ -n "${port}" ] && break
      kill -0 "${serve_pid}" 2>/dev/null || {
        echo "introspect: server died early:"; cat "${serve_log}"; exit 1; }
      sleep 0.2
    done
    [ -n "${port}" ] || { echo "introspect: no port line"; cat "${serve_log}"; exit 1; }
    # Let the traced jobs finish so the scrape sees completed pools.
    for _ in $(seq 1 150); do
      grep -q "SERVE JOBS DONE" "${serve_log}" && break
      sleep 0.2
    done
    curl -sf "http://127.0.0.1:${port}/metrics" > build/introspect_metrics.prom
    curl -sf "http://127.0.0.1:${port}/jobs" > build/introspect_jobs.json
    curl -sf "http://127.0.0.1:${port}/trace?last=200" > build/introspect_trace.json
    kill "${serve_pid}" 2>/dev/null || true
    wait "${serve_pid}" 2>/dev/null || true
    trap - EXIT
    ./build/tools/bmr_trace --validate-prom=build/introspect_metrics.prom
    ./build/tools/bmr_trace --validate-json=build/introspect_jobs.json
    ./build/tools/bmr_trace --validate-trace=build/introspect_trace.json
    grep -q 'bmr_service_jobs_completed_total' build/introspect_metrics.prom \
      || { echo "introspect: service families missing from /metrics"; exit 1; }
    grep -q '"pools"' build/introspect_jobs.json \
      || { echo "introspect: pool tree missing from /jobs"; exit 1; }
    grep -q '"cat":"task"' build/introspect_trace.json \
      || { echo "introspect: no task-phase span in /trace"; exit 1; }
    # Acceptance gate: a traced TCP wordcount yields one stitched tree
    # (rpc.handler spans under cross-node parents, zero orphans).
    BMR_NET_TRANSPORT=tcp ./build/tools/bmr_trace --check \
      --trace-out=build/introspect_check.json \
      --prom-out=build/introspect_check.prom
    continue
  fi
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  # Sanitizer presets rerun everything including the chaos sweep; bound
  # the sweep there (sanitized scenarios are ~20x slower) unless the
  # caller chose a count.  scripts/chaos.sh runs the full sweep.
  if [ "${preset}" != default ]; then
    BMR_CHAOS_SEEDS="${BMR_CHAOS_SEEDS:-30}" ctest --preset "${preset}" -j "${jobs}"
  else
    ctest --preset "${preset}" -j "${jobs}"
  fi
done
echo "== all presets passed: ${presets[*]} =="
