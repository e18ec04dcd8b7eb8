#!/usr/bin/env bash
# Drive the chaos/equivalence sweep: hundreds of seeded random fault
# scenarios (node crashes, RPC drops/delays/duplicates, fetch timeouts,
# segment corruption, spill I/O errors, and spill_corrupt: bit rot in a
# spill container or KV log value read back, caught by its checksum),
# each asserting the recovered barrier-less run's output is
# byte-identical to a fault-free golden run of the same app and store
# backend.
#
#   scripts/chaos.sh             # default sweep (200 seeds)
#   scripts/chaos.sh 1000        # wider sweep
#   BMR_CHAOS_SEEDS=50 scripts/chaos.sh   # env form works too
#
# A failing seed is printed with its full FaultPlan and reproduces
# deterministically: re-run with the same seed count and the same
# binary, or see docs/GUIDE.md §8 for narrowing to a single scenario.
set -euo pipefail
cd "$(dirname "$0")/.."

seeds="${1:-${BMR_CHAOS_SEEDS:-200}}"
jobs=$(nproc 2>/dev/null || echo 2)

cmake --preset default
cmake --build --preset default -j "${jobs}"

# Flight dumps (GUIDE §15): every faulted run dumps its own event
# record into this directory; after the sweep each artifact must
# validate as Perfetto JSON carrying its trigger instant and the job's
# task-phase spans.  A crashy sweep that leaves no artifacts is itself
# a failure.
flight_dir=$(mktemp -d)
export BMR_FLIGHT_DIR="${flight_dir}"
trap 'rm -rf "${flight_dir}"' EXIT
# The sweep runs once per (transport, codec) pair: every scenario must
# recover to byte-identical output whether the RPCs ride the in-process
# registry or real TCP sockets, and whether shuffle segments travel
# uncompressed or lz4-block-compressed — the data plane's knobs are
# interchangeable under fault load, or they are not interchangeable at
# all.
for transport in inproc tcp; do
  for codec in none lz4; do
    echo "== chaos sweep: ${seeds} seeded scenarios" \
         "(net.transport=${transport}, shuffle.codec=${codec}) =="
    BMR_CHAOS_SEEDS="${seeds}" BMR_NET_TRANSPORT="${transport}" \
      BMR_SHUFFLE_CODEC="${codec}" \
      ctest --preset default -L chaos -j "${jobs}"
  done
done

echo "== validating flight-dump artifacts from the sweep =="
cmake --build build -j "${jobs}" --target bmr_trace >/dev/null
./build/tools/bmr_trace --validate-flight="${flight_dir}"
echo "== chaos sweep passed (${seeds} seeds, both transports, both codecs) =="
