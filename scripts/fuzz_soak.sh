#!/usr/bin/env bash
# Extended coverage-guided fuzz soak for the four SDP codecs and the UPnP
# description XML — the long-form companion to CI's 45 s smoke
# (docs/chaos.md). Each harness explores
# from the checked-in seed corpus under ASan/UBSan for a configurable number
# of minutes; any crash/OOM/timeout fails the run and leaves the offending
# artifact behind for triage. Inputs that reached new coverage are merged
# back into fuzz/corpus/<codec> afterwards — commit the new files so every
# later smoke and soak starts from the deeper frontier.
#
#   scripts/fuzz_soak.sh                   # 10 minutes per harness, all of them
#   scripts/fuzz_soak.sh 30                # 30 minutes per codec
#   scripts/fuzz_soak.sh 5 mdns slp        # 5 minutes, only these codecs
#   FUZZ_BUILD_DIR=build-f scripts/fuzz_soak.sh
#
# Needs clang: the soak is pointless without libFuzzer's coverage feedback
# (the GCC fallback harness only replays a fixed corpus), so the script
# configures its own clang tree at FUZZ_BUILD_DIR (default build-fuzz).
set -euo pipefail

cd "$(dirname "$0")/.."

MINUTES=10
if [ $# -gt 0 ] && [[ "$1" =~ ^[0-9]+$ ]]; then
  MINUTES="$1"
  shift
fi
CODECS=("$@")
if [ ${#CODECS[@]} -eq 0 ]; then
  CODECS=(slp ssdp jini mdns description)
fi
for codec in "${CODECS[@]}"; do
  if [ ! -d "fuzz/corpus/${codec}" ]; then
    echo "error: unknown codec '${codec}' (no fuzz/corpus/${codec})" >&2
    exit 2
  fi
done

if ! command -v clang++ > /dev/null; then
  echo "error: clang++ not found — the soak needs libFuzzer" >&2
  exit 2
fi

FUZZ_BUILD_DIR="${FUZZ_BUILD_DIR:-build-fuzz}"
if [ ! -f "${FUZZ_BUILD_DIR}/CMakeCache.txt" ]; then
  echo "== configure ${FUZZ_BUILD_DIR} (clang + libFuzzer + ASan/UBSan) =="
  cmake -B "${FUZZ_BUILD_DIR}" -S . \
    -DCMAKE_BUILD_TYPE=Debug \
    -DCMAKE_C_COMPILER=clang \
    -DCMAKE_CXX_COMPILER=clang++ \
    -DINDISS_FUZZ=ON \
    -DINDISS_SANITIZE=ON \
    -DINDISS_BUILD_TESTS=OFF \
    -DINDISS_BUILD_BENCH=OFF \
    -DINDISS_BUILD_EXAMPLES=OFF
fi

TARGETS=()
for codec in "${CODECS[@]}"; do
  TARGETS+=("fuzz_${codec}")
done
echo "== build ${TARGETS[*]} =="
cmake --build "${FUZZ_BUILD_DIR}" --target "${TARGETS[@]}" -j

export ASAN_OPTIONS="${ASAN_OPTIONS:-strict_string_checks=1:detect_stack_use_after_return=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-print_stacktrace=1}"

STATUS=0
for codec in "${CODECS[@]}"; do
  bin="${FUZZ_BUILD_DIR}/fuzz/fuzz_${codec}"
  if ! "${bin}" -help=1 2> /dev/null | grep -q max_total_time; then
    echo "error: ${bin} is not libFuzzer-engined (built with GCC?)" >&2
    exit 2
  fi
  work="$(mktemp -d "/tmp/fuzz-soak-${codec}.XXXXXX")"
  mkdir -p "${work}/new"
  echo "== soak fuzz_${codec} for ${MINUTES} min =="
  if ! "${bin}" -max_total_time=$((MINUTES * 60)) -timeout=10 \
       -rss_limit_mb=2048 -print_final_stats=1 \
       -artifact_prefix="${work}/" \
       "${work}/new" "fuzz/corpus/${codec}"; then
    echo "FAIL: fuzz_${codec} crashed; artifacts in ${work}:" >&2
    ls -l "${work}" | grep -v "^d" >&2 || true
    STATUS=1
    continue
  fi
  # Merge-back: -merge=1 copies only inputs that add coverage over the
  # checked-in corpus, keeping it minimal while preserving the frontier.
  before=$(find "fuzz/corpus/${codec}" -type f | wc -l)
  "${bin}" -merge=1 "fuzz/corpus/${codec}" "${work}/new" > /dev/null 2>&1
  after=$(find "fuzz/corpus/${codec}" -type f | wc -l)
  echo "== fuzz_${codec}: $((after - before)) new corpus entries" \
       "(fuzz/corpus/${codec}: ${before} -> ${after}) =="
  rm -rf "${work}"
done

if [ "${STATUS}" != 0 ]; then
  echo "FAIL: at least one codec crashed during the soak" >&2
  exit "${STATUS}"
fi
echo "OK: ${MINUTES} min soak per codec (${CODECS[*]}) with zero findings"
git status --short fuzz/corpus || true
