#!/usr/bin/env sh
# Tier-1 verification: configure, build everything, run the full ctest suite,
# then check the generated docs have not drifted from the code.
#
#   verify.sh            build + ctest in ./build (Release by default),
#                        then the doc-drift gate (docs/METRICS.md must match
#                        its regenerated form; DESIGN.md must keep its
#                        numbered sections) and the report-schema gate
#                        (every BENCH_*.json carries a "schema" key)
#   verify.sh --asan     additionally build with ASan+UBSan in ./build-asan
#                        and run the TPM and core suites, the random-input
#                        parser battery, the hash/AES/Montgomery/RSA suites,
#                        the report writer's suite and the machine and OS
#                        suites under the sanitizers
#   verify.sh --faults   additionally run the fault-injection campaign
#                        (ctest -L faults, crash matrix included) under
#                        ASan+UBSan and refresh BENCH_robustness.json
#   verify.sh --net      additionally run the adversarial-network campaign
#                        (ctest -L net, chaos matrix included) under
#                        ASan+UBSan and refresh BENCH_net.json
#   verify.sh --obs      additionally run the observability campaign:
#                        obs-labeled suites under ASan+UBSan, two same-seed
#                        SSH trace exports diffed byte-for-byte, and a
#                        BENCH_obs.json refresh
#   verify.sh --perf     additionally run the SIMD differential campaign: a
#                        -DFLICKER_SIMD=OFF rebuild in ./build-noperf, whose
#                        hash, cipher and Montgomery kernels are scalar only,
#                        must pass the hash/AES/Montgomery/RSA/batch-quote
#                        suites, and its paper tables/figures (Table 1/2/4,
#                        Fig. 9, the section 7.4.2 CA) and flagship fleet and
#                        vTPM reports must be byte-identical to the SIMD
#                        build's - the diff covers the SIMD kernels (IFMA
#                        Montgomery, SHA-NI, AES-NI), and speed is the only
#                        thing they may change
#   verify.sh --fleet    additionally run the fleet simulation campaign:
#                        fleet-labeled suites under ASan+UBSan, a
#                        1000-machine sanitizer smoke run, a same-seed
#                        double run of the flagship bench whose JSON must be
#                        byte-identical (refreshing BENCH_fleet.json), and a
#                        multi-seed 64-machine chaos sweep in which
#                        accepted_wrong must stay zero
#   verify.sh --vtpm     additionally run the vTPM multiplexer campaign:
#                        vtpm-labeled suites (wire hardening, rollback
#                        attack, crash matrix, double faults) under
#                        ASan+UBSan, then multi-seed noisy-neighbor chaos
#                        double runs whose JSON must be byte-identical
#                        (refreshing BENCH_vtpm.json) with accepted_wrong
#                        pinned at zero
#   verify.sh --chaos-fuzz
#                        additionally run the composite chaos-fuzz campaign
#                        under ASan+UBSan: a clean-store campaign that must
#                        find nothing, a seeded misordered-commit campaign
#                        that must find a torn_state violation and shrink
#                        it, and the committed minimal replay
#                        (tools/chaos/minimal_torn_state.replay) re-run
#                        twice - byte-identical output, signature matched
#   verify.sh --hv       additionally run the concurrent-execution campaign:
#                        hv-labeled suites (late-launch, classic/concurrent
#                        parity, cross-core adversary battery, fleet
#                        campaign) under ASan+UBSan, then the release
#                        build's flagship bench twice with the same seed -
#                        byte-identical JSON (refreshing BENCH_hv.json,
#                        micro_hv exits 2 if any attack is accepted or
#                        mistyped) - and a multi-seed quiet sweep
#   verify.sh --tsan     additionally build with ThreadSanitizer in ./build-tsan
#                        and run the fleet-labeled suites and the obs suites
#                        (traced fleet builds included) plus a 64-machine
#                        fleet bench there; any race report fails the run
#   verify.sh --coverage additionally build only the products (every bench,
#                        every example and perfbench's workload) in
#                        ./build-cov at -O0 -fno-inline --coverage with the
#                        SIMD kernels compiled out, run each once in the
#                        modes the other rows run, and fail on any named
#                        function a src/*.cc defines that ran zero times and
#                        tools/coverage.allow does not list, or on an
#                        allowlist entry that names no such function
#
# Usage: verify.sh [--asan|--faults|--net|--obs|--perf|--fleet|--vtpm|--chaos-fuzz|--hv|--tsan|--coverage] [build-dir]
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")" && pwd)
usage="usage: verify.sh [--asan|--faults|--net|--obs|--perf|--fleet|--vtpm|--chaos-fuzz|--hv|--tsan|--coverage] [build-dir]"

# One row per campaign flag:
#   build      the side build its suites run in: asan (./build-asan,
#              ASan+UBSan), tsan (./build-tsan, ThreadSanitizer), noperf
#              (./build-noperf, -DFLICKER_SIMD=OFF) or cov (./build-cov,
#              unoptimised, gcov-instrumented, SIMD off)
#   follow_up  the checks run afterwards (- none)
#   selection  the ctest selection (-L label or -R regex) of its suites; the
#              side build compiles exactly the targets `ctest -N` lists for
#              it (test name == target name, see tests/CMakeLists.txt);
#              - - compiles and runs no suites
#   extra      further targets the side build needs (comma list, - none)
campaigns='
--asan          asan    -                       -R ^(tpm_|core_|os_tqd_robustness_test|common_serde_test|common_json_test|integration_robustness_test|crypto_montgomery_test|crypto_rsa_test|crypto_hash_test|crypto_aes_test|hw_machine_test|os_os_test)  -
--faults        asan    faults_follow_up        -L faults  -
--net           asan    net_follow_up           -L net     -
--obs           asan    obs_follow_up           -L obs     -
--perf          noperf  perf_follow_up          -L simd    table1_rootkit,table2_skinit,table4_distributed,fig9_ssh,sec742_ca,micro_fleet,micro_vtpm
--fleet         asan    fleet_follow_up         -L fleet   micro_fleet
--vtpm          asan    vtpm_follow_up          -L vtpm    -
--chaos-fuzz    asan    chaos_fuzz_follow_up    -R ^sim_chaos_fuzz_test$  micro_fleet
--hv            asan    hv_follow_up            -L hv      -
--tsan          tsan    tsan_follow_up          -L ^(fleet|obs)$  micro_fleet
--coverage      cov     coverage_follow_up      - -        -
'
campaign=
case "${1:-}" in
  --*)
    campaign=$(printf '%s\n' "$campaigns" | awk -v flag="$1" '$1 == flag')
    if [ -z "$campaign" ]; then
      echo "$usage" >&2
      exit 2
    fi
    shift
    ;;
esac
build_dir=${1:-"$repo_root/build"}
jobs=$(nproc 2>/dev/null || echo 4)

cmake -B "$build_dir" -S "$repo_root"
cmake --build "$build_dir" -j "$jobs"
ctest --test-dir "$build_dir" --output-on-failure -j "$jobs"

# ---- Allocation-bomb gate (release builds) ----
#
# The hostile-input batteries re-run under a 2 GiB address-space cap, so a
# wire-supplied length that sizes an allocation fails loudly (bad_alloc)
# instead of quietly running for a minute. ASan reserves terabytes of shadow
# memory up front, so a sanitizer build skips this.
if ! grep -q '^CMAKE_BUILD_TYPE:STRING=Asan$' "$build_dir/CMakeCache.txt"; then
  (
    ulimit -v 2097152
    ctest --test-dir "$build_dir" --output-on-failure -j "$jobs" -R \
      '^(tpm_commands_negative_test|integration_robustness_test|common_serde_test|os_tqd_robustness_test)$'
  )
  echo "verify.sh: hostile-input batteries pass under a 2 GiB address-space cap"
fi

# ---- Doc-drift gate (always on) ----
#
# docs/METRICS.md is generated from the metric definition tables in
# src/obs/metrics.cc; a hand edit or a new metric without a regen fails here.
# Regenerate with: build/bench/micro_obs --dump_metrics_md=docs/METRICS.md
"$build_dir/bench/micro_obs" --dump_metrics_md="$build_dir/METRICS.regen.md" > /dev/null
if ! cmp -s "$build_dir/METRICS.regen.md" "$repo_root/docs/METRICS.md"; then
  echo "verify.sh: docs/METRICS.md drifted from src/obs/metrics.cc" >&2
  echo "  regenerate with: $build_dir/bench/micro_obs --dump_metrics_md=docs/METRICS.md" >&2
  diff -u "$repo_root/docs/METRICS.md" "$build_dir/METRICS.regen.md" >&2 || true
  exit 1
fi
# DESIGN.md must keep its numbered sections; a refactor that silently drops
# the observability/robustness design record fails here.
for heading in \
  '## 5\.' '## 8\.' '## 9\.' '## 10\.' '## 11\.' '## 12\.' '## 13\.' '## 14\.' \
  '## 15\.' '## 16\.'; do
  if ! grep -q "^$heading" "$repo_root/DESIGN.md"; then
    echo "verify.sh: DESIGN.md is missing section heading '$heading'" >&2
    exit 1
  fi
done
# docs/HYPERVISOR.md is the operator's record of the concurrent-execution
# mode; it must keep the threat model, the protection table, and the two
# session lifecycles. README.md must keep the build-flag matrix the docs
# point operators at.
for heading in '## Threat model' '## Nested protections' \
  '## Session lifecycles' '## Denial taxonomy'; do
  if ! grep -q "^$heading" "$repo_root/docs/HYPERVISOR.md"; then
    echo "verify.sh: docs/HYPERVISOR.md is missing heading '$heading'" >&2
    exit 1
  fi
done
if ! grep -q '^## Build-flag matrix' "$repo_root/README.md"; then
  echo "verify.sh: README.md is missing the '## Build-flag matrix' section" >&2
  exit 1
fi

# ---- Report-schema gate (always on) ----
#
# Every committed BENCH_*.json names its format in a "schema" key, so a
# reader can tell a report's version before trusting its fields.
for report in "$repo_root"/BENCH_*.json; do
  if ! grep -q '"schema":' "$report"; then
    echo "verify.sh: $(basename "$report") has no \"schema\" key" >&2
    exit 1
  fi
done

# ---- Time-discipline gate (always on) ----
#
# Only the discrete-event engine (src/sim/) and the hardware-model charge
# sites listed in tools/time_discipline.allow may advance a SimClock
# directly. Anything else that wants time to pass must post an event.
allow_regex="$build_dir/time_discipline.regex"
sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e '/^$/d' -e 's/\./\\./g' \
    -e 's#^#^#' -e 's#$#:#' \
    "$repo_root/tools/time_discipline.allow" > "$allow_regex"
time_violations=$(grep -rnE 'Advance(Nanos|Micros|Millis|ToNanos)[[:space:]]*\(' \
    "$repo_root/src" --include='*.cc' --include='*.h' \
  | sed "s#^$repo_root/##" \
  | grep -v '^src/sim/' \
  | grep -vEf "$allow_regex" || true)
if [ -n "$time_violations" ]; then
  echo "verify.sh: direct SimClock advancement outside src/sim/ and the allowlist:" >&2
  echo "$time_violations" >&2
  echo "  schedule an event on the executor instead, or (for a genuine" >&2
  echo "  hardware cost model) add the file to tools/time_discipline.allow" >&2
  exit 1
fi

# ---- Coverage allowlist format (always on) ----
#
# Every tools/coverage.allow entry is one qualified name and a '# reason'
# that starts with its class, so a malformed entry fails here without the
# -O0 build --coverage needs.
allow_file="$repo_root/tools/coverage.allow"
malformed=$(grep -vE '^[[:space:]]*(#|$)' "$allow_file" \
  | grep -vE '^[^#[:space:]][^#]*#[[:space:]]*(test vectors|observer|fault seam|error path|paper mechanism|adversary path):[[:space:]]*[^[:space:]]' \
  || true)
if [ -n "$malformed" ]; then
  echo "verify.sh: tools/coverage.allow entries without a classed '# reason':" >&2
  echo "$malformed" >&2
  echo "  each reason starts with test vectors:, observer:, fault seam:," >&2
  echo "  error path:, paper mechanism: or adversary path:" >&2
  exit 1
fi

# ---- Crash-point coverage gate (always on) ----
#
# Every CRASH_POINT("...") durability marker in src/ must be executed by the
# crash-matrix / double-fault suites. A new durability boundary the matrix
# never reaches fails here before it can rot uncovered. The census binaries
# append the points they executed to $FLICKER_CRASH_POINTS_OUT.<tag>.txt;
# registration happens on execution, so scheduler arming does not matter.
census_prefix="$build_dir/crash_points"
rm -f "$census_prefix".*.txt
for census_bin in integration_crash_matrix_test vtpm_crash_matrix_test \
    vtpm_double_fault_test; do
  FLICKER_CRASH_POINTS_OUT="$census_prefix" \
    "$build_dir/tests/$census_bin" > /dev/null
done
grep -rhoE 'CRASH_POINT\("[^"]+"\)' "$repo_root/src" \
    --include='*.cc' --include='*.h' --exclude=fault.h \
  | sed -e 's/^CRASH_POINT("//' -e 's/")$//' | sort -u \
  > "$build_dir/crash_points.expected"
sort -u "$census_prefix".*.txt > "$build_dir/crash_points.covered"
uncovered=$(comm -23 "$build_dir/crash_points.expected" "$build_dir/crash_points.covered")
if [ -n "$uncovered" ]; then
  echo "verify.sh: CRASH_POINT sites in src/ never exercised by the crash matrix:" >&2
  echo "$uncovered" >&2
  echo "  extend the crash-matrix / double-fault workloads to reach them" >&2
  exit 1
fi
echo "verify.sh: crash-point coverage: all $(wc -l < "$build_dir/crash_points.expected" | tr -d ' ') sites exercised"

# ---- Campaign helpers ----

# Runs "$@" with its output in FILE: an argument containing '{}' names the
# file (stdout is discarded), otherwise stdout itself is the output.
run_to() {
  file=$1
  shift
  names_file=0
  for arg do
    shift
    case $arg in
      *'{}'*)
        arg=$(printf '%s' "$arg" | sed "s#{}#$file#")
        names_file=1
        ;;
    esac
    set -- "$@" "$arg"
  done
  if [ "$names_file" = 1 ]; then
    "$@" > /dev/null
  else
    "$@" > "$file"
  fi
}

# Same-seed determinism: runs the command twice (see run_to) into PREFIX_a
# and PREFIX_b and fails unless the two are byte-identical.
same_twice() {
  what=$1
  prefix=$2
  shift 2
  run_to "${prefix}_a" "$@"
  run_to "${prefix}_b" "$@"
  if ! cmp -s "${prefix}_a" "${prefix}_b"; then
    echo "verify.sh: $what differ between same-seed runs (nondeterministic)" >&2
    diff -u "${prefix}_a" "${prefix}_b" >&2 || true
    exit 1
  fi
  echo "verify.sh: $what byte-identical across same-seed runs"
}

# The coverage build's flags: no optimisation and no inlining, so every call
# the source makes stays a call gcov counts, and the SIMD kernels compiled
# out (in CMAKE_CXX_FLAGS, so perfbench's own copy of src/ gets it too), so
# the count does not depend on the host's ISA.
cov_configure() {
  cmake -B "$1" -S "$2" -DCMAKE_BUILD_TYPE=None \
    -DCMAKE_CXX_FLAGS='-O0 -fno-inline --coverage -DFLICKER_SIMD_DISABLED' \
    -DCMAKE_EXE_LINKER_FLAGS='--coverage'
}

# Configures the side build, compiles exactly the suites the selection
# names (plus any extra targets), and runs them there.
side_suites() {
  side=$1
  select_flag=$2
  select_arg=$3
  extra=$4
  case $side in
    asan)
      side_dir="$repo_root/build-asan"
      cmake -B "$side_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Asan
      ;;
    tsan)
      side_dir="$repo_root/build-tsan"
      cmake -B "$side_dir" -S "$repo_root" -DCMAKE_BUILD_TYPE=Tsan
      # The first race report ends the process with a failing exit code.
      TSAN_OPTIONS="halt_on_error=1 ${TSAN_OPTIONS:-}"
      export TSAN_OPTIONS
      ;;
    noperf)
      side_dir="$repo_root/build-noperf"
      cmake -B "$side_dir" -S "$repo_root" -DFLICKER_SIMD=OFF
      ;;
    cov)
      side_dir="$repo_root/build-cov"
      cov_configure "$side_dir" "$repo_root"
      ;;
  esac
  case $side in
    asan|tsan)
      # A sanitizer build whose flags never reached the compiler passes
      # everything; refuse it rather than report a clean run.
      if ! grep -q -- '-fsanitize=' \
          "$side_dir/src/common/CMakeFiles/flicker_common.dir/flags.make"; then
        echo "verify.sh: $side_dir compiles without -fsanitize" >&2
        exit 1
      fi
      ;;
  esac
  if [ "$select_flag" = - ]; then
    return
  fi
  suites=$(ctest --test-dir "$side_dir" -N "$select_flag" "$select_arg" \
    | sed -n 's/^ *Test *#[0-9]*: *//p')
  if [ -z "$suites" ]; then
    echo "verify.sh: ctest $select_flag '$select_arg' selects no suites" >&2
    exit 1
  fi
  if [ "$extra" != - ]; then
    suites="$suites $(printf '%s' "$extra" | tr , ' ')"
  fi
  cmake --build "$side_dir" -j "$jobs" --target $suites
  ctest --test-dir "$side_dir" --output-on-failure -j "$jobs" "$select_flag" "$select_arg"
}

# ---- Campaign follow-ups (release build) ----

faults_follow_up() {
  # Power-loss campaign: refresh the recovery-path wall-time budgets.
  cmake --build "$build_dir" -j "$jobs" --target micro_recovery
  "$build_dir/bench/micro_recovery" --bench_json="$repo_root/BENCH_robustness.json"
}

net_follow_up() {
  # Adversarial-network campaign: the deterministic session-layer loss report.
  cmake --build "$build_dir" -j "$jobs" --target micro_net
  "$build_dir/bench/micro_net" --bench_json="$repo_root/BENCH_net.json"
}

obs_follow_up() {
  # Two same-seed SSH rounds must export byte-identical Chrome traces, and
  # the committed overhead report is refreshed.
  cmake --build "$build_dir" -j "$jobs" --target micro_obs
  same_twice "SSH trace exports" "$build_dir/trace" \
    "$build_dir/bench/micro_obs" --trace_json={}

  "$build_dir/bench/micro_obs" --bench_json="$repo_root/BENCH_obs.json"
}

perf_follow_up() {
  # The scalar hash, cipher and Montgomery kernels must be drop-in
  # replacements for the SIMD ones: every reproduced paper table/figure, the
  # AES/HMAC-heavy section 7.4.2 CA run and the flagship fleet and vTPM
  # reports come out byte-identical to the SIMD build's - speed is the only
  # thing SIMD may change.
  cmake --build "$build_dir" -j "$jobs" --target table1_rootkit table2_skinit \
    table4_distributed fig9_ssh sec742_ca micro_fleet micro_vtpm
  for bin in table1_rootkit table2_skinit table4_distributed fig9_ssh sec742_ca; do
    "$build_dir/bench/$bin" > "$build_dir/$bin.perf.out"
    "$side_dir/bench/$bin" > "$side_dir/$bin.perf.out"
    if ! cmp -s "$build_dir/$bin.perf.out" "$side_dir/$bin.perf.out"; then
      echo "verify.sh: $bin output differs between SIMD and scalar builds" >&2
      diff -u "$build_dir/$bin.perf.out" "$side_dir/$bin.perf.out" >&2 || true
      exit 1
    fi
  done
  for bin in micro_fleet micro_vtpm; do
    "$build_dir/bench/$bin" --bench_json="$build_dir/$bin.perf.json" > /dev/null
    "$side_dir/bench/$bin" --bench_json="$side_dir/$bin.perf.json" > /dev/null
    if ! cmp -s "$build_dir/$bin.perf.json" "$side_dir/$bin.perf.json"; then
      echo "verify.sh: $bin report differs between SIMD and scalar builds" >&2
      diff -u "$build_dir/$bin.perf.json" "$side_dir/$bin.perf.json" >&2 || true
      exit 1
    fi
  done
  echo "verify.sh: scalar and SIMD kernels (IFMA Montgomery, SHA-NI, AES-NI) byte-identical on Table 1/2/4 + Fig. 9 + section 7.4.2 CA + fleet + vTPM"
}

fleet_follow_up() {
  # A 1000-machine sanitizer smoke run, the flagship bench twice with the
  # same seed (refreshing BENCH_fleet.json), then a multi-seed 64-machine
  # chaos sweep (micro_fleet exits 2 if accepted_wrong != 0).
  "$side_dir/bench/micro_fleet" --machines=1000 --rounds=200 --verifiers=8

  cmake --build "$build_dir" -j "$jobs" --target micro_fleet
  same_twice "1000-machine fleet reports" "$build_dir/fleet" \
    "$build_dir/bench/micro_fleet" --bench_json={}
  cp "$build_dir/fleet_a" "$repo_root/BENCH_fleet.json"

  for seed in 1 2 3; do
    "$build_dir/bench/micro_fleet" --chaos --machines=64 --rounds=256 \
      --verifiers=4 --seed="$seed" > /dev/null
  done
  echo "verify.sh: 64-machine chaos sweep clean (accepted_wrong == 0 across seeds)"
}

vtpm_follow_up() {
  # The noisy-neighbor chaos bench twice per seed (micro_vtpm exits 2 if any
  # quote answered the wrong challenge); seed 1 refreshes BENCH_vtpm.json.
  cmake --build "$build_dir" -j "$jobs" --target micro_vtpm
  for seed in 1 7 23; do
    same_twice "seed-$seed vtpm chaos reports" "$build_dir/vtpm_$seed" \
      "$build_dir/bench/micro_vtpm" --seed="$seed" --bench_json={}
  done
  cp "$build_dir/vtpm_1_a" "$repo_root/BENCH_vtpm.json"
}

chaos_fuzz_follow_up() {
  # A clean store must survive a campaign with zero violations (exit 0);
  # the seeded misordered-commit bug must be found, shrunk by ddmin and
  # written out as a replay + failure artifact (exit 2). Then the committed
  # minimal replay is the shrinker's regression gate: two release re-runs
  # must be byte-identical and reproduce the recorded torn_state signature
  # (exit 0; 3 would mean signature mismatch).
  "$side_dir/bench/micro_fleet" --chaos-fuzz --fuzz-plans=16 > /dev/null
  echo "verify.sh: clean-store chaos-fuzz campaign found no violations"
  rc=0
  "$side_dir/bench/micro_fleet" --chaos-fuzz --misordered-commit --fuzz-plans=24 \
    --replay-out="$side_dir/fuzz_min.replay" \
    --artifact-out="$side_dir/fuzz_artifact.txt" > /dev/null || rc=$?
  if [ "$rc" != 2 ]; then
    echo "verify.sh: chaos fuzzer missed the seeded misordered-commit bug (rc=$rc)" >&2
    exit 1
  fi
  echo "verify.sh: chaos fuzzer found and shrank the seeded torn_state violation"

  cmake --build "$build_dir" -j "$jobs" --target micro_fleet
  same_twice "committed minimal replay runs" "$build_dir/replay" \
    "$build_dir/bench/micro_fleet" --replay="$repo_root/tools/chaos/minimal_torn_state.replay"
}

hv_follow_up() {
  # The flagship bench twice with the same seed (micro_hv exits 2 if any
  # attack is accepted or mistyped, or the pause-reduction floor is missed;
  # the first run refreshes BENCH_hv.json), then a multi-seed quiet sweep.
  cmake --build "$build_dir" -j "$jobs" --target micro_hv
  same_twice "hv campaign reports" "$build_dir/hv" \
    "$build_dir/bench/micro_hv" --bench_json={}
  cp "$build_dir/hv_a" "$repo_root/BENCH_hv.json"

  for seed in 2 5 11; do
    "$build_dir/bench/micro_hv" --quiet --seed="$seed" > /dev/null
  done
  echo "verify.sh: multi-seed hv adversarial sweep clean (accepted_wrong == 0 across seeds)"
}

tsan_follow_up() {
  # The fleet build's pool on a wider fleet than the suites build, with the
  # whole round phase behind it (TSAN_OPTIONS still halts on any report).
  "$side_dir/bench/micro_fleet" --machines=64 --rounds=256 > /dev/null
  echo "verify.sh: 64-machine fleet build and run race-free under ThreadSanitizer"
}

# Runs one product for the coverage count, its output in the side build's
# log. The exit code is the release rows' check, not this one's
# (micro_tpm_transport misses its host-time budget at -O0, micro_obs without
# a mode flag and the seeded fuzz campaign exit nonzero by design); a
# product killed by a signal fails the gate.
cov_run() {
  rc=0
  "$@" >> "$side_dir/cov.log" 2>&1 || rc=$?
  if [ "$rc" -gt 128 ]; then
    echo "verify.sh: coverage run killed by signal $((rc - 128)): $*" >&2
    exit 1
  fi
}

coverage_follow_up() {
  # The products are every bench, every example and the benchmark's
  # workload; perfbench/CMakeLists.txt is only read, into a subdirectory.
  # Every src/ library is built too, so one no product links still counts.
  cmake --build "$side_dir/src" -j "$jobs"
  cmake --build "$side_dir/bench" -j "$jobs"
  cmake --build "$side_dir/examples" -j "$jobs"
  cov_configure "$side_dir/perfbench" "$repo_root/perfbench"
  cmake --build "$side_dir/perfbench" -j "$jobs" --target perfbench_workload

  # One run of each product in the modes the other rows run.
  find "$side_dir" -name '*.gcda' -exec rm -f {} +
  : > "$side_dir/cov.log"
  out="$side_dir/cov_out"
  mkdir -p "$out"
  bench="$side_dir/bench"
  for product in $(find "$bench" "$side_dir/examples" -maxdepth 1 -type f \
      -perm -u+x | sort); do
    cov_run "$product"
  done
  for bin in micro_crypto micro_tpm_transport micro_obs micro_fleet micro_hv \
      micro_vtpm micro_net micro_recovery; do
    cov_run "$bench/$bin" --bench_json="$out/$bin.json"
  done
  cov_run "$bench/micro_obs" --trace_json="$out/trace.json"
  cov_run "$bench/micro_obs" --dump_metrics_md="$out/METRICS.md"
  cov_run "$bench/micro_obs" --dump_metrics
  cov_run "$bench/micro_fleet" --chaos --machines=64 --rounds=256 --verifiers=4
  cov_run "$bench/micro_fleet" --chaos-fuzz --fuzz-plans=16
  cov_run "$bench/micro_fleet" --chaos-fuzz --misordered-commit --fuzz-plans=24 \
    --replay-out="$out/fuzz_min.replay" --artifact-out="$out/fuzz_artifact.txt"
  cov_run "$bench/micro_fleet" --replay="$repo_root/tools/chaos/minimal_torn_state.replay"
  cov_run "$bench/micro_hv" --quiet --seed=2
  cov_run "$bench/micro_vtpm" --seed=7
  for workload in fleet-steady fleet-chaos vtpm-tenants; do
    for trace in 0 1; do
      cov_run "$side_dir/perfbench/perfbench_workload" "$workload" 1 1 "$trace"
    done
  done

  # Every named function a src/*.cc defines that ran zero times in both
  # trees (src/ and perfbench's copy), by qualified name: an entry covers
  # all overloads and is listed while any of them never ran. Lambda bodies
  # are branch-level, the tests' job; header-inline functions are left out
  # because each translation unit that drops its copy reads zero.
  find "$side_dir" -name '*.gcno' | sort > "$side_dir/cov.gcno"
  (cd "$side_dir" && xargs gcov -t -b -m < cov.gcno 2> /dev/null) \
    | awk -v src="$repo_root/src/" -f "$repo_root/tools/coverage_names.awk" \
    | sort -t "$(printf '\t')" -k2,2 -k1,1r \
    | awk -F '\t' '$2 != last { last = $2; if ($1 == 0) print $3 }' \
    | sort -u > "$side_dir/cov.unrun"

  sed -e 's/#.*//' -e 's/[[:space:]]*$//' -e '/^$/d' "$allow_file" | sort -u \
    > "$side_dir/cov.allowed"
  unrun=$(comm -23 "$side_dir/cov.unrun" "$side_dir/cov.allowed")
  if [ -n "$unrun" ]; then
    echo "verify.sh: src/ functions no bench, example or perfbench workload runs:" >&2
    echo "$unrun" >&2
    echo "  make a product run each, or delete it (with the tests that only" >&2
    echo "  check it); an observer, fault seam or classed path goes in" >&2
    echo "  tools/coverage.allow" >&2
    exit 1
  fi
  stale=$(comm -13 "$side_dir/cov.unrun" "$side_dir/cov.allowed")
  if [ -n "$stale" ]; then
    echo "verify.sh: stale tools/coverage.allow entries (no such function, or a" >&2
    echo "  product now runs it):" >&2
    echo "$stale" >&2
    exit 1
  fi
  echo "verify.sh: coverage: every src/ function runs in a product or is" \
    "allowlisted ($(wc -l < "$side_dir/cov.allowed" | tr -d ' ') entries)"
}

if [ -n "$campaign" ]; then
  # The row's fields, split on whitespace with globbing off (the selection
  # regexes contain no spaces).
  set -f
  set -- $campaign
  set +f
  side_suites "$2" "$4" "$5" "$6"
  if [ "$3" != - ]; then
    "$3"
  fi
fi

echo "verify.sh: all checks passed"
