#!/usr/bin/env bash
# CI gate for the pipeline-adc workspace. Run from the repo root:
#
#   ./ci.sh                    # every stage, in order
#   ./ci.sh fmt clippy lint    # just the named stages
#   ./ci.sh --deny-perf        # perf regressions fail the build
#
# Stages (each is timed; a wall-clock summary table prints on exit):
#   fmt         -- formatting is enforced, not advisory
#   clippy      -- workspace-wide, all targets, warnings are errors
#   lint        -- adc-lint workspace-native static analysis (DESIGN.md
#                  §10, §15): interprocedural determinism / panic-
#                  freedom / lock-order invariants over the workspace
#                  call graph; any diagnostic, stale allow pragma, or
#                  malformed pragma fails under --deny. Emits the JSON
#                  report and DOT/JSON call+lock graphs under
#                  target/lint/ (uploaded as a CI artifact) and is
#                  bounded by a hard 30s wall-clock guard
#   doc         -- rustdoc over the whole workspace with warnings as
#                  errors, so a broken or private intra-doc link fails
#                  CI
#   build       -- release build of the whole workspace
#   test        -- full test suite (unit + integration + property)
#   determinism -- cross-profile anchor: the `determinism` integration
#                  test runs in debug AND release against one shared
#                  ADC_DETERMINISM_HASH_FILE (campaign digest) and
#                  ADC_DETERMINISM_LANES_HASH_FILE (digest of the
#                  `LaneBench` records of 1/4/8 dies on one shared
#                  stimulus, jitter on and off, each equal to a lone
#                  `MeasurementSession` capture), so "debug and
#                  release produce bit-identical campaign AND
#                  multi-die capture results" is asserted, not
#                  assumed; then the record kernel's and noise
#                  kernels' bit-identity unit tests (systolic, mdac,
#                  stripe, comparator, and the testbench's signal
#                  sources, whose tone fill has its own clone) re-run
#                  in release, where the vectorized AVX2 clones they
#                  pin actually ship; then
#                  adc-runtime's whole suite re-runs in release, so its
#                  scheduler tests (results invisible to thread count,
#                  cached misses under their own ids) and the
#                  2,000-cycle pool-shutdown race run at release speed;
#                  finally EXPERIMENTS.md's marked tables are
#                  regenerated in release and must equal the
#                  `experiments` binary's output at printed precision
#   service     -- loopback gate: the `service` suite (real TCP server,
#                  concurrent clients, pipelined out-of-order
#                  completions, admission-control shedding under
#                  overload, a peer that never reads, bit-identity vs
#                  in-process records) re-runs in release under a hard
#                  wall-clock guard — a hung drain fails CI instead of
#                  wedging it; then adc-server's own tests (the
#                  reactor's socket-free outbound tests, protocol_props)
#                  run in release under the same guard
#   cluster     -- distribution gate: the `cluster` suite spins up two
#                  loopback servers and diffs the distributed campaign
#                  digest against the in-process one, in release under
#                  the same hard wall-clock guard as `service`; then
#                  adc-cluster's own tests (bit-identity and job
#                  accounting at 1/2/3 hosts, under a host kill, across
#                  a warm-disk restart) run in release under that guard
#   perfbench   -- benchmark build gate: perfbench/ (the repo's
#                  benchmark, its own cargo workspace with path deps on
#                  the crates) builds in release and passes its tests,
#                  so a change to adc-server's public API that the
#                  benchmark compiles against fails CI, not the
#                  benchmark run; both calls pass --locked, so a crate
#                  manifest change that would rewrite
#                  perfbench/Cargo.lock fails here instead of dirtying
#                  the tree
#   perf        -- regression gate: regenerates BENCH_runtime.json,
#                  BENCH_service.json, BENCH_dsp.json,
#                  BENCH_interleave.json, and BENCH_cluster.json in a
#                  scratch dir and diffs them against the baselines
#                  committed at HEAD with `bench_compare` (±30% on
#                  samples/sec, p99 latency, DSP conversion
#                  samples/sec, DSP-kernel and paper-kernel us/call,
#                  ganged-array us/epoch, cluster jobs/sec; exempt
#                  across differing host_cpus). Every baseline must
#                  exist at HEAD, and the stage fails when any of the
#                  five fresh reports was not written (bench_compare
#                  itself compares whichever reports are present).
#                  Advisory by default; fatal under --deny-perf.
#
# Every run writes target/ci_summary.json (stage wall-clock + status +
# exit status) for artifact upload, and appends the same table — with
# the failing stage named — to $GITHUB_STEP_SUMMARY when set.
set -euo pipefail
cd "$(dirname "$0")"

ALL_STAGES=(fmt clippy lint doc build test determinism service cluster perfbench perf)
DENY_PERF=0
SELECTED=()
for arg in "$@"; do
  case "$arg" in
    --deny-perf) DENY_PERF=1 ;;
    -h|--help)
      echo "usage: ./ci.sh [--deny-perf] [stage ...]"
      echo "stages: ${ALL_STAGES[*]}"
      exit 0
      ;;
    -*) echo "unknown flag: $arg (try --help)" >&2; exit 2 ;;
    *)
      case " ${ALL_STAGES[*]} " in
        *" $arg "*) SELECTED+=("$arg") ;;
        *) echo "unknown stage: $arg (stages: ${ALL_STAGES[*]})" >&2; exit 2 ;;
      esac
      ;;
  esac
done
[ ${#SELECTED[@]} -eq 0 ] && SELECTED=("${ALL_STAGES[@]}")

say() { printf '\n==> %s\n' "$*"; }

SCRATCH=$(mktemp -d)
TIMINGS=()
CURRENT_STAGE=""
CURRENT_START=0

summary() {
  status=$?
  if [ -n "$CURRENT_STAGE" ]; then
    TIMINGS+=("$CURRENT_STAGE $(( $(date +%s) - CURRENT_START )) FAILED")
  fi
  if [ ${#TIMINGS[@]} -gt 0 ]; then
    printf '\n%-14s %8s  %s\n' "stage" "wall (s)" "status"
    for row in "${TIMINGS[@]}"; do
      # shellcheck disable=SC2086
      printf '%-14s %8s  %s\n' $row
    done
    # Machine-readable run record for CI artifact upload: one row per
    # executed stage plus the run's overall exit status.
    mkdir -p target
    {
      printf '{\n  "exit_status": %s,\n  "deny_perf": %s,\n  "stages": [\n' \
        "$status" "$DENY_PERF"
      first=1
      for row in "${TIMINGS[@]}"; do
        read -r name wall result <<< "$row"
        [ $first = 1 ] || printf ',\n'
        first=0
        printf '    { "stage": "%s", "wall_s": %s, "status": "%s" }' \
          "$name" "$wall" "$result"
      done
      printf '\n  ]\n}\n'
    } > target/ci_summary.json
  fi
  # On GitHub runners, name the failing stage (or the green run) where
  # reviewers look first — the job's step summary.
  if [ -n "${GITHUB_STEP_SUMMARY:-}" ] && [ ${#TIMINGS[@]} -gt 0 ]; then
    {
      if [ "$status" = 0 ]; then
        echo "### CI green (\`${SELECTED[*]}\`)"
      else
        echo "### CI FAILED in stage \`$CURRENT_STAGE\`"
      fi
      echo
      echo "| stage | wall (s) | status |"
      echo "| --- | ---: | --- |"
      for row in "${TIMINGS[@]}"; do
        read -r name wall result <<< "$row"
        echo "| $name | $wall | $result |"
      done
    } >> "$GITHUB_STEP_SUMMARY"
  fi
  rm -rf "$SCRATCH"
  exit $status
}
trap summary EXIT

stage_fmt() {
  cargo fmt --all --check
}

stage_clippy() {
  cargo clippy --workspace --all-targets -- -D warnings
}

stage_lint() {
  # Analysis artifacts (machine-readable report + call/lock graphs)
  # land under target/lint/ for CI upload. The interprocedural scan
  # finishes in single-digit seconds; the hard 30s guard turns an
  # accidental fixpoint blowup into a CI failure instead of a hang.
  mkdir -p target/lint
  cargo build -q -p adc-lint
  timeout 30 target/debug/adc-lint --deny \
    --json target/lint/report.json --graph-out target/lint/graphs
}

stage_doc() {
  RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps
}

stage_build() {
  cargo build --release --workspace
}

stage_test() {
  cargo test -q
  cargo test -q --workspace
}

stage_determinism() {
  hash_file="$SCRATCH/determinism.hash"
  lanes_hash_file="$SCRATCH/determinism_lanes.hash"
  rm -f "$hash_file" "$lanes_hash_file"
  ADC_DETERMINISM_HASH_FILE=$hash_file \
    ADC_DETERMINISM_LANES_HASH_FILE=$lanes_hash_file \
    cargo test -q --test determinism
  ADC_DETERMINISM_HASH_FILE=$hash_file \
    ADC_DETERMINISM_LANES_HASH_FILE=$lanes_hash_file \
    cargo test -q --release --test determinism
  # The vectorized kernel clones ship in release builds, so their
  # bit-identity contracts run in release too.
  cargo test -q --release -p adc-pipeline --lib -- systolic mdac
  cargo test -q --release -p adc-analog --lib -- stripe comparator
  cargo test -q --release -p adc-testbench --lib -- signal
  cargo test -q --release -p adc-runtime
  cargo test -q --release --test end_to_end experiments_md_matches_the_published_output
  echo "determinism digest: $(cat "$hash_file")"
  echo "multi-die digest: $(cat "$lanes_hash_file")"
}

stage_service() {
  timeout 300 cargo test -q --release --test service
  timeout 300 cargo test -q --release -p adc-server
}

stage_cluster() {
  timeout 300 cargo test -q --release --test cluster
  timeout 300 cargo test -q --release -p adc-cluster
}

stage_perfbench() {
  cargo build --release --offline --locked --manifest-path perfbench/Cargo.toml
  cargo test --offline --locked --manifest-path perfbench/Cargo.toml
}

stage_perf() {
  baseline="$SCRATCH/baseline"
  fresh="$SCRATCH/fresh"
  mkdir -p "$baseline" "$fresh"
  for report in runtime service dsp interleave cluster; do
    git show "HEAD:BENCH_$report.json" > "$baseline/BENCH_$report.json"
  done
  cargo build --release -q -p adc-bench --bins
  bin_dir="$PWD/target/release"
  (cd "$fresh" && "$bin_dir/bench_runtime" && "$bin_dir/bench_service" &&
    "$bin_dir/bench_dsp" && "$bin_dir/bench_interleave" && "$bin_dir/bench_cluster")
  for report in runtime service dsp interleave cluster; do
    if [ ! -f "$fresh/BENCH_$report.json" ]; then
      echo "perf: BENCH_$report.json was not written" >&2
      return 1
    fi
  done
  deny_flag=()
  [ "$DENY_PERF" = 1 ] && deny_flag=(--deny-perf)
  "$bin_dir/bench_compare" --baseline-dir "$baseline" --fresh-dir "$fresh" \
    "${deny_flag[@]}"
}

for stage in "${SELECTED[@]}"; do
  say "$stage"
  CURRENT_STAGE="$stage"
  CURRENT_START=$(date +%s)
  "stage_$stage"
  TIMINGS+=("$stage $(( $(date +%s) - CURRENT_START )) ok")
  CURRENT_STAGE=""
done

say "CI green"
