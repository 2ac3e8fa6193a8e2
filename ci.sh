#!/usr/bin/env bash
# Full CI gate: build, test, formatting, lints. Run from the repo root.
#
#   ./ci.sh           tier-1 gate only
#   ./ci.sh --miri    tier-1 gate, then `cargo miri test` on the pure
#                     foundation crates (opt-in: miri is slow and needs the
#                     nightly component; the gate fails if it is missing).
#                     The build container has no miri and no network to
#                     fetch it, so this stage has never run there.
set -euo pipefail
cd "$(dirname "$0")"

miri=0
for arg in "$@"; do
  case "$arg" in
    --miri) miri=1 ;;
    *) echo "unknown flag: $arg" >&2; exit 2 ;;
  esac
done

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test"
# The whole workspace (the root manifest's default-members), and with it every
# check on the workspace's own output: the golden figures, analyzer reports,
# digests and traces, the static floor against simulation, the trace audit
# on every app x config point, and the isrf-serve binary's serve-and-drain.
cargo test -q

echo "==> cargo test --release -p isrf-sim -p isrf-mem -p isrf-check -p isrf-verify -p isrf-kernel -p isrf-lang (the build users run)"
# Tests under cfg(not(debug_assertions)): an out-of-range dynamic index
# trips a debug_assert in debug builds and must clamp, not panic, in the
# builds users actually run. The oracle and the lock-step references run
# here too (the indexed arbiter — lane by lane and, over its shared cursors,
# row by row — the memory service walk, the sequencer's phase lists, the
# memory wait): the row executor is only vectorised in an optimised build. So does snapshot_roundtrip.rs's hostile-length test, whose
# regression is a process abort (an allocation of 2^40 words), not a failure.
# isrf-verify's lock-step, scale and work-count tests run here as well: the
# analyzer admits every served job in this build. So do the front end's
# (isrf-kernel, isrf-lang): the scheduler's lock-step against the one it
# replaced, its work counts, and the allocation bounds of parse and schedule.
cargo test -q --release -p isrf-sim -p isrf-mem -p isrf-check -p isrf-verify -p isrf-kernel -p isrf-lang

echo "==> cargo test --release --test differential (all 32 x 15 perturbed configs)"
# The debug run above takes three timing perturbations per point; the
# optimised build drives all fifteen through both oracles and holds output
# words, indexed word counts and off-chip bytes to the preset run's.
cargo test -q --release --test differential

echo "==> cargo fmt --check"
cargo fmt --all --check

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc (deny warnings)"
# Our crates only: --workspace would also pull in the vendored stand-ins,
# whose docs we do not police.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps -q \
  -p isrf -p isrf-core -p isrf-trace -p isrf-sram -p isrf-mem \
  -p isrf-kernel -p isrf-sim -p isrf-verify -p isrf-apps -p isrf-lang \
  -p isrf-check -p isrf-serve -p isrf-bench

echo "==> benchmark package (build, unit tests, smoke of all four workloads)"
# benchmark/ is a workspace of its own, so nothing above compiles it, and
# it is the only harness that times anything: an API change in the crates
# it drives would break BENCHMARK.json's command unnoticed. Build it, run
# its unit tests, and run two seconds' worth of every workload, whose
# every job is checked against an oracle.
cargo build --release --offline --manifest-path benchmark/Cargo.toml
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
for workload in sim_seq sim_idx admit_cold serve_mix; do
  bash benchmark/run.sh --workload "$workload" --seconds 2 --trace 0 | tail -n 1 \
    | grep -q '"correct": true'
done

echo "==> memory plateau (admit_cold peak RSS at 4 s against 16 s)"
# Every host-side memo is a budgeted `Memo`, so a run four times as long
# must not hold more. admit_cold fills the schedule and tape memos with a
# distinct source per job; before they were bounded its peak RSS grew 3.7x
# between 5 s and 20 s.
rss() {
  bash benchmark/run.sh --workload admit_cold --seconds "$1" --trace 0 | tail -n 1 \
    | sed -n 's/.*"peak_rss_mb": {"value": \([0-9.]*\).*/\1/p'
}
rss_short="$(rss 4)"
rss_long="$(rss 16)"
echo "peak_rss_mb: $rss_short at 4 s, $rss_long at 16 s"
awk -v a="$rss_short" -v b="$rss_long" 'BEGIN { exit !(a > 0 && b <= 1.25 * a) }'

echo "==> one memo mechanism (grep gate)"
# The hand-rolled memo idiom must not come back: no lazily initialised
# global map anywhere, and no locked map at all outside `Memo` itself and
# the server's table of live jobs.
if grep -rn 'OnceLock<Mutex<BTreeMap' crates/*/src; then
  echo "a hand-rolled memo: use isrf_core::Memo" >&2
  exit 1
fi
if grep -rn 'Mutex<BTreeMap' crates/*/src \
  | grep -v -e '^crates/isrf-core/src/memo.rs:' -e 'jobs: Mutex<BTreeMap<u64, Arc<Job>>>'; then
  echo "a locked map outside isrf_core::Memo and the live-jobs table" >&2
  exit 1
fi

echo "==> one memory-wait path (grep gate)"
# The run loop waits for memory in one place and ticks every cycle of the
# wait; the skip-ahead knob and the closed-form credit replay it needed must
# not come back (single-step with `run_for(p, 1)` for a lock-step reference).
if grep -rn -e 'quiesce_skip' -e 'set_quiescence_skip' -e 'advance_idle' crates/*/src; then
  echo "a second memory-wait path: extend the wait loop in Machine::step" >&2
  exit 1
fi

echo "==> one run core (grep gate)"
# `Machine::step` is the one loop that advances a program and `SimError` the
# one way it fails; `run` and `run_for` are it with the error turned into a
# panic. The wrappers, the panicking watchdogs and a snapshot codec inside
# machine.rs must not come back.
# (`Prepared::run_checked` in isrf-apps is `Machine::run` plus the app's
# host check, not a run loop; the name stays out of the simulator.)
if grep -rn -e 'run_budget' -e 'verify_fresh_run' -e 'fn run_while' \
  -e 'program appears deadlocked' -e 'stalled for 1M' crates/*/src \
  || grep -rn 'run_checked' crates/isrf-sim/src; then
  echo "a second run loop or an untyped failure: go through Machine::step / SimError" >&2
  exit 1
fi
if grep -n -e 'fn save_state' -e 'fn restore_state' crates/isrf-sim/src/machine.rs; then
  echo "the snapshot codec lives in crates/isrf-sim/src/snapshot.rs" >&2
  exit 1
fi

echo "==> one door into the apps (grep gate)"
# An app is prepared on a `MachineConfig` value through its one `prepare`
# and run by its caller; `common::machine` builds every machine of
# isrf-apps and isrf-serve (so each carries the verifier) and the registry
# holds the one Small/Paper table. The thread-local override, the `run`
# wrappers, the second sizing tables and the dynamic scatter nobody issued
# must not come back.
if grep -rn -e 'thread_local!' -e 'set_separation_override' -e 'run_benchmark' \
  -e 'DIFF_APPS' -e 'ScatterDyn' -e 'scatter_dyn' crates/*/src; then
  echo "a way around prepare(&MachineConfig, ..) / prepare_app, or a deleted op" >&2
  exit 1
fi
for f in crates/isrf-apps/src/*.rs crates/isrf-serve/src/*.rs crates/isrf-serve/src/bin/*.rs; do
  [[ "$f" == crates/isrf-apps/src/common.rs ]] && continue
  if awk '/^#\[cfg\(test\)\]/{exit} /Machine::new\(/{print FILENAME":"FNR": "$0; found=1} END{exit !found}' "$f"; then
    echo "build machines with isrf_apps::common::machine, which installs the verifier" >&2
    exit 1
  fi
done
if grep -n 'pub fn run(' crates/isrf-apps/src/{fft2d,rijndael,sort,filter,igraph,spmv,stencil,bfs,histogram}.rs; then
  echo "apps prepare, callers run: Prepared::run_checked" >&2
  exit 1
fi

echo "==> one cross-lane gather (grep gate)"
# IG, SpMV and BFS condense references, split the gather over ceil(slots/4)
# cross-lane streams and emit the double-buffered strip loop in one module,
# isrf-apps/src/gather.rs; no app declares cross-lane streams of its own.
if grep -rn -e 'IdxCrossRead' -e 'div_ceil(4)' crates/isrf-apps/src \
  | grep -v '^crates/isrf-apps/src/gather.rs:'; then
  echo "a second cross-lane gather: go through isrf_apps::gather" >&2
  exit 1
fi

echo "==> one JSON writer (grep gate)"
# JSON text is rendered by `Json` (isrf-trace/src/json.rs); the Chrome
# exporter streams a node per event and `job_result` splices a payload that
# `Json` rendered once, and both say why where they live. No other string in
# the crates may spell an object brace or a key by hand. Allowed besides: the
# frame of `verify --report`, which lays one `Json`-rendered point per line
# so a drifted point is one line of a diff, and a 404 message that quotes a
# request field.
if grep -rn -e '{{\\"' -e '\\":' crates/*/src \
  | grep -v -e '^crates/isrf-trace/src/json.rs:' -e '^crates/isrf-trace/src/chrome.rs:' \
    -e '^crates/isrf-serve/src/server.rs:.*"{{\\"id\\":{},\\"status\\":\\"done\\"' \
    -e '^crates/isrf-serve/src/server.rs:.*submit with \\"trace\\": true' \
    -e '^crates/bench/src/bin/verify.rs:.*("{\\n  \\"profile\\": ")' \
    -e '^crates/bench/src/bin/verify.rs:.*(",\\n  \\"points\\": \[\\n")'; then
  echo "hand-written JSON: build a Json and render it" >&2
  exit 1
fi

echo "==> least code (non-test lines under src/, ROADMAP housekeeping)"
# Every `.rs` under a `src/` directory, each file cut at its first top-level
# `#[cfg(test)]`. The ceiling is the total of the last PR that moved it,
# rounded up to the next 50: a ratchet, held the way the goldens hold cycles.
# A PR that needs more lines raises it deliberately and says what for; one
# that deletes lowers it. Last lowered from 25350: the tool binaries lost
# their gate modes to tests and `loadtest` went (bench -345, total 24955).
# Raised from 25000 by exactly its overshoot: the memory channel's one walk
# with stepped addresses and maintained counts (isrf-mem +60) and the bfs
# and spmv strips reachable from gather.rs's padding census (isrf-apps +13).
loc_ceiling=25028
# Per directory, as ROADMAP's housekeeping command prints it; the total is
# their sum.
split="$(for d in src crates/*/src; do find "$d" -name '*.rs' | sort | while read -r f; do
  awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' "$f"; done |
  awk -v d="$d" '{t+=$1} END{printf "%-24s %6d\n", d, t}'; done)"
echo "$split"
loc="$(echo "$split" | awk '{t+=$2} END{print t}')"
echo "non-test lines: $loc (ceiling $loc_ceiling)"
if (( loc > loc_ceiling )); then
  echo "non-test lines above the committed ceiling: delete, or move loc_ceiling in ci.sh" >&2
  exit 1
fi

if [[ "$miri" == 1 ]]; then
  echo "==> cargo miri test (foundation crates)"
  cargo miri test -q -p isrf-core -p isrf-sram
fi

echo "CI OK"
