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
# memory wait, operand resolution): the row executor is only vectorised in
# an optimised build. So does snapshot_roundtrip.rs's hostile-length test, whose
# regression is a process abort (an allocation of 2^40 words), not a failure.
# isrf-verify's lock-step, scale and work-count tests run here as well: the
# analyzer admits every served job in this build. So do the front end's
# (isrf-kernel, isrf-lang): the scheduler's lock-step against the one it
# replaced, its work counts, and the allocation bounds of parse and schedule.
cargo test -q --release -p isrf-sim -p isrf-mem -p isrf-check -p isrf-verify -p isrf-kernel -p isrf-lang

echo "==> cargo test --release --test differential (all 32 x 15 perturbed configs)"
# The debug run above drives all fifteen timing perturbations of every point
# as well; this runs them again on the optimised executor, through both
# oracles, holding output words, indexed word counts and off-chip bytes to
# the committed preset line. Its writer checks every column of
# tests/golden/points.digest but the four HostWork ones, which only a debug
# build counts.
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
  -p isrf-check -p isrf-serve -p isrf-bench -p isrf-gen

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
# (`Prepared::run_checked` in isrf-apps is `Verifier::verify`,
# `Machine::run` and the app's host check, not a run loop; the name stays
# out of the simulator.)
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
# An app is planned on a `MachineConfig` value through its one `plan`,
# loaded with `Plan::load` and run by its caller; `common::machine` builds
# every machine of isrf-apps and isrf-serve (each from the final config)
# and the registry holds the one Small/Paper table. The thread-local
# override, the `run` wrappers, the second sizing tables and the dynamic
# scatter nobody issued must not come back.
if grep -rn -e 'thread_local!' -e 'set_separation_override' -e 'run_benchmark' \
  -e 'DIFF_APPS' -e 'ScatterDyn' -e 'scatter_dyn' crates/*/src; then
  echo "a way around plan(&MachineConfig, ..) / plan_app, or a deleted op" >&2
  exit 1
fi
for f in crates/isrf-apps/src/*.rs crates/isrf-serve/src/*.rs crates/isrf-serve/src/bin/*.rs; do
  [[ "$f" == crates/isrf-apps/src/common.rs ]] && continue
  if awk '/^#\[cfg\(test\)\]/{exit} /Machine::new\(/{print FILENAME":"FNR": "$0; found=1} END{exit !found}' "$f"; then
    echo "build machines with isrf_apps::common::machine" >&2
    exit 1
  fi
done
if grep -n 'pub fn run(' crates/isrf-apps/src/{fft2d,rijndael,sort,filter,igraph,spmv,stencil,bfs}.rs; then
  echo "apps plan, callers load and run: Plan::load, Prepared::run_checked" >&2
  exit 1
fi

echo "==> one model of the indexed SRF (grep gate)"
# Figures 17 and 18 run two microkernels on `Machine` (crates/bench/src/
# micro.rs), as every app runs: outside the simulator nothing drives the
# indexed arbiter, builds its stream state or an SRF, or lands its data.
# The side model that did, with its own stage-1 arbitration and comm-busy
# return rule, must not come back.
if grep -rn -e 'service_indexed(' -e 'IdxState::new' -e 'tick_arrivals' -e 'Srf::new(' \
  crates/*/src | grep -v '^crates/isrf-sim/src/'; then
  echo "a second model of the indexed SRF: run a kernel on isrf_sim::Machine" >&2
  exit 1
fi

echo "==> one address-list type (grep gate)"
# A transfer moves a run of consecutive words or a list of word addresses
# (`AddrPattern::{Contiguous, Indexed}`), and an indexed transfer holds its
# program's list, an `Arc<[u32]>`, instead of a copy. The strided pattern no
# program issued, its constructor, and the gather entry that took a list by
# value must not come back.
if grep -rn -e 'Strided' -e 'fn strided(' -e 'start_gather' crates/*/src; then
  echo "a third address pattern or a second gather entry: build an AddrPattern::Indexed list" >&2
  exit 1
fi

echo "==> one burst rule (grep gate)"
# The DRAM burst openings a transfer is charged are counted in one place,
# `AddrPattern::burst_openings` beside `serve_one`, which charges them: a
# run in closed form, a list walked once. The analyzer's memory floor calls
# it, once per list, and walks no pattern address by address itself; the
# walk it replaced lives on only as the test-only `mod reference` of cost.rs.
for f in crates/isrf-verify/src/*.rs; do
  if awk '/^#\[cfg\(test\)\]/{exit} /addr_at\(/{print FILENAME":"FNR": "$0; found=1} END{exit !found}' "$f"; then
    echo "the analyzer walks a pattern: count bursts with AddrPattern::burst_openings" >&2
    exit 1
  fi
done
if grep -rn 'fn burst_openings' src crates tests examples \
  | grep -v '^crates/isrf-mem/src/system.rs:'; then
  echo "a second burst rule: AddrPattern::burst_openings in isrf-mem is the one" >&2
  exit 1
fi

echo "==> every decoded field is used (grep gate)"
# A snapshot field that restore reads and drops carries no state: two frames
# that differ there restore the same machine, and re-saving one does not
# give its bytes back (DESIGN.md §12). Snapshot format 2 deleted the last
# three such reads, `meta`'s ignored flag and an indexed stream's two
# occupancy totals; a bare `Dec` read whose value is thrown away must not
# come back outside the tests.
dropped=0
while read -r f; do
  if awk '/^#\[cfg\(test\)\]/{exit}
    /^[[:space:]]*[a-z_]+\.(u8|u16|u32|u64|usize|bool|f64|words|usizes)\(\)\?;[[:space:]]*$/{print FILENAME":"FNR": "$0; found=1}
    END{exit !found}' "$f"; then
    dropped=1
  fi
done < <(find crates/*/src -name '*.rs' | sort)
if (( dropped )); then
  echo "a decoded snapshot field is dropped: delete it from the format, or restore from it" >&2
  exit 1
fi

echo "==> analysis loads nothing (grep gate)"
# Each app is a plan plus a load (`isrf_apps::common::Plan`): admission
# verifies the plan, so `analyze_point` and the plan it builds never reach
# `prepare_app` or a `Prepared`, and an app writes memory or SRF data only
# in its load stage, a function whose name starts with `load`.
if awk '/^(pub )?fn (analyze_point|plan|plan_source|verify)\(/{f=1} f&&/prepare_app|Prepared/{print FILENAME":"FNR": "$0; found=1} /^}/{f=0} END{exit !found}' \
  crates/isrf-serve/src/exec.rs; then
  echo "analysis builds a Prepared: verify the plan (isrf_apps::plan_app)" >&2
  exit 1
fi
for f in crates/isrf-apps/src/*.rs; do
  if awk '/^#\[cfg\(test\)\]/{exit} match($0, /^ *(pub(\(crate\))? )?fn [a-z_0-9]+/){n=substr($0, RSTART, RLENGTH); sub(/.*fn /, "", n)}
    /write_block\(|write_stream\(/ && n !~ /^load/{print FILENAME":"FNR" (in fn "n"): "$0; found=1} END{exit !found}' "$f"; then
    echo "an app writes data outside its load stage: move it into a load_* function" >&2
    exit 1
  fi
done

echo "==> one cross-lane gather (grep gate)"
# IG, SpMV and BFS condense references, split the gather over ceil(slots/4)
# cross-lane streams and emit the double-buffered strip loop in one module,
# isrf-apps/src/gather.rs; no app declares cross-lane streams of its own.
if grep -rn -e 'IdxCrossRead' -e 'div_ceil(4)' crates/isrf-apps/src \
  | grep -v '^crates/isrf-apps/src/gather.rs:'; then
  echo "a second cross-lane gather: go through isrf_apps::gather" >&2
  exit 1
fi

echo "==> one program generator (grep gate)"
# Random verifier-clean programs come from crates/isrf-gen: `Recipe` kernels,
# strip-mined `Spec`s and one materialiser. The private generators and
# fill/build helpers it replaced must not come back under a tests/ directory.
# Two generators stay outside it (ROADMAP item 7): isrf-kernel's `tests/gen/`,
# tuned to the scheduler, and isrf-lang's `tests/family/`, which writes
# KernelC text.
if grep -rnF -e 'struct Recipe' -e 'struct Strip' -e 'struct Step' -e 'fn node_dag' \
  -e 'mod strips' -e 'KernelBuilder::new("fuzz")' tests crates/*/tests; then
  echo "a private program generator: use isrf_gen::{Recipe, Spec}" >&2
  exit 1
fi

echo "==> one way to count work (grep gate)"
# The simulator's host work is counted per machine, in debug builds only, in
# `isrf_core::stats::HostWork` (read with `Machine::work`), and held by one
# golden, tests/golden/points.digest. No process-global counter in the
# crates; the global head counter and the memory channel's own work type
# must not come back, nor a hand-kept table of counts in the tests that
# read the digest (a count has four digits or more).
if grep -rnE 'static +(mut +)?[A-Za-z_0-9]+ *:.*Atomic' crates/*/src \
  || grep -rn -e 'HEADS_EXAMINED' -e 'MemWork' src crates tests examples; then
  echo "a second work counter: add a field to isrf_core::stats::HostWork" >&2
  exit 1
fi
if grep -nE '[0-9]_?[0-9]{3}' tests/mem_work.rs tests/idx_work.rs tests/paper_claims.rs \
  crates/bench/tests/analyzer.rs; then
  echo "a hand-kept table of counts: they live in tests/golden/points.digest" >&2
  exit 1
fi

echo "==> one kernel hash walk (grep gate)"
# A kernel's content is walked once, by `KernelBuilder::build`, which stores
# the hash; `kernel_hash` returns that value (debug builds walk again to
# check it). The schedule and tape memos key on `kernel_hash`, so no memo
# walks a kernel: these five lines are every definition and call of a walk.
walks="$(grep -rn -e 'content_hash(' -e '\bwalk(' crates/*/src | sed 's/:[0-9]*:/:/' | sort)"
if [[ "$walks" != "$(printf '%s\n' \
  'crates/isrf-kernel/src/hash.rs:        walk(k),' \
  'crates/isrf-kernel/src/hash.rs:    walk(k)' \
  'crates/isrf-kernel/src/hash.rs:fn walk(k: &Kernel) -> u128 {' \
  'crates/isrf-kernel/src/hash.rs:pub(crate) fn content_hash(k: &Kernel) -> u128 {' \
  'crates/isrf-kernel/src/ir.rs:        k.hash = crate::hash::content_hash(&k);' | sort)" ]]; then
  echo "$walks" >&2
  echo "a second kernel hash walk: read the stored hash with kernel_hash" >&2
  exit 1
fi

echo "==> one cross-lane network (grep gate)"
# The cross-lane network is the paper's crossbar, one word per lane per cycle
# (`isrf_core::config::CROSSLANE_WORDS_PER_CYCLE`). The ring topology, the
# cross-lane width knob, and the hop latency and global issue budget they
# kept in the arbiter, the trace events and the recorder must not come back.
if grep -rn -e 'CrossLaneTopology' -e 'topology_issue_budget' -e 'topology_extra_latency' \
  -e 'crosslane_words_per_cycle' -e 'idx_hops' -e 'extra_hops' src crates tests examples; then
  echo "a second cross-lane network: the crossbar is CROSSLANE_WORDS_PER_CYCLE" >&2
  exit 1
fi

echo "==> one machine description (grep gate)"
# `MachineConfig` holds only what an experiment varies (Section 5.4's sweeps
# and the differential suite's perturbations); the rest of Table 3 is a
# `const` in isrf_core::config, and an indexed SRF always has the crossbar.
# The cluster description, the fixed-parameter fields, the cross-lane on/off
# switch's V302 check and the isrf-sram helpers that read them must not come
# back.
if grep -rn -e 'ClusterConfig' -e 'clock_ghz' -e 'kernel_dispatch_cycles' \
  -e 'words_per_seq_access' -e 'inlane_latency' -e 'crosslane_latency' \
  -e 'CROSS_LANE_WITHOUT_NETWORK' -e 'SrfVariant::for_machine' \
  -e 'SrfGeometry::from_config' src crates tests examples; then
  echo "a second machine description: a fixed Table 3 value is a const in isrf_core::config" >&2
  exit 1
fi

echo "==> one verification pass (grep gate)"
# The analyzer has no switches, and verification is a call, not a slot on
# the machine: whoever builds a program calls `isrf_verify::Verifier::verify`
# once, in every build (`Prepared::run_checked`, `run_differential` on every
# program, `PointRunner::new`, `analyze_point`; tests before
# `Generated::materialise`). The check toggles, a verifier arm of
# `SimError`, a build-dependent branch in the run loop, and the machine's
# verifier hook (the trait, `set_verifier`, `verify_program`, a verifier
# handed to `materialise`) must not come back.
if grep -rn -e 'enum Check' -e 'fn without(' -e 'SimError::Verify' -e 'ProgramVerifier' \
  -e 'set_verifier' -e 'verify_program' -e 'materialise( *Arc' -e 'materialise($' \
  src crates tests examples \
  || grep -n 'cfg!(debug_assertions)' crates/isrf-sim/src/machine.rs; then
  echo "a second way to verify: call isrf_verify::Verifier::verify where the program is built" >&2
  exit 1
fi

echo "==> one independent oracle (grep gate)"
# `RefMachine` checks the machine's executor, so it resolves operands and
# evaluates ops on its own: refexec.rs names nothing of the tape, the row
# executor or the indexed arbiter. It shares only what its module doc says,
# `isrf_sim::stream`'s port and `Srf`.
if grep -nE -e '(^|[^A-Za-z0-9_])(tape|exec|indexed)::' -e 'isrf_sim::\{[^}]*(tape|exec|indexed)' \
  -e '\bOpnd\b' -e 'CompiledTape' -e 'cached_tape' -e 'KernelRun' crates/isrf-check/src/refexec.rs; then
  echo "the oracle borrows from the machine's executor: keep refexec.rs its own" >&2
  exit 1
fi

echo "==> one stream port (grep gate)"
# Every sequential and conditional stream is one `isrf_sim::stream::Port`,
# its ways (an address walk, the words left, a ring) behind one grant rule.
# The four per-kind states it replaced, each with its own `wants_grant`,
# `grant` and codec, must not come back, nor a second grant beside the one.
port_fns="$(awk '/^#\[cfg\(test\)\]/{exit} /fn (wants_grant|grant)\(/' crates/isrf-sim/src/stream.rs)"
if [[ "$(grep -c 'fn wants_grant(' <<<"$port_fns")" != 1 || "$(grep -c 'fn grant(' <<<"$port_fns")" != 1 ]] \
  || grep -rnE 'SeqInState|SeqOutState|CondInState|CondOutState' crates/*/src; then
  echo "a second stream state or grant: serve every sequential and conditional stream with stream::Port" >&2
  exit 1
fi

echo "==> one oracle path (grep gate)"
# `run_differential` runs its two sides at once on every program: the
# machine on a scoped worker thread, the reference on the caller. An
# environment variable or the core count read there would be a knob or a
# serial fork. The reference moves a transfer a word at a time, so it
# builds no address list and no gathered or scattered data per transfer.
if grep -nE -e 'env::|env!\(' -e 'available_parallelism' crates/isrf-check/src/diff.rs \
  || grep -nE -e 'to_addrs\(' -e '\.gather\(' -e '\.scatter\(' crates/isrf-check/src/refexec.rs; then
  echo "a second oracle path: run both sides at once, and stream the reference's transfers" >&2
  exit 1
fi

echo "==> one record per point (grep gate)"
# Every number a (app, config, profile) point has is one line of
# tests/golden/points.digest, which tests/differential.rs alone writes;
# every other test reads it with isrf_check::Columns. The three digests it
# replaced must not come back, nor a second per-point golden.
for f in tests/golden/{basket,hostwork,prepared}.digest; do
  if [[ -e "$f" ]]; then
    echo "$f is back: its columns are lines of tests/golden/points.digest" >&2
    exit 1
  fi
done
if grep -rn '\.digest"' tests crates/*/tests \
  | grep -v -e '[/"]points\.digest"' -e '/proptest_kernels\.digest"'; then
  echo "a second per-point golden: add a column to tests/golden/points.digest" >&2
  exit 1
fi

echo "==> one work queue (grep gate)"
# The server's pool is one locked FIFO of jobs whose points workers take in
# turn. Per-worker deques, the global injector, stealing, typed work items
# and a polling park must not come back.
if grep -rn -e 'steal' -e 'injector' -e 'WorkItem' -e 'wait_timeout' crates/isrf-serve/src; then
  echo "a second work queue: queue parts on isrf_serve::Pool's one FIFO" >&2
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

echo "==> snapshots are for resume (grep gate)"
# A snapshot pauses a run and resumes it: save_state, restore_state and the
# section list restore reads. The first-divergence bisector, the schema-free
# snapshot diff and the heuristic section reader they used compared two
# machines of one build, one config and one program, which a deterministic
# simulator never makes diverge; they must not come back.
if grep -rnE -e 'first_divergence|diff_snapshots|try_read_sections|PerturbAt' \
  -e 'mod bisect' crates/*/src crates/*/tests src tests; then
  echo "snapshot diffing is back: snapshots are for resume; the oracle checks runs" >&2
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
# Raised by exactly crates/isrf-gen's 766: test support that lives under a
# src/ directory because it is a crate, and replaced five private generators
# under tests/ (every other crate's count unchanged).
# Lowered to 25793 when one per-machine `HostWork` (isrf-core +14) replaced
# the global head counter and `MemWork`: isrf-sim +10 with `Machine::work`,
# less `SrfRange::total_words`; isrf-mem -18 with `VectorCache::hit_rate`;
# isrf-serve -7, `Core::bound` a plain address and `Pool::injector_depth` gone.
# Raised by exactly its net +166 when the kernel executor read pre-resolved
# operands: isrf-sim +164 (the `Opnd` form, the run's `Ring` of constant,
# iteration-id, warm-up and sink rows with its per-row bases, the optional
# pop condition, `Machine::work`'s micro-op count, the lock-step hook; less
# `Src`, `RSrc`, `rsrc`, `row_chunk`, `stage` and the staging rows) and
# isrf-core +2 (`HostWork::ops`).
# Raised by exactly its net +83 when one digest line per point replaced
# three goldens: isrf-check +83 (`POINTS_DIGEST` and `Columns`, the one
# place that names the file and the one reader of a line's `key=value`
# columns; `words_digest`, the `out` column; and `run_differential` keeping
# a recording tracer its caller installed).
# Lowered by exactly its net -65 when one locked FIFO of jobs, whose points
# workers take in turn, replaced the work-stealing pool: isrf-serve -65
# (per-worker deques, injector, stealing, `WorkItem`, `run_item`,
# `WorkerHandle::push`, the stolen counter and the polling park).
# Lowered by exactly its net -124 when the in-SRF histogram moved into its
# one caller, examples/histogram.rs (isrf-apps -158), and condense took the
# padding policy, a pad reading what its own row reads (isrf-apps +34:
# gather +33, spmv +6 for the finite-x precondition, bfs -4, lib -1).
# Lowered by exactly its net -127 when the cross-lane network became the
# paper's crossbar alone, one word per lane per cycle: isrf-sim -44 (the
# topology helpers, the global issue budget, the hop latency and
# `IdxParams`' topology, width and lane-count fields), isrf-verify -19 (the
# width, topology and port terms of the cross-lane floor and pressure),
# isrf-apps -17 (`micro::crosslane_throughput_with_topology`), isrf-trace
# -17 (`IdxAccess::hops`, `Counters::idx_hops`, the hop histogram),
# bench -16 (the ring ablation) and isrf-core -14 (`CrossLaneTopology` and
# two `IndexedSrfConfig` fields, for `CROSSLANE_WORDS_PER_CYCLE`).
# Lowered by exactly its net -128 when `MachineConfig` kept only what an
# experiment varies and the rest of Table 3 became constants: isrf-sram -51
# (`SrfVariant::for_machine`, `SrfGeometry::from_config`), isrf-kernel -32
# (`LatencyModel`'s op and communication latencies, their hashing and
# `with_defaults`), isrf-verify -26 (V302, its check and explain text),
# isrf-core -16 (`ClusterConfig`, seven fields and the clock, width and
# cross-lane checks of `validate`, for ten constants and the bandwidth
# check), isrf-sim -6 (`IdxParams`' latencies, `KernelRun::m_words`) and
# bench +3 (Table 3 names the constants).
# Lowered by exactly its net -101 when the analyzer lost its switches and
# the machine its debug-only second verification: isrf-verify -97 (`Check`,
# `Verifier::{without, on}` and the seven guards; V501 and the occupancy
# bounds replay one `cost::fifo_events`), isrf-sim -14 (`SimError::Verify`,
# its `Display` arm and `From`, the `cfg!(debug_assertions)` arm of `step`),
# isrf-apps +7 (`run_checked` verifies, the fft2d and rijndael setup
# programs `debug_assert` it) and isrf-serve +3 (one `lock` helper).
# Raised by exactly its net +48 when the differential oracle stopped
# allocating per op and compared final state a block at a time:
# isrf-check +48 (diff +31: `diff_blocks`, `BLOCK` and `MAX_ERRORS` as
# constants; refexec +17: `Arg`, resolved once per operand, the context
# ring and the module doc's independence rule, less `resolve` per lane).
# Raised by exactly its net +13 when the oracle's two sides began to run
# at once: isrf-check +9 (diff +10: the scoped worker and the doc saying
# which side runs where; refexec -1: transfers stream a word at a time,
# `write_stream_words` and `dynamic_addrs` gone) and isrf-trace +4 (the
# ring overwrites in place from a head index).
# Lowered by exactly its net -45 when verification became a call, not a
# slot on the machine: isrf-sim -157 (the `verify` module with the
# `ProgramVerifier` trait, the verifier field, `set_verifier` and
# `verify_program`; `VerifyEnv` moved into machine.rs, `Diagnostic` and
# `VerifyError` into isrf-verify), isrf-verify +115 (those two types and the
# inherent `Verifier::verify`), isrf-check +11 (`run_differential` verifies
# every program itself, then `run_both`), isrf-gen -10 (`materialise` takes
# and runs no verifier), isrf-serve -7 (`E000` is a `Diagnostic`, one
# verdict in `analyze_point`), isrf-apps +3 (the setup `debug_assert`s call
# the verifier), bench -1 and isrf-trace +1.
# Raised by exactly its net +240 when each kernel was hashed once and the
# analyzer stopped copying per op: isrf-verify +152 (`Before`, rows with a
# count of leading all-ones words; `Label` and `Provenance`, op ids rendered
# only for a note, with in-place writes; the counting-sort event list),
# isrf-kernel +84 (the stored hash and its debug recheck, the debug-only walk
# counter, and `Clone`, `Debug` and `PartialEq` written out so the hash stays
# out of a kernel's text) and isrf-trace +4 (the ring wraps by compare).
# Raised by exactly its net +175 when each app became a plan plus a load
# and admission stopped building data: isrf-apps +149 (`Plan`, each app's
# `load_*` stage and `planned` helper, spmv's `Matrix` memo entry with its
# condensed strips, `gather::load_pointers`, `plan_app`; the eight
# per-module `prepare`s gone), isrf-serve +15 (`exec::plan`, the source
# harness's `load_inputs`), isrf-sim +10 (`note_program_fills` public,
# `note_filled`) and bench +1 (the `verify` bin reads plans).
# Lowered by exactly its net -33 when Figures 17 and 18 became microkernels
# run on the machine: isrf-apps -205 (`micro.rs`'s side model, its two
# drivers with their hand-made stage-1 arbitration and comm-busy rule, and
# its `pub mod`), bench +173 (`micro.rs`: the two kernels, their plans
# and host checks; `throughputs`, the one parallel sweep behind `fig17`
# and `fig18`) and isrf-sim -1 (the crate-root re-export of the indexed
# arbiter).
# Lowered by exactly its net -85 when a transfer came to move a contiguous
# run or a shared list: isrf-mem -84 (`AddrPattern::Strided`, its
# constructor and its arms in `len`, `addr_at`, the walk's step, the loads
# and stores and the snapshot codec, the `record_left` walk state, and
# `start_gather`), isrf-apps -2 (fft2d -17, its three lists from one
# exact-size `reorder`, built once a plan; stencil -3; gather +18, each
# strip's list per record base, built by the first sweep and shared by the
# later ones) and isrf-sim +1 (`collect_indices` names the list).
# Lowered by exactly its net -40 when snapshot format 2 wrote each fact
# once: isrf-sim -39 (`meta`'s reserved byte and ignored flag, `kctx`'s
# one-valued tag, the indexed slot's index, an indexed request's read/write
# tag and the two occupancy totals, each lane cursor's record and word
# with `LaneCursor::first_k`, one `GlobalCursor` codec for both
# conditional streams; +3 for the range debug assertion moving from the
# head retarget, which restore also runs, to the three push paths),
# isrf-mem -9 (an in-flight transfer's separate length, on the wire and in
# `Inflight`), isrf-core +5 (`Dec::bool` refuses bytes but 0 and 1) and
# isrf-apps +3 (filter's and stencil's row lists built in their one
# allocation).
# Lowered by exactly its net -376 when snapshots became for resume only:
# isrf-check -221 (`bisect.rs` with `first_divergence`, `BisectError`,
# `Divergence` and `PerturbAt`, and its re-exports), isrf-sim -116
# (`diff_snapshots`, `SnapshotDiff`, `MAX_DIFFS` and `display_path` -102;
# `Machine::free_srf` -8 and `Srf::free_all`, its one callee, -6),
# isrf-core -28 (`snap::try_read_sections`) and isrf-kernel -11
# (`Schedule::alu_utilization`).
# Raised by exactly its net +36 when a compiled tape's operands lost their
# distance and `init`: isrf-sim +36 (tape.rs +34: the `Warmup` table, its
# search in `Frame::warm_up` and its construction in `compile`, exact-length
# slices; exec.rs +2: the op number passed to `Frame::operands`), isrf-verify
# 0 (a comment).
# Raised by exactly its net +63 when the analyzer stopped walking transfers
# for their DRAM burst openings: isrf-mem +42 (`AddrPattern::burst_openings`,
# a run in closed form and a list in one pass, beside `serve_one`; the
# debug-only burst count there; `AddrPattern::addrs`, one `match` a
# pattern), isrf-verify +18 (`MemCharge` and `mem_charge`, each list counted
# once by its `Arc` address, for `burst_charge`) and isrf-core +3
# (`HostWork::bursts`).
# Lowered by exactly its net -236 when every sequential and conditional
# stream became one `stream::Port`: isrf-sim -230 (stream.rs 736 -> 543, the
# four states, their cursors and codecs; exec.rs -33, the per-variant arms
# and `state!`; machine.rs -4), isrf-check -13 (`RefSlot`'s five stream
# variants), isrf-serve -7 and isrf-kernel +8 (`StreamKind::writes`, used
# where three places spelled out the written kinds), isrf-verify +6 (`report`
# hands its shape ids to the cost model).
loc_ceiling=25257
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
