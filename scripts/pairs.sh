#!/usr/bin/env bash
# Alternating A/B pairs of two git revisions on one benchmark workload, the
# procedure of benchmark/README.md ("Comparing two commits"):
#
#   scripts/pairs.sh PARENT CHANGE WORKLOAD SEED N
#
# Each revision is exported once (`git archive`, so the repository's own
# worktrees and refs are left alone) into a directory of its own under
# $TMPDIR (default /tmp), and its benchmark is built there into a
# CARGO_TARGET_DIR of its own; a revision already exported is reused. Then
# N pairs of `benchmark/run.sh --workload WORKLOAD --seed SEED --seconds 20
# --trace 0` run, each side from its own export, the parent first in odd
# pairs and the change first in even ones. Every result line is kept under
# $TMPDIR/isrf-pairs/results.
#
# The summary prints, for every end-to-end metric of BENCHMARK.json, each
# side's median and quartiles (benchmark/src/metrics.rs's `quartiles`; the
# full range below four runs), the change's wins out of N (a tie is no win)
# and whether the README's rule for claiming a gain holds: the change wins
# at least nine tenths of the pairs, and the medians differ by more than the
# distance between the parent's quartiles.
set -euo pipefail

if [[ $# -ne 5 ]]; then
  echo "usage: scripts/pairs.sh PARENT CHANGE WORKLOAD SEED N" >&2
  exit 2
fi
parent=$1 change=$2 workload=$3 seed=$4 n=$5
repo="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
work="${TMPDIR:-/tmp}/isrf-pairs"

# Export and build revision $1 once; print its directory.
checkout() {
  local sha dir
  sha="$(git -C "$repo" rev-parse --verify "$1^{commit}")"
  dir="$work/$sha"
  if [[ ! -f "$dir/exported" ]]; then
    rm -rf "$dir"
    mkdir -p "$dir/src"
    git -C "$repo" archive "$sha" | tar -x -C "$dir/src"
    touch "$dir/exported"
  fi
  echo "==> building $1 ($sha) in $dir" >&2
  CARGO_TARGET_DIR="$dir/target" cargo build --release --offline --quiet \
    --manifest-path "$dir/src/benchmark/Cargo.toml" >&2
  echo "$dir"
}

# One untraced run from export $1; its result line goes to file $2.
run() {
  (cd "$1/src" && CARGO_TARGET_DIR="$1/target" bash benchmark/run.sh \
    --workload "$workload" --seed "$seed" --seconds 20 --trace 0) | tail -n 1 >>"$2"
}

pdir="$(checkout "$parent")"
cdir="$(checkout "$change")"
mkdir -p "$work/results"
out="$work/results/$(basename "$pdir" | cut -c1-8)-$(basename "$cdir" | cut -c1-8)-$workload-$seed"
: >"$out.parent.jsonl"
: >"$out.change.jsonl"
for ((i = 1; i <= n; i++)); do
  echo "==> pair $i of $n ($workload, seed $seed)" >&2
  if ((i % 2)); then
    run "$pdir" "$out.parent.jsonl"
    run "$cdir" "$out.change.jsonl"
  else
    run "$cdir" "$out.change.jsonl"
    run "$pdir" "$out.parent.jsonl"
  fi
done

python3 - "$cdir/src/BENCHMARK.json" "$out.parent.jsonl" "$out.change.jsonl" "$workload" "$seed" <<'EOF'
import json, sys

spec, parent_file, change_file, workload, seed = sys.argv[1:]
metrics = json.load(open(spec))["end_to_end"]
parent = [json.loads(line) for line in open(parent_file)]
change = [json.loads(line) for line in open(change_file)]

def median(v):
    s, n = sorted(v), len(v)
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2

def quartiles(v):
    s, n = sorted(v), len(v)
    if n < 4:
        return s[0], s[-1]
    def at(q):
        j = min(max(q * (n + 1) // 4, 1), n - 1)
        delta = q * (n + 1) - j * 4
        return (s[j - 1] * (4 - delta) + s[j] * delta) / 4
    return at(1), at(3)

print(f"{workload}, seed {seed}, {len(parent)} pairs")
for side, runs in (("parent", parent), ("change", change)):
    bad = [i + 1 for i, r in enumerate(runs) if not r["correct"] or r["failed"]]
    print(f"  {side}: correct in every run" if not bad else f"  {side}: NOT correct in runs {bad}")
print(f"  {'metric':<15} {'parent median [q1, q3]':>34} {'change median [q1, q3]':>34} {'delta':>8}  wins  gain rule")
for m in metrics:
    name, lower = m["name"], m["better"] == "lower"
    p = [r["metrics"][name]["value"] for r in parent]
    c = [r["metrics"][name]["value"] for r in change]
    (pm, (p1, p3)), (cm, (c1, c3)) = (median(p), quartiles(p)), (median(c), quartiles(c))
    wins = sum((b < a) if lower else (b > a) for a, b in zip(p, c))
    better = (pm - cm) if lower else (cm - pm)
    holds = wins * 10 >= 9 * len(p) and better > p3 - p1
    delta = f"{(cm - pm) / pm * 100:+.1f}%" if pm else "-"
    verdict = "identical" if set(p) == set(c) and len(set(p)) == 1 else ("holds" if holds else "no")
    print(f"  {name:<15} {pm:>12.6g} [{p1:.6g}, {p3:.6g}] {cm:>12.6g} [{c1:.6g}, {c3:.6g}] {delta:>8}  "
          f"{wins:>2}/{len(p):<2} {verdict}")
EOF
