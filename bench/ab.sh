#!/bin/sh
# Paired A/B of the benchmark of record (bench/e2e, BENCHMARK.json):
# a base revision against the working tree, on the same host.
#
#   sh bench/ab.sh REV [SECONDS] [PAIRS]
#
# Builds REV's bench/e2e/e2e.exe in a scratch git worktree and the
# working tree's e2e.exe, then runs every workload named in
# BENCHMARK.json PAIRS times on each side (default 10), SECONDS per run
# (default: BENCHMARK.json's run_seconds), at seed 2008 with tracing
# off. The two sides alternate, and which side goes first alternates
# from pair to pair, so drift of the host's speed falls on both.
#
# Prints one row per (workload, end-to-end metric): both medians over
# the runs, the base's distance between quartiles (IQR), the change in
# per cent, the pairs the working tree won and the metric's bound. It
# also prints the raw median round CPU time (`round_cpu_s`, not divided
# by the yardstick) of each side, ungated. Exits 1 when a metric's
# median on the working tree is worse than the base's by more than the
# metric's bound, or when any run fails or gives a wrong answer; a
# change that only improves a metric passes.
#
# Run it from anywhere inside the repository; dune, git and python3
# must be on PATH. Scratch files go under $TMPDIR (default /tmp) and
# are removed on exit.
set -eu

if [ $# -lt 1 ] || [ $# -gt 3 ]; then
  echo "usage: sh bench/ab.sh REV [SECONDS] [PAIRS]" >&2
  exit 2
fi
root=$(git rev-parse --show-toplevel)
cd "$root"
base=$(git rev-parse --verify --quiet "$1^{commit}") || {
  echo "ab: $1 is not a commit" >&2
  exit 2
}
seconds=${2:-$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')}
pairs=${3:-10}
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')

tmp=$(mktemp -d "${TMPDIR:-/tmp}/ab.XXXXXX")
cleanup() {
  git worktree remove --force "$tmp/base" 2>/dev/null || true
  rm -rf "$tmp"
  git worktree prune
}
trap cleanup EXIT
trap 'exit 130' INT TERM

git worktree add --quiet --detach "$tmp/base" "$base"
echo "ab: building e2e.exe at $(git rev-parse --short "$base") and in the working tree" >&2
(cd "$tmp/base" && dune build --root . --display quiet bench/e2e/e2e.exe)
dune build --root . --display quiet bench/e2e/e2e.exe
mkdir "$tmp/out"

# run SIDE DIR WORKLOAD PAIR: one e2e run from DIR's tree root, so its
# provenance names that tree's commit.
run() {
  out="$tmp/out/$3.$1.$4.json"
  if ! (cd "$2" && ./_build/default/bench/e2e/e2e.exe --workload "$3" --seed 2008 \
      --seconds "$seconds" --trace 0 --out "$out" > /dev/null); then
    echo "ab: $1 run $4 of $3 failed" >&2
    rm -f "$out"
  fi
}

i=1
while [ "$i" -le "$pairs" ]; do
  for w in $workloads; do
    echo "ab: pair $i/$pairs $w" >&2
    if [ $((i % 2)) -eq 1 ]; then
      run base "$tmp/base" "$w" "$i"
      run change "$root" "$w" "$i"
    else
      run change "$root" "$w" "$i"
      run base "$tmp/base" "$w" "$i"
    fi
  done
  i=$((i + 1))
done

python3 - "$tmp/out" "$pairs" "$(git rev-parse --short "$base")" $workloads <<'EOF'
import json, os, sys

out, pairs, base = sys.argv[1], int(sys.argv[2]), sys.argv[3]
workloads = sys.argv[4:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]

def quantile(xs, q):
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (pos - lo) * (xs[hi] - xs[lo])

def median(xs):
    return quantile(xs, 0.5)

# The gated end-to-end metrics, then the raw round CPU time, ungated.
rows = [(m["name"], m["unit"], m["better"] == "lower", m["bound"]) for m in metrics]
rows.append(("round_cpu_s", "s", True, None))

def value(result, name):
    if name == "round_cpu_s":
        return median(result["round_cpu_s"])
    return result["metrics"][name]["value"]

def load(w, side, i):
    path = os.path.join(out, f"{w}.{side}.{i}.json")
    return json.load(open(path)) if os.path.exists(path) else None

bad = []
print(f"A/B: base {base} against the working tree, {pairs} pairs")
print(f"{'workload':22s} {'metric':12s} {'base':>10s} {'change':>10s} {'base IQR':>10s}"
      f" {'delta':>7s} {'won':>6s} {'bound':>6s}  verdict")
for w in workloads:
    runs = [(load(w, "base", i), load(w, "change", i)) for i in range(1, pairs + 1)]
    for side, k in (("base", 0), ("change", 1)):
        for i, r in enumerate(runs, 1):
            if r[k] is None:
                bad.append(f"{w}: {side} run {i} gave no result")
            elif not r[k]["correct"]:
                bad.append(f"{w}: {side} run {i} failed {r[k]['failed']} of "
                           f"{r[k]['attempted']} answers")
    both = [(a, b) for a, b in runs if a is not None and b is not None]
    if not both:
        continue
    for name, unit, lower, bound in rows:
        a = [value(x, name) for x, _ in both]
        b = [value(y, name) for _, y in both]
        ma, mb = median(a), median(b)
        iqr = quantile(a, 0.75) - quantile(a, 0.25)
        worse = (mb - ma) / ma if lower else (ma - mb) / ma
        won = sum(1 for x, y in zip(a, b) if (y < x if lower else y > x))
        if bound is None:
            verdict, bound_s = "raw, ungated", "-"
        elif worse > bound:
            verdict, bound_s = "WORSE", f"{100 * bound:.0f}%"
            bad.append(f"{w} {name}: {100 * worse:+.1f}% worse, bound {100 * bound:.0f}%")
        else:
            verdict, bound_s = "ok", f"{100 * bound:.0f}%"
        delta = 100 * (mb - ma) / ma
        print(f"{w:22s} {name:12s} {ma:10.4g} {mb:10.4g} {iqr:10.3g} {delta:+6.1f}%"
              f" {won:3d}/{len(both):<2d} {bound_s:>6s}  {verdict} ({unit})")
for line in bad:
    print("FAIL: " + line)
print("A/B: " + ("FAIL" if bad else "PASS"))
sys.exit(1 if bad else 0)
EOF
