#!/bin/sh
# CLI golden test: run a fixed set of stabsim commands at one pool
# width and compare their stdout with the committed .expected files.
#
#   golden.sh STABSIM WIDTH DIR            compare against DIR/*.expected
#   golden.sh STABSIM WIDTH DIR --update   (re)write DIR/*.expected
#
# The outputs must not depend on WIDTH: the same .expected files are
# checked at every pool width.
set -u
stabsim=$1
width=$2
dir=$3
mode=${4:-compare}
failed=0

# profile prints timing tables after its answers; keep the answers only
# (everything up to and including the Monte-Carlo line).
answers() { sed -n '1,/^montecarlo/p'; }

# profile --json carries timings and per-lane pool figures; keep the
# object keys of its top three levels, indented by depth.
json_keys() { sed -n 's/^\( \{2,6\}\)"\([^"]*\)":.*/\1\2/p'; }

# golden NAME FILTER ARGS...: run stabsim ARGS at the pool width, pipe
# stdout through FILTER and compare with NAME.expected.
golden() {
  name=$1
  filter=$2
  shift 2
  out=$(mktemp)
  if ! "$stabsim" "$@" --domains "$width" > "$out.raw" 2>/dev/null; then
    echo "cli golden $name: stabsim $* failed" >&2
    failed=1
  else
    $filter < "$out.raw" > "$out"
    if [ "$mode" = "--update" ]; then
      cp "$out" "$dir/$name.expected"
    elif ! diff -u "$dir/$name.expected" "$out" >&2; then
      echo "cli golden $name: stdout differs at --domains $width" >&2
      failed=1
    fi
  fi
  rm -f "$out" "$out.raw"
}

# rejects NAME ARGS...: stabsim ARGS at the pool width must exit
# non-zero before printing anything on stdout.
rejects() {
  name=$1
  shift
  out=$(mktemp)
  if "$stabsim" "$@" --domains "$width" > "$out" 2>/dev/null; then
    echo "cli reject $name: stabsim $* succeeded" >&2
    failed=1
  elif [ -s "$out" ]; then
    echo "cli reject $name: stabsim $* printed on stdout before failing" >&2
    failed=1
  fi
  rm -f "$out"
}

golden check cat check -p token-ring -t ring:5
golden check-quotient cat check -p token-ring -t ring:6 --quotient
golden check-crash cat check -p token-ring -t ring:5 --crash 0
golden markov cat markov -p token-ring -t ring:5
golden markov-quotient cat markov -p token-ring -t ring:6 --quotient
# Quotient rows of up to 2^15 - 1 canonicalized targets: the radix merge,
# whose summation order the printed residual would show.
golden markov-quotient-ring15 cat markov -p token-ring -t ring:15 --quotient
golden markov-central-gs cat markov -p dijkstra-3state -t ring:5 -r central-random \
  --solver gs
golden reach cat reach -p token-ring -t ring:6
golden reach-central-budget cat reach -p token-ring -t ring:6 --class central \
  --max-states 100
# 8^20 configurations: an explicit exploration runs past 10^9.
golden reach-past-1e9 cat reach --file "$dir/../../examples/gcp/max.gcp" -t random:20:7 \
  --class central --max-states 2000
golden faults-exact cat faults -p token-ring -t ring:5 --class central --runs 50 \
  --horizon 500
golden faults-onthefly cat faults -p token-ring -t ring:5 --class central --runs 50 \
  --horizon 500 --max-configs 10
golden faults-onthefly-complete cat faults -p token-ring -t ring:6 --class central \
  --runs 30 --horizon 300 --max-configs 3000
golden faults-sampled cat faults -p token-ring -t ring:20 --class central --runs 20 \
  --horizon 300 -k 1
# Self-stabilizing, so the exact arm prints a finite worst case per k.
golden faults-exact-selfstab cat faults -p dijkstra-3state -t ring:6 --runs 20 \
  --horizon 200 -k 1,2,3
golden montecarlo cat montecarlo -p token-ring -t ring:5 --runs 200
# Every sampled table: the E1/E2 Monte-Carlo rows, E6, E10 and E11.
golden experiments cat experiments
golden profile answers profile token-ring --n 5 --runs 100
golden profile-json-keys json_keys profile token-ring --n 5 --runs 100 --json
# The synchronous analyses: the E9 census (leader-tree reaches
# terminals, cycle length 0), Figure 3's lasso and Theorem 3's closed
# set among the theorem checks.
golden orbit-tree cat orbit -p leader-tree -t chain:4
golden orbit-ring cat orbit -p token-ring -t ring:5
golden figures cat figures
golden theorems cat theorems
# One theorem by id runs only that theorem's check.
golden theorems-t3 cat theorems --id T3
# Tables P1, P2, E8, P4 and the resilience radii.
golden portfolio cat portfolio
# Nonsense solver and fault parameters are usage errors, not runs.
rejects tol-negative markov -p token-ring -t ring:5 --solver gs --tol=-1
rejects tol-nan markov -p token-ring -t ring:5 --solver gs --tol nan
rejects max-sweeps-zero markov -p token-ring -t ring:5 --solver gs --max-sweeps 0
rejects wake-p-nan trace -p token-ring -t ring:5 --crash 1 --wake-p nan
# Negative lengths are usage errors too (0 shows the initial
# configuration, or no timeline). The dump holds one event, so only
# --last can make doctor fail.
rejects steps-negative trace -p token-ring -t ring:5 --steps=-5 --seed 2
rejects theorem-id-unknown theorems --id T99
# A topology field that is not an integer is a usage error too.
rejects topology-not-integer check -p token-ring -t random:3:x
dump=$(mktemp)
printf '%s\n%s\n' \
  '{"type":"flight","schema":1,"reason":"cli","ts_ns":2000000000,"pid":1,"cmdline":["stabsim"],"ocaml":"5.1","cores":1,"commit":"0","dirty":false}' \
  '{"type":"message","level":"warn","ts_ns":1000000000,"domain":0,"text":"event"}' > "$dump"
rejects last-negative doctor "$dump" --last=-1
rm -f "$dump"
exit $failed
