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

golden check cat check -p token-ring -t ring:5
golden check-quotient cat check -p token-ring -t ring:6 --quotient
golden check-crash cat check -p token-ring -t ring:5 --crash 0
golden markov cat markov -p token-ring -t ring:5
golden markov-quotient cat markov -p token-ring -t ring:6 --quotient
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
golden montecarlo cat montecarlo -p token-ring -t ring:5 --runs 200
golden profile answers profile token-ring --n 5 --runs 100
exit $failed
