#!/usr/bin/env bash
# Build the host-time benchmark from this checkout, then run it:
#
#   bash hostbench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#   bash hostbench/run.sh --selftest
#
# The build goes to dune's usual _build/ and its log to stderr, so the
# benchmark's JSON result stays the last line of stdout.
#
# serve-tcp runs on one CPU (the first this process may use). Its one
# request in flight passes between three domains, and only one of them
# computes at a time; on several CPUs each hand-off waits for another
# CPU to wake, which on a shared host varies more than the work does.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "hostbench: not a C4CAM checkout (no dune-project or lib/ in $root)" >&2
  exit 2
fi
dune build --root . ./hostbench/main.exe 1>&2
pin=()
prev=""
for arg in "$@"; do
  if [ "$prev" = "--workload" ] && [ "$arg" = "serve-tcp" ]; then
    cpus="$(taskset -pc $$)"
    cpus="${cpus##*: }"
    pin=(taskset -c "${cpus%%[,-]*}")
  fi
  prev="$arg"
done
exec "${pin[@]}" ./_build/default/hostbench/main.exe "$@"
