#!/usr/bin/env bash
# SIGPROF self-time profile of springbench, by module and by symbol.
#
#   scripts/sprof.sh WORKLOAD SECONDS SEED [--setup]
#
# x86-64 Linux only (the sampler reads the PC from the signal's ucontext),
# and not part of tier-1 (no test runs it).  Builds
# scripts/sprof/sprof.exe in this tree and runs it: forked runs of
# `Workload.setup` alone (--setup) or of whole springbench rounds at the
# round seeds SEED derives, sampled on a 1 ms CPU timer inside each child,
# until SECONDS of wall time have passed.  Prints self-time shares by
# module and by symbol; executable symbols come from nm.  See the header
# of scripts/sprof/sprof.ml for how samples are attributed.
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
dune build --root "$root" --display=quiet ./scripts/sprof/sprof.exe
exec "$root/_build/default/scripts/sprof/sprof.exe" "$@"
