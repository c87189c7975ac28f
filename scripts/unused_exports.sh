#!/usr/bin/env bash
# Exports nothing calls: the typed census of scripts/unused_exports/.
#
#   scripts/unused_exports.sh [--list] [--check]
#
# Writes every typed tree (`dune build @check`), then runs the census at
# the repository root; see unused_exports.ml for what it counts.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build @check ./scripts/unused_exports/unused_exports.exe
exec ./_build/default/scripts/unused_exports/unused_exports.exe "$@"
