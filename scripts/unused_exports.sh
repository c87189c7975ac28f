#!/usr/bin/env bash
# Exports nothing calls: a word-match census of the values lib/ exports.
#
#   scripts/unused_exports.sh [--list] [--check]
#
# For each `val NAME` in lib/**/*.mli, looks for NAME as a whole word in
# every other .ml and .mli of the repository (the module's own .ml and
# .mli do not count).  An export is
#
#   nowhere    if no other file names it;
#   test-only  if only files under a test/ directory name it.
#
# Entries of scripts/unused_exports.allow are kept on purpose and counted
# in neither class; each line there is `Module.name  reason`, and an entry
# without a reason is an error.  The match is rough: a name reached only
# through a record field or an alias, or shared by a common word, counts
# as used.  A lib/ .ml without an .mli exports everything and is invisible
# to the census, so such files are counted as no-mli.
#
# Prints one line per unlisted export and per no-mli file with --list,
# then the verdict line
#
#   UNUSED-EXPORTS nowhere=N test-only=M no-mli=K
#
# With --check it exits 1 when N or M exceeds its ceiling committed in
# scripts/unused_exports.max (lines `nowhere N` and `test-only M`), or
# when K is above 0.
set -euo pipefail

root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
allow=scripts/unused_exports.allow
ceiling_file=scripts/unused_exports.max

list=0
check=0
for arg in "$@"; do
  case "$arg" in
    --list) list=1 ;;
    --check) check=1 ;;
    *) echo "usage: $0 [--list] [--check]" >&2; exit 2 ;;
  esac
done

# Every allowlist entry must say why it stays.
bad_allow=$(awk '!/^[[:space:]]*(#|$)/ && NF < 2 { print FILENAME ":" FNR ": " $0 }' "$allow")
if [ -n "$bad_allow" ]; then
  echo "$bad_allow: allowlist entry without a reason" >&2
  exit 2
fi
allowed=$(awk '!/^[[:space:]]*(#|$)/ { print $1 }' "$allow")

sources=$(find lib bin bench benchmark examples scripts test \
  -name _build -prune -o \( -name '*.ml' -o -name '*.mli' \) -print | sort)

nowhere=0
test_only=0
for mli in $(find lib -name '*.mli' | sort); do
  base=${mli%.mli}
  module=$(basename "$base")
  module=$(printf '%s' "${module:0:1}" | tr a-z A-Z)${module:1}
  others=$(grep -v -x -e "$base.ml" -e "$base.mli" <<<"$sources")
  for name in $(sed -n -E "s/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*).*/\1/p" "$mli" | sort -u); do
    # Here-strings, not pipes: under pipefail an early `grep -q` exit
    # would fail the pipe's writer with SIGPIPE.
    if grep -q -x -F "$module.$name" <<<"$allowed"; then continue; fi
    users=$(grep -l -w -F -- "$name" $others || true)
    if [ -z "$users" ]; then
      nowhere=$((nowhere + 1))
      [ "$list" = 1 ] && echo "nowhere $module.$name"
    elif ! grep -q -v -E '(^|/)test/' <<<"$users"; then
      test_only=$((test_only + 1))
      [ "$list" = 1 ] && echo "test-only $module.$name"
    fi
  done
done

no_mli=0
for ml in $(find lib -name '*.ml' | sort); do
  if [ ! -e "${ml%.ml}.mli" ]; then
    no_mli=$((no_mli + 1))
    [ "$list" = 1 ] && echo "no-mli $ml"
  fi
done

echo "UNUSED-EXPORTS nowhere=$nowhere test-only=$test_only no-mli=$no_mli"
if [ "$check" = 1 ]; then
  ceiling() {
    local c
    c=$(awk -v k="$1" '$1 == k { print $2 }' "$ceiling_file")
    if [ -z "$c" ]; then
      echo "$ceiling_file: no $1 ceiling" >&2
      exit 2
    fi
    echo "$c"
  }
  max_nowhere=$(ceiling nowhere)
  max_test_only=$(ceiling test-only)
  if [ "$nowhere" -gt "$max_nowhere" ]; then
    echo "unused exports rose above the committed ceiling of $max_nowhere" >&2
    exit 1
  fi
  if [ "$test_only" -gt "$max_test_only" ]; then
    echo "test-only exports rose above the committed ceiling of $max_test_only" >&2
    exit 1
  fi
  if [ "$no_mli" -gt 0 ]; then
    echo "a lib/ module has no interface: the census cannot see its exports" >&2
    exit 1
  fi
fi
