# Build springbench from source and run it from the repository root; every
# argument goes to springbench.exe.  The build stays in the tree's _build
# (no shared dune cache), and a tree without the libraries fails the build.
set -eu
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"
exec dune exec --root "$root" --cache=disabled --display=quiet ./benchmark/springbench.exe -- "$@"
