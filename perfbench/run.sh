#!/usr/bin/env bash
# Builds the benchmark from the sources of this checkout and runs it.
#
#   bash perfbench/run.sh --workload campaign-dense --seed 1 --seconds 20 --trace 0
#   bash perfbench/run.sh compare BASE_DIR NEW_DIR
#
# The binary, the Go build cache and every other toolchain write stay under
# .bench_build/ at the root of the checkout; the benchmark itself runs from
# that root. Without the program's sources beside perfbench/ the build
# fails and the script exits non-zero before printing any result.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(cd "$here/.." && pwd)
build="$root/.bench_build"

if [ ! -f "$root/go.mod" ]; then
	echo "perfbench: no go.mod at $root: the program's sources are missing" >&2
	exit 2
fi

mkdir -p "$build"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOMODCACHE="$build/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$build/config" GOFLAGS= GOWORK=off GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/perfbench" .) >&2

cd "$root"
exec "$build/perfbench" "$@"
