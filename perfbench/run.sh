#!/usr/bin/env bash
# Builds the xnf binary of this checkout and the benchmark program, then
# runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Run it from the checkout root. Every build product, cache and result
# stays under .bench_build in the checkout.
set -euo pipefail

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/bin" "$build/home" "$build/tmp"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export HOME="$build/home"
export XDG_CONFIG_HOME="$build/home/.config"
export XDG_CACHE_HOME="$build/home/.cache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOENV=off
export GOTMPDIR="$build/tmp"
export TMPDIR="$build/tmp"

# A checkout without the program (only the benchmark's own files) fails
# here, before anything is measured.
test -f "$root/go.mod" -a -d "$root/cmd/xnf" || {
	echo "perfbench: $root holds no xnf sources" >&2
	exit 2
}
go build -o "$build/bin/xnf" ./cmd/xnf
(cd perfbench && go build -o "$build/bin/perfbench" .)

exec "$build/bin/perfbench" --xnf "$build/bin/xnf" --root "$root" "$@"
