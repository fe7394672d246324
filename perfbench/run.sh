#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# given arguments (--workload, --seed, --seconds, --trace). Run it from the
# repository root: bash perfbench/run.sh --workload decide-elim --seed 1 ...
#
# Every file the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the toolchain's scratch and config
# directories, the binary, the shard workers' socket directories and the
# span dumps of traced runs.
set -euo pipefail

root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/config" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath"
export XDG_CONFIG_HOME="$out/config" GOFLAGS="" GOTOOLCHAIN=local GOPROXY=off GOWORK=off

(cd "$root/perfbench" && go build -o "$out/perfbench" .)

# Relative, so the workers' unix socket paths stay short whatever the
# checkout's own path is; the workers inherit this working directory.
export TMPDIR=".bench_build/tmp"
exec "$out/perfbench" "$@"
