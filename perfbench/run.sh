#!/usr/bin/env bash
# Builds the benchmark from the source tree it sits in, then runs it.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload sim-long --seed 1 --seconds 30 --trace 0
#
# Every build and run artifact stays under .bench_build in the current
# directory. The build needs the wavescalar module one directory above
# perfbench; without it the build fails and the script exits non-zero
# without printing a result.
set -euo pipefail

root="$(pwd)"
out="${root}/.bench_build"
mkdir -p "${out}/gocache" "${out}/gopath" "${out}/tmp" "${out}/config"
# The go command's own state (build cache, module cache, telemetry under
# the user config directory) also stays under .bench_build.
export XDG_CONFIG_HOME="${out}/config"
export GOCACHE="${out}/gocache"
export GOPATH="${out}/gopath"
export GOMODCACHE="${out}/gopath/pkg/mod"
export GOTMPDIR="${out}/tmp"
export TMPDIR="${out}/tmp"
export GOFLAGS=-mod=mod
export GOTOOLCHAIN=local
export GOWORK=off
export GOPROXY=off

(cd "${root}/perfbench" && go build -o "${out}/perfbench" .)
exec "${out}/perfbench" -workdir "${out}" "$@"
