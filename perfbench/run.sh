#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, e.g.
#   bash perfbench/run.sh --workload plan_hot --seed 1 --seconds 28 --trace 0
# Every build artefact (binary, Go build cache) goes under .bench_build/.
set -euo pipefail
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out/home"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath" \
	GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd "$here" && go build -o "$out/perfbench" .)
exec "$out/perfbench" --spans "$out/spans.jsonl" "$@"
