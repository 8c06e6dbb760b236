#!/usr/bin/env bash
# Builds simcloudd and the benchmark from the sources of the checkout this
# script sits in, then runs the benchmark with the given arguments. Build
# output and the Go build cache stay under .bench_build/ at the checkout root.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOPROXY=off
(cd "$root" && go build -o "$out/simcloudd" ./cmd/simcloudd) >&2
(cd "$root/_perfbench" && go build -o "$out/perfbench" .) >&2
if [[ "${1:-}" == ab ]]; then
	shift
	exec "$out/perfbench" ab -root "$root" -simcloudd "$out/simcloudd" -self "$out/perfbench" "$@"
fi
exec "$out/perfbench" -root "$root" -simcloudd "$out/simcloudd" "$@"
