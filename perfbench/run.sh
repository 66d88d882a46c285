#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it:
#
#   bash perfbench/run.sh --workload stream-long --seed 1 --seconds 15 --trace 0
#
# Everything the build and the run write goes under .bench_build/ at the
# checkout root (Go build cache included), so the run touches nothing
# outside the checkout. Without the repository's sources beside it the
# build fails and the script exits non-zero before printing a result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="${root}/.bench_build"
mkdir -p "${out}"
export GOCACHE="${out}/gocache" GOMODCACHE="${out}/gomodcache" GOPATH="${out}/gopath"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "${root}/perfbench" && go build -o "${out}/bin/perfbench" .)
cd "${root}"
# Freed heap pages go back to the kernel with MADV_FREE rather than
# MADV_DONTNEED, so a page the timed loop reuses is not faulted in again:
# with the default, cluster-observed takes ~25k minor faults per second,
# whose cost follows the host's memory state rather than the code.
export GODEBUG=madvdontneed=0
exec "${out}/bin/perfbench" "$@"
