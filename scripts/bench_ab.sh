#!/usr/bin/env bash
# bench_ab.sh [base-ref] — the regression gate (`make bench-gate`): a same-box
# A/B of the whole benchmark between base-ref (default HEAD~1) and this tree.
# A checked-in wall-clock baseline cannot gate on a shared box (the same commit
# reads 28% apart an hour later), so the base is checked out beside the tree
# and both are measured now, in the order A B B A so that a slow stretch of the
# host falls on both sides. The verdict and the exit status are
# `benchmark -compare`'s: non-zero when an end-to-end metric is worse beyond
# its bound or a simulated sched.* count moved. About 5.5 minutes on 2 CPUs.
set -euo pipefail
cd "$(dirname "$0")/.."

base="${1:-HEAD~1}"
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
	echo "bench_ab: base ref '$base' is not in this clone (a shallow checkout? fetch full history, or name a ref that is here)" >&2
	exit 2
fi
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"; git worktree prune' EXIT
git worktree add --detach "$tmp/base" "$base" >/dev/null

run() { # run <checkout> <name>: one full benchmark run, results in $tmp/<name>
	echo "bench_ab: run $2 of $1 ($(git -C "$1" rev-parse --short HEAD))" >&2
	bash "$1/benchmark/run.sh" --seed 42 --seconds 5 --out "$tmp/$2" >"$tmp/$2.log" 2>&1 || {
		tail -n 20 "$tmp/$2.log" >&2
		echo "bench_ab: run $2 failed" >&2
		exit 1
	}
}
run "$tmp/base" a1
run . b1
run . b2
run "$tmp/base" a2
bash benchmark/run.sh --compare "$tmp/a1/result.json,$tmp/a2/result.json" "$tmp/b1/result.json,$tmp/b2/result.json"
