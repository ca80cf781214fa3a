#!/usr/bin/env bash
# bench_ab.sh — a same-box A/B of the benchmark between base-ref (default
# HEAD~1) and this tree. The base is checked out beside the tree in a
# temporary git worktree and both are measured now: a checked-in wall-clock
# baseline cannot gate on a shared box (the same commit reads 28% apart an
# hour later).
#
#   bench_ab.sh [base-ref]
#       The regression gate (`make bench-gate`): the whole benchmark, run in
#       the order A B B A so that a slow stretch of the host falls on both
#       sides, at --seed 42 --seconds 5. The verdict and the exit status are
#       `benchmark -compare`'s: non-zero when an end-to-end metric is worse
#       beyond its bound or a simulated sched.* count moved. About 5.5
#       minutes on 2 CPUs.
#
#   bench_ab.sh --workload W [--pairs N] [--seed S] [base-ref]
#       A claim's pairs: N (default 5) pairs of one workload at BENCHMARK.json's
#       settings (--seconds 15 --trace 0, default --seed 42), the side that
#       runs first alternating pair by pair. scripts/abstat then prints, for
#       each end-to-end metric, both medians, both IQRs, the pairs B (this
#       tree) won and the exact two-sided sign-test p; it exits non-zero when
#       a run failed an operation. The run logs stay in $TMPDIR/bench_ab.*.
set -euo pipefail
cd "$(dirname "$0")/.."

usage() {
	echo "usage: bench_ab.sh [--workload W [--pairs N] [--seed S]] [base-ref]" >&2
	exit 2
}
workload="" pairs=5 seed=42 base=HEAD~1
while [[ $# -gt 0 ]]; do
	case "$1" in
	--workload) workload="${2-}" ;;
	--pairs) pairs="${2-}" ;;
	--seed) seed="${2-}" ;;
	-*) usage ;;
	*)
		base="$1"
		shift
		continue
		;;
	esac
	[[ $# -ge 2 ]] || usage
	shift 2
done
[[ "$pairs" =~ ^[1-9][0-9]*$ ]] || usage
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
	echo "bench_ab: base ref '$base' is not in this clone (a shallow checkout? fetch full history, or name a ref that is here)" >&2
	exit 2
fi

# The worktree goes when the script ends; a claim's logs stay for the record.
tmp="$(mktemp -d "${TMPDIR:-/tmp}/bench_ab.XXXXXX")"
wt="$tmp/base"
trap 'if [[ -n "$workload" ]]; then rm -rf "$wt"; else rm -rf "$tmp"; fi; git worktree prune' EXIT
git worktree add --detach "$wt" "$base" >/dev/null

one() { # one <checkout> <name> <benchmark args...>: one run, output in $tmp/<name>.log, results in $tmp/<name>
	local dir="$1" name="$2"
	shift 2
	echo "bench_ab: run $name of $dir ($(git -C "$dir" rev-parse --short HEAD))" >&2
	bash "$dir/benchmark/run.sh" "$@" --out "$tmp/$name" >"$tmp/$name.log" 2>&1 || {
		tail -n 20 "$tmp/$name.log" >&2
		echo "bench_ab: run $name failed" >&2
		exit 1
	}
}

if [[ -z "$workload" ]]; then
	gate=(--seed 42 --seconds 5)
	one "$wt" a1 "${gate[@]}"
	one . b1 "${gate[@]}"
	one . b2 "${gate[@]}"
	one "$wt" a2 "${gate[@]}"
	bash benchmark/run.sh --compare "$tmp/a1/result.json,$tmp/a2/result.json" "$tmp/b1/result.json,$tmp/b2/result.json"
	exit
fi

echo "bench_ab: $workload, $pairs pairs, seed $seed; A = $base, B = this tree; logs in $tmp" >&2
claim=(--workload "$workload" --seed "$seed" --seconds 15 --trace 0)
as=() bs=()
for ((i = 1; i <= pairs; i++)); do
	if ((i % 2)); then
		one "$wt" "a$i" "${claim[@]}"
		one . "b$i" "${claim[@]}"
	else
		one . "b$i" "${claim[@]}"
		one "$wt" "a$i" "${claim[@]}"
	fi
	as+=("$tmp/a$i.log") bs+=("$tmp/b$i.log")
done
(
	IFS=,
	GOWORK=off go run ./scripts/abstat BENCHMARK.json "${as[*]}" "${bs[*]}"
)
