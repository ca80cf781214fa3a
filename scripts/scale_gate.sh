#!/usr/bin/env bash
# scale_gate.sh <small-limit> <large-limit> [base-ref] — the scaling gate (`make scale-gate`): sssp on a
# road graph, one worker against two, and an oversubscribed fleet of two
# workers per CPU against two, on hdcps-bench's small (road 120x120) and
# large (road 240x240, the benchmark's sssp-road input) scales. Three
# conditions per graph, all on this tree's medians of 25 verified solves:
#
#   ratio     two workers take at most <limit> times one worker's time
#             (hdcps-bench -scale-gate; the Makefile passes the limits and
#             keeps their history);
#   oversubscribed
#             two workers per CPU (four on a 2-CPU box) take at most twice
#             two workers' time (hdcps-bench -scale-gate, a constant: the
#             exit of the ROADMAP item "Reach a stalled worker's backlog:
#             steal-when-behind and the oversubscribed fleet"; the base's
#             binary may not run this cell);
#   absolute  neither the one- nor the two-worker median is slower than
#             base-ref's (default HEAD~1), measured now on this box by
#             base-ref's own hdcps-bench, by more than the 25%
#             BENCHMARK.json allows a timing. A ratio says
#             nothing about a change that slows both worker counts, or that
#             speeds up one worker and leaves two where they were, so the
#             ratio limit alone cannot be the gate.
#
# Skips, saying so, on fewer than two CPUs. Wall-clock: run it alone.
set -euo pipefail
cd "$(dirname "$0")/.."

small_limit="${1:?usage: scale_gate.sh <small-limit> <large-limit> [base-ref]}"
large_limit="${2:?usage: scale_gate.sh <small-limit> <large-limit> [base-ref]}"
base="${3:-HEAD~1}"
if ! git rev-parse --verify --quiet "$base^{commit}" >/dev/null; then
	echo "scale_gate: base ref '$base' is not in this clone (a shallow checkout? fetch full history, or name a ref that is here)" >&2
	exit 2
fi
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"; git worktree prune' EXIT
git worktree add --detach "$tmp/base" "$base" >/dev/null
go build -o "$tmp/head-bench" ./cmd/hdcps-bench
(cd "$tmp/base" && go build -o "$tmp/base-bench" ./cmd/hdcps-bench)

medians() { # the "1 worker X ms, 2 workers Y ms" of a gate report, as "X Y"
	sed -n 's/.*1 worker \([0-9.]*\) ms, 2 workers \([0-9.]*\) ms.*/\1 \2/p' <<<"$1"
}

gate() { # gate <scale> <ratio limit>
	local out b1 b2 h1 h2
	# The base only lends its medians; its ratio is not this tree's to meet.
	out="$("$tmp/base-bench" -scale-gate 1000 -scale "$1" -reps 25 2>&1)"
	echo "base: $out" >&2
	read -r b1 b2 <<<"$(medians "$out")"
	out="$("$tmp/head-bench" -scale-gate "$2" -scale "$1" -reps 25 2>&1)" || {
		echo "head: $out" >&2
		exit 1
	}
	echo "head: $out" >&2
	if [[ -z "$b1" ]]; then
		return 0 # skipped: fewer than two CPUs
	fi
	read -r h1 h2 <<<"$(medians "$out")"
	awk -v b1="$b1" -v b2="$b2" -v h1="$h1" -v h2="$h2" 'BEGIN { exit !(h1 <= 1.25 * b1 && h2 <= 1.25 * b2) }' || {
		echo "scale_gate: $1: medians $h1 / $h2 ms against the base's $b1 / $b2 ms: slower by more than 25%" >&2
		exit 1
	}
}
gate small "$small_limit"
gate large "$large_limit"
