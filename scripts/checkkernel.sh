#!/usr/bin/env bash
# checkkernel.sh — kernel regression gate (`make kernel-gate`).
#
# Benchmarks the per-event hot path against a base commit on the same
# host: BenchmarkOnBatch (the baked slot-record verification kernel),
# BenchmarkOnBatchRecorder (the same with the daemon's default flight
# recorder), BenchmarkOnBatchPerf (the kernel, recorder on, over the
# sshd+httpd streams perfbench serves, as 512-event batches) and
# BenchmarkDecodeBatchInto (internal/wire's batch decoder over
# perfbench-shaped 512-event frames). The base commit's
# internal/ipds and internal/wire test binaries are built from a
# temporary `git worktree` at KERNEL_BASE (default: the merge base of
# HEAD and main), the working tree's from the checkout; the two run
# alternately, KERNEL_COUNT times each (default 6). The gate fails when
# the change's best-of ns/event exceeds the base's best-of by more than
# KERNEL_TOL percent (default 15) on any benchmark; one the base does
# not have yet is skipped. Best-of-N on both sides, interleaved, is the
# estimator: a single noisy run on a loaded host cannot flake it, and a
# host that is uniformly slower or faster moves both sides alike.
#
#   ./scripts/checkkernel.sh
#   KERNEL_BASE=HEAD~3 KERNEL_COUNT=10 ./scripts/checkkernel.sh
set -euo pipefail
cd "$(dirname "$0")/.."

TOL="${KERNEL_TOL:-15}"
COUNT="${KERNEL_COUNT:-6}"
BASE="${KERNEL_BASE:-$(git merge-base HEAD main)}"
BENCHES="BenchmarkOnBatch BenchmarkOnBatchRecorder BenchmarkOnBatchPerf BenchmarkDecodeBatchInto"
# Benchmark pattern per package under internal/.
declare -A PATTERN=(
	[ipds]='^BenchmarkOnBatch(Recorder|Perf)?$'
	[wire]='^BenchmarkDecodeBatchInto$'
)

work=$(mktemp -d)
cleanup() {
	git worktree remove --force "$work/base" >/dev/null 2>&1 || true
	rm -rf "$work"
}
trap cleanup EXIT

git worktree add --detach --quiet "$work/base" "$BASE"
for p in "${!PATTERN[@]}"; do
	(cd "$work/base" && go test -c -o "$work/base-$p.test" "./internal/$p")
	go test -c -o "$work/change-$p.test" "./internal/$p"
done

# run SIDE DIR: one pass of every benchmark, appended to $work/SIDE.out
# with each line tagged by side.
run() {
	for p in "${!PATTERN[@]}"; do
		(cd "$2/internal/$p" && "$work/$1-$p.test" -test.run '^$' \
			-test.bench "${PATTERN[$p]}" -test.count 1) |
			sed "s/^/$1 /" | tee -a "$work/$1.out"
	done
}
for i in $(seq "$COUNT"); do
	run base "$work/base"
	run change "$PWD"
done

fail=0
for b in $BENCHES; do
	read -r base change < <(cat "$work/base.out" "$work/change.out" | awk -v b="$b" '
		$2 == b || index($2, b "-") == 1 {
			for (i = 3; i <= NF; i++) if ($i == "ns/event") v = $(i - 1)
			if (!($1 in best) || v + 0 < best[$1] + 0) best[$1] = v
		}
		END { print (("base" in best) ? best["base"] : "-"), (("change" in best) ? best["change"] : "-") }
	')
	if [ "$base" = "-" ]; then
		echo "checkkernel: $b missing at base $BASE; skipped"
		continue
	fi
	if [ "$change" = "-" ]; then
		echo "checkkernel: FAIL — $b missing from the working tree" >&2
		fail=1
		continue
	fi
	if awk -v got="$change" -v base="$base" -v tol="$TOL" -v b="$b" 'BEGIN {
		limit = base * (1 + tol / 100)
		printf "checkkernel: %s best of %d: change %.2f ns/event, base %.2f, limit %.2f (+%s%%)\n",
			b, '"$COUNT"', got, base, limit, tol
		exit !(got + 0 <= limit)
	}'; then
		continue
	fi
	echo "checkkernel: FAIL — $b regressed past the tolerance against $BASE" >&2
	fail=1
done
[ "$fail" = 0 ] || exit 1
echo "checkkernel: batched kernel and batch decoder hold the base commit's speed"
