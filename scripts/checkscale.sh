#!/usr/bin/env bash
# checkscale.sh — the serve path's scaling gate (`make scale-gate`).
#
# Runs the 64-session tampered-telnetd load against an in-process
# daemon in SCALE_PAIRS (default 7) alternating pairs: under
# GOMAXPROCS=1, so every session goroutine — and the load generator —
# shares one P, then with one P per core (the default). Each pair gives
# one multi/single throughput ratio, and the gate takes the median of
# them: on a shared host one run can land in a slow stretch, so a
# single pair swings by half the floor, while the alternation exposes
# both configurations to the same stretches. The median ratio must
# reach SCALE_FLOOR (default 1.5x) — a deliberately conservative floor:
# it catches "the serve path stopped scaling" without flaking on loaded
# CI hosts. On a single-core host there is nothing to scale onto and
# the gate skips (the serve path still runs there — same code path —
# it just cannot be faster).
set -euo pipefail
cd "$(dirname "$0")/.."

cores=$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)
if [ "$cores" -le 1 ]; then
    echo "checkscale: single-core host; nothing to scale onto, skipping"
    exit 0
fi

FLOOR="${SCALE_FLOOR:-1.5}"
PAIRS="${SCALE_PAIRS:-7}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/ipdsload" ./cmd/ipdsload

# One run: 64 sessions x 1000000 events, best of 3 repeats (one to two
# seconds per repeat on one P). $1 is the GOMAXPROCS to run under, or
# empty for the default.
run_load() {
    env ${1:+GOMAXPROCS=$1} "$tmp/ipdsload" -selfserve -workload telnetd \
        -sessions 64 -events 1000000 -tamper 97 -repeat 3 |
        sed -n 's/^-- throughput: \([0-9][0-9]*\) events\/sec aggregate$/\1/p'
}

ratios=()
for i in $(seq 1 "$PAIRS"); do
    single=$(run_load 1)
    multi=$(run_load "")
    if [ -z "$single" ] || [ -z "$multi" ]; then
        echo "checkscale: failed to parse ipdsload throughput output" >&2
        exit 1
    fi
    r=$(awk -v s="$single" -v m="$multi" 'BEGIN { printf "%.3f", m / s }')
    echo "checkscale: pair $i: GOMAXPROCS=1 ${single} events/sec, ${cores}-core ${multi} events/sec, ratio ${r}x"
    ratios+=("$r")
done

median=$(printf '%s\n' "${ratios[@]}" | sort -g |
    awk '{ v[NR] = $1 } END { if (NR % 2) print v[(NR + 1) / 2]; else printf "%.3f\n", (v[NR / 2] + v[NR / 2 + 1]) / 2 }')
spread=$(printf '%s\n' "${ratios[@]}" | sort -g | awk 'NR == 1 { lo = $1 } { hi = $1 } END { printf "%.2f-%.2f", lo, hi }')
echo "checkscale: median multiplier ${median}x over ${PAIRS} pairs (spread ${spread}x, floor ${FLOOR}x)"
if ! awk -v r="$median" -v f="$FLOOR" 'BEGIN { exit !(r >= f) }'; then
    echo "checkscale: FAIL — the serve path does not clear the scaling floor" >&2
    exit 1
fi
echo "checkscale: the serve path clears the scaling floor"
