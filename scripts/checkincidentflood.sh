#!/usr/bin/env bash
# checkincidentflood.sh — every alarm of an alarm flood must reach the
# incident analyzer (`make incident-flood-gate`).
#
# Runs the 64-session tampered-telnetd load (~889K alarms) against an
# in-process daemon FLOOD_RUNS times (default 5) and fails unless, in
# every run, the incident report's alarm count equals the alarm count
# on the load summary line: an alarm delivered to a client but missing
# from the analyzer is left out of the ranked incidents, thinning the
# very storm the list exists to explain.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${FLOOD_RUNS:-5}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/ipdsload" ./cmd/ipdsload

fail=0
for i in $(seq 1 "$RUNS"); do
    out=$("$tmp/ipdsload" -selfserve -workload telnetd \
        -sessions 64 -events 1000000 -tamper 97 -incidents)
    summary=$(echo "$out" | grep -E '^-- [^ ]*: [0-9]+ sessions, ' | head -n 1)
    line=$(echo "$out" | grep '^-- incidents: ' | head -n 1)
    delivered=$(echo "$summary" | sed -n 's/.* (\([0-9][0-9]*\) alarms, .*/\1/p')
    analyzed=$(echo "$line" | sed -n 's/^-- incidents: \([0-9][0-9]*\) alarm(s) .*/\1/p')
    if [ -z "$delivered" ] || [ -z "$analyzed" ]; then
        echo "checkincidentflood: failed to parse the load report:" >&2
        echo "$summary" >&2
        echo "$line" >&2
        exit 1
    fi
    echo "checkincidentflood: run $i: $delivered alarms delivered, ${line#-- incidents: }"
    if [ "$analyzed" -ne "$delivered" ]; then
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "checkincidentflood: FAIL — the analyzer missed delivered alarms under the flood" >&2
    exit 1
fi
echo "checkincidentflood: every delivered alarm analyzed in $RUNS runs"
