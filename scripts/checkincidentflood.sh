#!/usr/bin/env bash
# checkincidentflood.sh — the incident stage must keep up with an alarm
# flood (`make incident-flood-gate`).
#
# Runs the 64-session tampered-telnetd load (~889K alarms) against an
# in-process daemon FLOOD_RUNS times (default 5) and fails unless every
# run's incident report shows 0 dropped: an alarm the stage's queue had
# no room for is left out of the ranked incidents, so drops under the
# very storm the list exists to explain thin it silently.
set -euo pipefail
cd "$(dirname "$0")/.."

RUNS="${FLOOD_RUNS:-5}"

tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
go build -o "$tmp/ipdsload" ./cmd/ipdsload

fail=0
for i in $(seq 1 "$RUNS"); do
    line=$("$tmp/ipdsload" -selfserve -workload telnetd \
        -sessions 64 -events 1000000 -tamper 97 -incidents |
        grep '^-- incidents: ' | head -n 1)
    dropped=$(echo "$line" | sed -n 's/.*, \([0-9][0-9]*\) dropped).*/\1/p')
    if [ -z "$dropped" ]; then
        echo "checkincidentflood: failed to parse the incident report: $line" >&2
        exit 1
    fi
    echo "checkincidentflood: run $i: ${line#-- incidents: }"
    if [ "$dropped" -ne 0 ]; then
        fail=1
    fi
done
if [ "$fail" -ne 0 ]; then
    echo "checkincidentflood: FAIL — the incident stage dropped alarms under the flood" >&2
    exit 1
fi
echo "checkincidentflood: no alarm dropped in $RUNS runs"
