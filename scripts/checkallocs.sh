#!/bin/sh
# checkallocs.sh — allocation-regression gate for the IPDS hot path.
#
# Runs the kernel benchmarks with -benchmem and fails if any of them
# reports a nonzero allocs/op: the verification kernel must stay
# allocation-free per event on a warmed machine through both of its
# entry points — batched OnBatch (with and without the flight recorder)
# and OnBranch, its single-event case. (The AllocsPerRun unit gates in internal/ipds and
# internal/wire cover the same property under `make test`; this script
# holds the benchmarks themselves to it, so a regression shows up even
# if someone relaxes the unit tests.) Two serve-path benchmarks ride
# along: a session's serve loop with the incident stage on, and the
# client's alarm ingest (decode, intern, record, seal), whose delta-coded log
# allocates one 16 KiB chunk per several thousand alarms and one sealed
# block per four chunks, and so must amortise to 0 allocs/op. The client's ack ingest (decode, retire the
# covered mark, bin the round trip into a fixed histogram) must not
# allocate at all.
set -e

out=$(go test -run '^$' -bench 'BenchmarkOnBranch|BenchmarkOnBatch' -benchtime 100x -benchmem ./internal/ipds)
echo "$out"

# The recorder-enabled batch kernel must be part of the gate: forensics
# on the serve path is only free if it stays allocation-free too.
echo "$out" | grep -q '^BenchmarkOnBatchRecorder' || {
	echo "checkallocs: BenchmarkOnBatchRecorder missing from gate output" >&2
	exit 1
}

# A session's serve loop with the incident stage enabled: decoding,
# verifying, encoding and writing replies, feeding the incident
# analyzer, and committing every 64th batch's span record into the wait
# histogram, must not cost a single allocation per batch.
srvout=$(go test -run '^$' -bench 'BenchmarkVerifyBatchIncident' -benchtime 2000x -benchmem ./internal/server)
echo "$srvout"
echo "$srvout" | grep -q '^BenchmarkVerifyBatchIncident' || {
	echo "checkallocs: BenchmarkVerifyBatchIncident missing from gate output" >&2
	exit 1
}
# The client's alarm and ack paths: neither an alarm flood nor a long
# run of acks may cost the reader an allocation per frame. The alarm
# run is long enough to seal at least 4 blocks (DEFLATE-compressed
# 64 KiB runs of the log), so sealing is inside the gate too.
alarmout=$(go test -run '^$' -bench 'BenchmarkClientAlarmIngest' -benchtime 200000x -benchmem ./internal/ipdsclient)
ackout=$(go test -run '^$' -bench 'BenchmarkClientAckIngest' -benchtime 20000x -benchmem ./internal/ipdsclient)
cliout=$(printf '%s\n%s\n' "$alarmout" "$ackout")
echo "$cliout"
for b in BenchmarkClientAlarmIngest BenchmarkClientAckIngest; do
	echo "$cliout" | grep -q "^$b" || {
		echo "checkallocs: $b missing from gate output" >&2
		exit 1
	}
done
echo "$cliout" | awk '
/^BenchmarkClientAlarmIngest/ {
	for (i = 2; i < NF; i++) if ($(i+1) == "seals") seals = $i
}
END {
	if (seals + 0 < 4) {
		printf "checkallocs: BenchmarkClientAlarmIngest sealed %d blocks (want at least 4)\n", seals > "/dev/stderr"
		exit 1
	}
}
'
out=$(printf '%s\n%s\n%s\n' "$out" "$srvout" "$cliout")

echo "$out" | awk '
/^Benchmark/ {
	allocs = $(NF-1)
	if (allocs + 0 != 0) {
		printf "checkallocs: %s reports %s allocs/op (want 0)\n", $1, allocs > "/dev/stderr"
		bad = 1
	}
}
END { exit bad }
'
echo "checkallocs: kernel and serve-path benchmarks are allocation-free"
