GO ?= go

.PHONY: build test vet race bench bench-kernel alloc-gate kernel-gate forensics-gate incident-gate incident-flood-gate scale-gate fleet-gate trace-gate fuzz-gate ci report docscheck race-parallel race-server smoke-load

build:
	$(GO) build ./...

# go vet ./... skips the ignore-tagged generator script; vet it by name
# so it keeps compiling.
vet:
	$(GO) vet ./...
	$(GO) vet scripts/genfuzzcorpus.go

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The parallel compile path under the race detector, by name: the
# deterministic fan-out and cache tests must stay race-clean.
race-parallel:
	$(GO) test -race ./internal/pipeline -run Parallel
	$(GO) test -race ./internal/tcache

# Docs gates: godoc coverage of the exported API, and the architecture
# walkthrough and performance handbook staying linked from the README.
docscheck:
	./scripts/checkdocs.sh
	@grep -q 'docs/ARCHITECTURE.md' README.md || \
		{ echo "docscheck: README.md does not link docs/ARCHITECTURE.md" >&2; exit 1; }

# The daemon stack under the race detector, by name: wire protocol,
# server lifecycle and the multi-session end-to-end verification.
race-server:
	$(GO) test -race ./internal/wire ./internal/ipdsclient
	$(GO) test -race ./internal/server -run 'Test'

# Short load-generator run against an in-process daemon: 8 sessions
# replaying a tampered telnetd trace, exercising the full client →
# wire → server → alarm path in one command.
smoke-load:
	$(GO) run ./cmd/ipdsload -selfserve -workload telnetd -sessions 8 -events 20000 -tamper 97

# One-iteration benchmark pass: a smoke check that every benchmark still
# compiles and runs, not a measurement.
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Hot-path measurement: the verification kernel (per-event and batched,
# with and without the flight recorder) and the full in-process serve
# loop, with allocation reporting.
bench-kernel:
	$(GO) test -run '^$$' -bench 'BenchmarkOnBranch|BenchmarkOnBatch' -benchmem ./internal/ipds
	$(GO) test -run '^$$' -bench 'BenchmarkServeSession' -benchmem ./internal/server

# Allocation-regression gate: kernel benchmarks — including the
# recorder-enabled batch kernel — must report 0 allocs/op.
alloc-gate:
	./scripts/checkallocs.sh

# Kernel-regression gate: the batched verification kernel's and the
# batch decoder's best-of ns/event (BenchmarkOnBatch,
# BenchmarkOnBatchRecorder, BenchmarkOnBatchPerf,
# BenchmarkDecodeBatchInto) must stay
# within KERNEL_TOL percent (default 15) of a base commit built from a
# git worktree and run alternately on the same host (KERNEL_BASE,
# default the merge base with main; KERNEL_COUNT runs each, default 6).
kernel-gate:
	./scripts/checkkernel.sh

# Forensics gate: the tampered-trace end-to-end run under the race
# detector. A live daemon session must produce alarms whose forensic
# contexts (recent window, stack, BSV state) are byte-identical to an
# in-process replay, and per-session telemetry must flush cleanly on
# idle-eviction and drain.
forensics-gate:
	$(GO) test -race -run 'TestForensics|TestDebugSessions|TestEvictionFlushesSessionTelemetry|TestDrainFlushesSessionTelemetry' ./internal/server
	$(GO) test -race -run 'TestRecorder|TestAlarmContext|TestEventSinkBatchedEquivalence' ./internal/ipds

# Incident gate: the seeded-corruption end-to-end run under the race
# detector. A persistent single-site corruption with a mid-run onset,
# buried in tamper noise across 4 sessions, must come back from the
# live daemon as the #1 ranked incident, fold the alarm flood by at
# least 95%, and match an in-process replay of the same streams field
# for field; the incident package's own determinism and detector tests
# ride along.
incident-gate:
	$(GO) test -race -run 'TestIncident' ./internal/server
	$(GO) test -race ./internal/incident

# Incident flood gate: every alarm of the 64-session tampered telnetd
# load (~889K alarms) must reach the incident analyzer. FLOOD_RUNS
# (default 5) in-process runs must each report as many analyzed alarms
# as the load summary line reports delivered.
incident-flood-gate:
	./scripts/checkincidentflood.sh

# Scale gate: the serve path must actually scale. Runs the 64-session
# load in SCALE_PAIRS (default 7) alternating pairs — under
# GOMAXPROCS=1, then one P per core — and fails unless the median
# multi/single ratio reaches SCALE_FLOOR (default 1.5x).
# Skips on single-core hosts, where there is nothing to scale onto.
scale-gate:
	./scripts/checkscale.sh

# Fleet gate: the multi-node path must lose nothing. Three in-process
# nodes behind the router serve 24 sessions while one node drains
# mid-run; every session must finish fully acked with alarms and the
# incident fold byte-identical to a single uninterrupted replay, and a
# cold node must serve an image it only holds via a registry fetch
# (zero recompiles). The fleet, registry and redial unit tests ride
# along, all under -race.
fleet-gate:
	$(GO) test -race ./internal/fleet ./internal/registry
	$(GO) test -race -run 'TestRedial' ./internal/ipdsclient

# Trace gate: the wire-level trace plane end to end. A routed 3-node
# run with every batch stamped (-trace-sample 1) must commit exactly
# one span per verified batch, each chain complete and monotonic
# client → router → core → ack flush; the daemon-side span tests and
# the tsdb metric-history tests ride along, all under -race. Untraced
# traffic's zero-alloc invariant on the session serve loop — decode,
# verify, reply encoding and every 64th batch's span record and its
# commit into the wait histogram included — is held separately by
# alloc-gate (BenchmarkVerifyBatchIncident in scripts/checkallocs.sh).
trace-gate:
	$(GO) test -race -run 'TestTraceGate' ./internal/fleet
	$(GO) test -race -run 'TestTrace|TestSpan' ./internal/server
	$(GO) test -race ./internal/obs/tsdb

# Fuzz gate: each native fuzz target runs for FUZZTIME (default 10s)
# from its committed seed corpus (testdata/fuzz/<target>): the wire
# frame decoder, the table-image decoder (typed refusals, bounded
# allocation, accepted images re-marshal byte-identically) and the
# differential kernel fuzzer (baked OnBatch/OnBranch against the
# linked-list oracle under single-branch flips; zero alarms unflipped),
# plus the other untrusted decoders: compile-cache blobs (accepted
# blobs re-encode byte-identically) and textual event lines (accepted
# lines round-trip through Event.Text), and the client's delta-coded
# alarm log (adds, forks and table overflows decode back to a plain
# slice model). A failing input is written under testdata/fuzz; commit it as a seed
# alongside the fix.
FUZZTIME ?= 10s
fuzz-gate:
	$(GO) test -run '^$$' -fuzz '^FuzzDecode$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzUnmarshal$$' -fuzztime $(FUZZTIME) ./internal/tables
	$(GO) test -run '^$$' -fuzz '^FuzzKernel$$' -fuzztime $(FUZZTIME) ./internal/ipds
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBlob$$' -fuzztime $(FUZZTIME) ./internal/tcache
	$(GO) test -run '^$$' -fuzz '^FuzzParseEventText$$' -fuzztime $(FUZZTIME) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzAlarmLog$$' -fuzztime $(FUZZTIME) ./internal/ipdsclient

# Full gate: what a PR must pass.
ci: vet build docscheck race race-parallel race-server smoke-load bench alloc-gate kernel-gate forensics-gate incident-gate incident-flood-gate scale-gate fleet-gate trace-gate fuzz-gate

# Observability-driven per-workload table, printed to stdout.
report:
	$(GO) run ./cmd/report -obs
