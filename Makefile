GO ?= go

.PHONY: build test vet race bench bench-kernel alloc-gate kernel-gate forensics-gate incident-gate incident-flood-gate scale-gate fleet-gate trace-gate fuzz-gate benchtable ci report docscheck race-parallel compile-baseline race-server smoke-load serve-baseline serve-baseline-pr5 serve-baseline-pr7 serve-baseline-pr10

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The parallel compile path under the race detector, by name: the
# deterministic fan-out and cache tests must stay race-clean.
race-parallel:
	$(GO) test -race ./internal/pipeline -run Parallel
	$(GO) test -race ./internal/tcache

# Docs gates: godoc coverage of the exported API, the architecture
# walkthrough and performance handbook staying linked from the README,
# and the handbook's generated tables staying in sync with the
# committed BENCH_pr*.json baselines.
docscheck:
	./scripts/checkdocs.sh
	@grep -q 'docs/ARCHITECTURE.md' README.md || \
		{ echo "docscheck: README.md does not link docs/ARCHITECTURE.md" >&2; exit 1; }
	$(GO) run scripts/benchtable.go -check docs/PERFORMANCE.md

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

# Incident flood gate: the incident stage must keep up with the
# 64-session tampered telnetd load (~889K alarms). FLOOD_RUNS (default
# 5) in-process runs must each report 0 alarms dropped from the
# incident queue.
incident-flood-gate:
	./scripts/checkincidentflood.sh

# Scale gate: the per-core serve path must actually scale. Runs the
# 64-session load in SCALE_PAIRS (default 7) alternating pairs —
# pinned to 1 verifier, then one verifier per core — and fails unless
# the median multi/single ratio reaches SCALE_FLOOR (default 1.5x).
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
# traffic's zero-alloc invariant from the verifier on — every 64th
# batch's span record and its commit into the wait histograms included
# — is held separately by alloc-gate (BenchmarkVerifyBatchIncident in
# scripts/checkallocs.sh); no gate bench runs the reader.
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

# Observability-driven per-workload table + JSON baseline.
report:
	$(GO) run ./cmd/report -obs -baseline BENCH_pr1.json

# Compile-time baseline across sequential/parallel/warm-cache modes.
compile-baseline:
	$(GO) run ./cmd/perfsim -compile -baseline BENCH_pr2.json

# Serving-throughput baseline: events/sec at 1, 8 and 64 sessions
# against an in-process per-core daemon, best-of-5 per config, each
# row carrying the per-core breakdown (events, parks, stalls, ring
# high-water per verifier). The final row is the 64-session load
# pinned to a single verifier — the control the multi-core multiplier
# is computed against (see docs/PERFORMANCE.md). Earlier generations'
# committed files (BENCH_pr3/4/5.json) stay as the trajectory.
serve-baseline:
	rm -f BENCH_pr6.json
	$(GO) run ./cmd/ipdsload -selfserve -workload telnetd -sessions 1 -events 5000000 -tamper 97 -repeat 5 -json BENCH_pr6.json
	$(GO) run ./cmd/ipdsload -selfserve -workload telnetd -sessions 8 -events 1000000 -tamper 97 -repeat 5 -json BENCH_pr6.json
	$(GO) run ./cmd/ipdsload -selfserve -workload telnetd -sessions 64 -events 100000 -tamper 97 -repeat 5 -json BENCH_pr6.json
	$(GO) run ./cmd/ipdsload -selfserve -workload telnetd -sessions 64 -events 100000 -tamper 97 -repeat 5 -verifiers 1 -json BENCH_pr6.json

# PR7 serving baseline: the fleet router's price. Each load point is
# recorded twice back-to-back — a direct -selfserve control row, then
# the same load through an in-process router over 3 nodes — at 1, 8
# and 64 sessions, best-of-5 per config. Routed rows carry routed=true
# and nodes=3; the bench table renders the direct/routed pairs side by
# side, so the splice overhead is judged against a paired same-host
# control.
serve-baseline-pr7:
	rm -f BENCH_pr7.json
	$(GO) run ./cmd/ipdsload -selfserve -workload telnetd -sessions 1 -events 5000000 -tamper 97 -repeat 5 -json BENCH_pr7.json
	$(GO) run ./cmd/ipdsload -selfserve -router -nodes 3 -workload telnetd -sessions 1 -events 5000000 -tamper 97 -repeat 5 -json BENCH_pr7.json
	$(GO) run ./cmd/ipdsload -selfserve -workload telnetd -sessions 8 -events 1000000 -tamper 97 -repeat 5 -json BENCH_pr7.json
	$(GO) run ./cmd/ipdsload -selfserve -router -nodes 3 -workload telnetd -sessions 8 -events 1000000 -tamper 97 -repeat 5 -json BENCH_pr7.json
	$(GO) run ./cmd/ipdsload -selfserve -workload telnetd -sessions 64 -events 100000 -tamper 97 -repeat 5 -json BENCH_pr7.json
	$(GO) run ./cmd/ipdsload -selfserve -router -nodes 3 -workload telnetd -sessions 64 -events 100000 -tamper 97 -repeat 5 -json BENCH_pr7.json

# PR10 serving baseline: the trace plane's price and product. The
# 8-session load point is recorded three times back-to-back — an
# untraced control, the same load stamping every 64th batch (the
# client stamps copies of frames from the same pre-encoded block the
# control replays), and the stamped load routed over 3 nodes. Traced rows carry trace_spans and
# the span-derived e2e_p50_ns/e2e_p99_ns the bench table renders.
serve-baseline-pr10:
	rm -f BENCH_pr10.json
	$(GO) run ./cmd/ipdsload -selfserve -workload telnetd -sessions 8 -events 1000000 -tamper 97 -repeat 5 -json BENCH_pr10.json
	$(GO) run ./cmd/ipdsload -selfserve -workload telnetd -sessions 8 -events 1000000 -tamper 97 -repeat 5 -trace-sample 64 -json BENCH_pr10.json
	$(GO) run ./cmd/ipdsload -selfserve -router -nodes 3 -workload telnetd -sessions 8 -events 1000000 -tamper 97 -repeat 5 -trace-sample 64 -json BENCH_pr10.json

# Regenerate the benchmark-trajectory table in docs/PERFORMANCE.md
# from the committed BENCH_pr*.json files.
benchtable:
	$(GO) run scripts/benchtable.go -w docs/PERFORMANCE.md

# PR5 serving baseline: same workload points as serve-baseline, with
# the flight recorder and forensic alarm-context delivery active (the
# daemon default). Rows carry alarm_ctxs and the daemon-side
# verify_p50/p99/p99.9 batch-verify quantiles. Each config is recorded
# twice back-to-back — a forensics=false control row, then the
# forensics row — and each run is best-of-5 (-repeat): the forensics
# budget (< 5%) is judged against the paired same-host control, which
# is the PR4 serve path re-measured under identical conditions;
# BENCH_pr4.json stays as the historical anchor.
serve-baseline-pr5:
	rm -f BENCH_pr5.json
	$(GO) run ./cmd/ipdsload -selfserve -forensics=false -workload telnetd -sessions 1 -events 5000000 -tamper 97 -repeat 5 -json BENCH_pr5.json
	$(GO) run ./cmd/ipdsload -selfserve -workload telnetd -sessions 1 -events 5000000 -tamper 97 -repeat 5 -json BENCH_pr5.json
	$(GO) run ./cmd/ipdsload -selfserve -forensics=false -workload telnetd -sessions 8 -events 1000000 -tamper 97 -repeat 5 -json BENCH_pr5.json
	$(GO) run ./cmd/ipdsload -selfserve -workload telnetd -sessions 8 -events 1000000 -tamper 97 -repeat 5 -json BENCH_pr5.json
	$(GO) run ./cmd/ipdsload -selfserve -forensics=false -workload telnetd -sessions 64 -events 100000 -tamper 97 -repeat 5 -json BENCH_pr5.json
	$(GO) run ./cmd/ipdsload -selfserve -workload telnetd -sessions 64 -events 100000 -tamper 97 -repeat 5 -json BENCH_pr5.json
