# Development targets. `make verify` is the full gate: build, vet, and
# the test suite under the race detector — the detector matters because
# the experiment harness fans simulator machines across goroutines.

GO ?= go

.PHONY: all build test verify bench perf compile-smoke epoch-smoke checkpoint-smoke alewife256-smoke

all: verify

build:
	$(GO) build ./...

test:
	$(GO) test ./...

verify:
	$(GO) build ./... && $(GO) vet ./... && $(GO) test -race ./...

bench:
	$(GO) test -bench . -benchtime 1x -run xxx .

# Measure simulator throughput (reference loop vs fast-forward +
# parallel harness, compiled tier off and on) on the full Table 3 grid;
# writes BENCH_simperf.json.
perf:
	$(GO) run ./cmd/april-bench -sizes paper -perf

# Quick gate for the compiled execution tier: the small grid with the
# compiler off and on (results must stay bit-identical), plus the
# steady-state allocation pin with the translator armed.
compile-smoke:
	$(GO) run ./cmd/april-bench -sizes test -compile=false
	$(GO) run ./cmd/april-bench -sizes test -compile -compile-threshold 1
	$(GO) test -run CompiledSteadyStateAllocRate -v ./internal/sim/

# Quick gate for the epoch engine: the small grid with epochs on and
# off (results must stay bit-identical), the full differential matrix
# under the race detector, and the steady-state allocation pin with
# windows armed.
epoch-smoke:
	$(GO) run ./cmd/april-bench -sizes test
	$(GO) run ./cmd/april-bench -sizes test -epoch=false
	$(GO) test -race -run Epoch -v ./internal/sim/
	$(GO) test -run EpochSteadyStateAllocRate -v ./internal/sim/

# Quick gate for checkpoint/restore: kill a checkpointed run mid-flight,
# restore the newest image, and require bit-identical simulated stats;
# then sabotage a run at a known cycle and require the bisector to pin
# it exactly; then the snapshot differential matrix under race.
checkpoint-smoke:
	$(GO) build -o /tmp/april ./cmd/april
	/tmp/april -n 64 -alewife -stats-json examples/progs/queens.mt | tail -1 > /tmp/ckpt-clean.json
	rm -rf /tmp/ckpt-smoke
	/tmp/april -n 64 -alewife -checkpoint-every 20000 \
		-checkpoint-dir /tmp/ckpt-smoke -stats-json examples/progs/queens.mt & \
	pid=$$!; for i in $$(seq 1 300); do \
		ls /tmp/ckpt-smoke/ckpt-*.img >/dev/null 2>&1 && break; sleep 0.1; done; \
	kill -KILL $$pid 2>/dev/null || true
	/tmp/april -restore "$$(ls /tmp/ckpt-smoke/ckpt-*.img | tail -1)" -stats-json \
		| tail -1 | diff - /tmp/ckpt-clean.json
	rm -rf /tmp/ckpt-bisect
	/tmp/april -n 8 -alewife -sabotage 150000 -max-cycles 250000 -checkpoint-every 20000 \
		-checkpoint-keep 20 -checkpoint-dir /tmp/ckpt-bisect examples/progs/queens.mt || true
	/tmp/april -bisect /tmp/ckpt-bisect | grep -q '^first violating cycle: 150000$$'
	$(GO) test -race -run Snapshot -v ./internal/sim/

# Quick gate for the work-proportional run loop at its fullest: 256-node
# ALEWIFE queens on the fast loop and on the -reference oracle must
# print identical stats.
alewife256-smoke:
	$(GO) build -o /tmp/april ./cmd/april
	/tmp/april -n 256 -alewife -mem 2048 -stats-json examples/progs/queens.mt | tail -1 > /tmp/aw256-fast.json
	/tmp/april -n 256 -alewife -mem 2048 -reference -stats-json examples/progs/queens.mt | tail -1 > /tmp/aw256-ref.json
	diff /tmp/aw256-fast.json /tmp/aw256-ref.json
