GO ?= go

.PHONY: all build test lint bench-smoke shard-check

all: build

build:
	$(GO) build ./...

# test mirrors CI's test step: the root module under -race, then the
# benchmark's own module (cmd/pdsibench/go.mod), which ./... skips.
test:
	$(GO) test -race ./...
	cd cmd/pdsibench && $(GO) test .

# lint mirrors the blocking lint steps in CI exactly: formatting, vet,
# and the repo's own determinism/invariant analyzers (cmd/pdsilint),
# with per-analyzer wall times reported so a regressing analyzer is
# visible. CI sets LINT_BUDGET to gate total lint time; locally it
# defaults to 0 (disabled) since machine speeds vary. Pinned
# third-party tools (staticcheck, govulncheck, shadow) run in CI only,
# because they need a network fetch to install.
LINT_BUDGET ?= 0
lint:
	@out=$$(gofmt -l .); \
	if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; \
		echo "$$out" >&2; \
		exit 1; \
	fi
	$(GO) vet ./...
	$(GO) run ./cmd/pdsilint -time -budget $(LINT_BUDGET) ./...

bench-smoke:
	$(GO) test -run=NONE -bench=GlobalIndex -benchtime=1x ./internal/core/...
	$(GO) test -run=NONE -bench='Quantile|OpTimer' -benchtime=1x ./internal/obs/...
	$(GO) test -run=NONE -bench='EngineSchedule|EngineCancelHeavy' -benchtime=1x ./internal/sim/...
	$(GO) test -run=NONE -bench=BB -benchtime=1x ./internal/bb/...
	$(GO) test -run=NONE -bench=Rebuild -benchtime=1x ./internal/pfs/... ./internal/workload/...
	$(GO) test -run=NONE -bench=Declustered -benchtime=1x ./internal/placement/...

# shard-check enforces the sharded engine's contract: the simulation
# experiments print the same stdout and write byte-identical metrics,
# trace, latency report and series CSV at 1 shard and at 4 (the 4-shard
# run on 4 threads). The greps fail the check if the runs never reached
# the cluster, the burst buffer or the rebuild path. A 1 s series window
# keeps the rebuild sweep's CSV small.
SHARD_DIR ?= shard-check.out
shard-check:
	mkdir -p $(SHARD_DIR)
	$(GO) build -o $(SHARD_DIR)/pdsirepro ./cmd/pdsirepro
	for n in 1 4; do \
		GOMAXPROCS=$$n $(SHARD_DIR)/pdsirepro -fig faults,integrity,scale,bb,rebuild -shards $$n \
			-metrics $(SHARD_DIR)/sh$$n.json -trace $(SHARD_DIR)/sh$$n.trace.json \
			-report $(SHARD_DIR)/sh$$n.report.txt \
			-timeseries $(SHARD_DIR)/sh$$n.csv -ts-window 1 \
			> $(SHARD_DIR)/sh$$n.out || exit 1; \
	done
	for f in out json trace.json report.txt csv; do \
		cmp $(SHARD_DIR)/sh1.$$f $(SHARD_DIR)/sh4.$$f || exit 1; \
	done
	grep -q '"sim.cluster.windows"' $(SHARD_DIR)/sh1.json
	grep -q '"bb.absorb.bytes"' $(SHARD_DIR)/sh1.json
	grep -q '"bb.faults.lost_bytes"' $(SHARD_DIR)/sh1.json
	grep -q 'pfs.rebuild.completed' $(SHARD_DIR)/sh1.json
	grep -q 'pfs.loss.groups' $(SHARD_DIR)/sh1.json
