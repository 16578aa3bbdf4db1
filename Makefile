GO ?= go

.PHONY: all build test lint bench-smoke

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
