# Developer entry points. `make check` is the tier-1 gate plus the race
# detector (the scheduler/server subsystem is concurrent; keep it clean).

GO ?= go

# Profile-guided optimization: when the committed profile exists, build
# every binary with it. Regenerate with `make pgo` after hot-path changes.
PGOFILE := default.pgo
GOFLAGS_PGO := $(if $(wildcard $(PGOFILE)),-pgo=$(abspath $(PGOFILE)),)

.PHONY: all build test vet race check cover bench pgo report daemon clean

all: check

build:
	$(GO) build $(GOFLAGS_PGO) ./...

test:
	$(GO) test ./...

vet:
	$(GO) vet ./...

race:
	$(GO) test -race ./...

check: build vet test race

# cover gates the observability layer at >= 80% statement coverage: it is
# the one subsystem whose breakage (a silent scrape regression) tests
# elsewhere would not catch.
cover:
	$(GO) test -coverprofile=cover.out ./internal/obs/
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "internal/obs coverage: $$total%"; \
	awk "BEGIN {exit !($$total >= 80.0)}" || { echo "FAIL: internal/obs coverage $$total% < 80%"; exit 1; }

bench:
	$(GO) test -bench=. -benchmem ./...

# pgo regenerates the committed PGO profile from a standard avfreport
# run (fig3 exercises the full fused pipeline+softarch+estimator path).
pgo:
	$(GO) run ./cmd/avfreport -scale quick -seed 1 -parallel 1 -only fig3 -cpuprofile $(PGOFILE) >/dev/null
	@echo "wrote $(PGOFILE)"

report:
	$(GO) run ./cmd/avfreport

daemon:
	$(GO) run ./cmd/avfd

clean:
	$(GO) clean ./...
