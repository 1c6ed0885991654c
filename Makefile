# Developer entry points; CI runs the same targets.

# bash with pipefail so the bench recipe's `go test | tee` pipeline
# fails the target when go test fails, not just when tee does.
SHELL := /bin/bash
.SHELLFLAGS := -o pipefail -ec

GO ?= go
BENCHTIME ?= 1x

.PHONY: build vet lint test test-short test-invariants bench bench-check examples-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# lint builds the project's own analyzer suite (cmd/replicalint: map-range
# determinism, banned nondeterminism sources, lock discipline, exhaustive
# phase switches, blessed journal writer — see README.md "Determinism
# contract") and runs it through go vet's -vettool protocol, so findings
# carry standard vet formatting and exit codes. govulncheck is
# informational only: it needs network access for the vuln DB, so a
# missing binary or a failed fetch must not fail the target.
lint: build
	$(GO) build -o bin/replicalint ./cmd/replicalint
	$(GO) vet -vettool=$(abspath bin/replicalint) ./...
	@if command -v govulncheck >/dev/null 2>&1; then \
		govulncheck ./... || echo "govulncheck: informational, not failing the build"; \
	else \
		echo "govulncheck not installed; skipping (informational only)"; \
	fi

test:
	$(GO) test ./...

test-short:
	$(GO) test -short ./...

# test-invariants compiles in the //go:build invariants runtime
# assertions (CSR audits after every move in internal/search, the
# journal state-machine shadow in internal/controller) and runs the
# short suite under them. The default build carries none of this.
test-invariants:
	$(GO) test -tags invariants -short ./...

# bench runs the whole benchmark suite and regenerates the tracked perf
# baseline BENCH.json (see cmd/benchjson): benchmark → ns/op, allocs/op,
# and custom metrics such as the adversary core's visited-states. The
# default BENCHTIME=1x keeps the sweep fast — wall-clock numbers are then
# indicative only, but the visited-states metrics are deterministic, so
# the search-effort trajectory is comparable across machines and PRs.
# Use BENCHTIME=1s for stable timings.
bench:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... | tee bench.out
	$(GO) run ./cmd/benchjson < bench.out > BENCH.json
	@echo wrote BENCH.json

# bench-check regenerates a fresh baseline into BENCH.new.json (leaving
# the committed BENCH.json untouched) and fails when any deterministic
# visited-states metric regressed by more than 10% against it — the
# guard CI runs on every push (see cmd/benchcheck). Wall-clock numbers
# are machine-dependent and not checked, so BENCHTIME=1x is fine.
bench-check:
	$(GO) test -run '^$$' -bench . -benchmem -benchtime $(BENCHTIME) ./... | tee bench.out
	$(GO) run ./cmd/benchjson < bench.out > BENCH.new.json
	$(GO) run ./cmd/benchcheck -baseline BENCH.json -new BENCH.new.json
	rm -f BENCH.new.json

# examples-check runs every program under examples/ and diffs its stdout
# against the committed examples/<name>/expected.txt. All examples are
# deterministic, so any diff is a behaviour change in the library path
# the example drives; regenerate a file only when that change is meant.
examples-check:
	@for dir in examples/*/; do \
		name=$$(basename $$dir); \
		$(GO) run ./examples/$$name | diff -u examples/$$name/expected.txt - \
			|| { echo "examples-check: $$name output changed"; exit 1; }; \
	done
	@echo examples-check: all outputs match
