# The lint target is the single static-analysis entry point: CI's lint
# job runs exactly `make lint`, so a clean local run is a clean CI run.
# See docs/DEVELOPMENT.md#static-analysis for what it checks and which
# tests hold the invariants it does not.

.PHONY: lint fmt test race build loc bench-check bench-record

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	go vet ./...
	@if go list -deps . ./cmd/... | grep -qx nucleus/internal/nucleustest; then \
		echo "internal/nucleustest (the Hyper test oracle) is imported by production code:"; \
		echo "  go list -deps . ./cmd/... must not contain it"; \
		exit 1; \
	fi

# Non-test source lines per package and in total: ROADMAP tracks the line
# count per PR and expects it to go down. Not counted: bench/ (a module of
# its own, the measuring instrument), internal/nucleustest (test support)
# and fixtures under testdata/.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' ! -path './.bench_build/*' \
		! -path './internal/nucleustest/*' ! -path '*/testdata/*' -print0 \
	| xargs -0 wc -l \
	| awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); n[d] += $$1; t += $$1 } \
		END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' \
	| sort -k2

# bench/ is a module of its own (the measuring instrument) that compiles
# against internal/server, internal/replica and internal/store, so root
# `go build ./... && go test ./...` does not see it: a signature change
# that breaks it must fail the PR, not the next benchmark run.
bench-check:
	cd bench && go vet ./... && go test ./...

# Appends one record of the benchmark on this tree to BENCH_e2e.json
# (scripts/bench-record.sh): RUNS runs of every workload from seed SEED,
# 30 s each (about three minutes a run), one traced pass, and the sweep
# loops' addresses mod 64. ROLE and NOTE label the record, COMMIT
# overrides git's HEAD. PARENT=<rev> runs the committed rev and this tree
# alternately, run by run on the same seeds, and appends a record of each.
# Needs jq.
RUNS ?= 3
SEED ?= 1
bench-record:
	RUNS='$(RUNS)' SEED='$(SEED)' ROLE='$(ROLE)' NOTE='$(NOTE)' COMMIT='$(COMMIT)' PARENT='$(PARENT)' bash scripts/bench-record.sh

fmt:
	gofmt -w .

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...
