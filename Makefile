# The lint target is the single static-analysis entry point: CI's lint
# job runs exactly `make lint`, so a clean local run is a clean CI run.
# See docs/DEVELOPMENT.md#static-analysis for the analyzer reference.

.PHONY: lint fmt test race build loc bench-check

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	go run ./cmd/nucleuslint ./...
	@if go list -deps . ./cmd/... | grep -qx nucleus/internal/nucleustest; then \
		echo "internal/nucleustest (the Hyper test oracle) is imported by production code:"; \
		echo "  go list -deps . ./cmd/... must not contain it"; \
		exit 1; \
	fi

# Non-test source lines per package and in total: ROADMAP tracks the line
# count per PR and expects it to go down. Not counted: bench/ (a module of
# its own, the measuring instrument), internal/nucleustest (test support)
# and analyzer fixtures under testdata/.
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

fmt:
	gofmt -w .

build:
	go build ./...

test:
	go test ./...

race:
	go test -race ./...
