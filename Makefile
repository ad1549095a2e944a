# Targets mirror the CI jobs in .github/workflows/ci.yml so that a green
# `make lint test race bench-smoke` locally means a green CI run.

GO ?= go
# Built inside the checkout (bin/ is git-ignored) so `make lint` never
# touches a ratestlint installed elsewhere.
RATESTLINT := $(CURDIR)/bin/ratestlint

.PHONY: all lint test race bench-smoke fmt

all: lint test

# gofmt + go vet + the repo's own analyzer suite (see docs/LINTING.md).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	cd e2ebench && $(GO) vet .
	$(GO) build -o $(RATESTLINT) ./cmd/ratestlint
	$(GO) vet -vettool=$(RATESTLINT) ./...

test:
	$(GO) build ./...
	$(GO) test ./...
	cd e2ebench && $(GO) test .

race:
	$(GO) test -race ./...

# One iteration of the batch, delta, planner, IVM and session benchmarks:
# compile-and-run smoke plus their embedded equivalence guards.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Batch|PreparedDiff|Planner|ApplyDelta' -benchtime 1x ./internal/engine/...
	$(GO) test -run '^$$' -bench 'Session' -benchtime 1x ./internal/core/...

fmt:
	gofmt -w .
