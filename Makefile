# Targets mirror the CI jobs in .github/workflows/ci.yml so that a green
# `make lint test race bench-smoke` locally means a green CI run.

GO ?= go
# Built inside the checkout (bin/ is git-ignored) so `make lint` never
# touches a ratestlint installed elsewhere.
RATESTLINT := $(CURDIR)/bin/ratestlint

.PHONY: all lint test race fuzz bench-smoke fmt

all: lint test

# gofmt + go vet + the repo's own analyzer suite (see docs/LINTING.md).
lint:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then echo "gofmt needed on:"; echo "$$out"; exit 1; fi
	$(GO) vet ./...
	cd e2ebench && $(GO) vet .
	$(GO) build -o $(RATESTLINT) ./cmd/ratestlint
	$(GO) vet -vettool=$(RATESTLINT) ./...

# The examples smoke runs the four programs under examples/, which drive
# the public API end to end: each must exit 0, and quickstart must print
# the paper's 3-tuple counterexample.
test:
	$(GO) build ./...
	$(GO) test ./...
	cd e2ebench && $(GO) test .
	out=$$($(GO) run ./examples/quickstart) && echo "$$out" | grep -q 'Counterexample with 3 tuples'
	$(GO) run ./examples/grading > /dev/null
	$(GO) run ./examples/tpch_regression > /dev/null
	$(GO) run ./examples/userstudy > /dev/null

race:
	$(GO) test -race ./...

# Ten seconds of each fuzz target, as CI runs them. A failing input lands
# in the package's testdata/fuzz/<target>/; keep it there as a regression
# entry.
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzSharedEval$$' -fuzztime 10s ./internal/engine/
	$(GO) test -run '^$$' -fuzz '^FuzzParsePrint$$' -fuzztime 10s ./internal/raparser/
	$(GO) test -run '^$$' -fuzz '^FuzzLoadDatabase$$' -fuzztime 10s .

# One iteration of the batch, delta, planner, IVM and session benchmarks:
# compile-and-run smoke plus their embedded equivalence guards.
bench-smoke:
	$(GO) test -run '^$$' -bench 'Batch|PreparedDiff|Planner|ApplyDelta' -benchtime 1x ./internal/engine/...
	$(GO) test -run '^$$' -bench 'Session' -benchtime 1x ./internal/core/...

fmt:
	gofmt -w .
