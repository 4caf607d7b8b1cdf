# Standard gates for every change. `make ci` is what a PR must pass:
# build, vet, and the full test suite under the race detector (the
# incremental dependence graph is maintained from commit-time log hooks,
# so the race run is not optional).

GO ?= go

.PHONY: all build vet test race bench ci

all: ci

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# The end-to-end benchmark (BENCHMARK.json, bench/README.md).
bench:
	bash bench/run.sh

ci: build vet race
