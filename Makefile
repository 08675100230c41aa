# Build/test/bench entry points. Plain go-tool wrappers: no code
# generation, no external dependencies.

GO ?= go

.PHONY: build test race race-smoke vet lint ci fuzz bench bench-kernels bench-delta bench-engines bench-mixed bench-obs examples experiments serve load smoke-serve smoke-cluster e2ebench-test

## build: compile every package and command
build:
	$(GO) build ./...

## test: tier-1 check — build plus the full test suite
test: build
	$(GO) test ./...

## race: tier-2 check — full suite under the race detector
race:
	$(GO) test -race ./...

## race-smoke: the fast race subset CI runs
race-smoke:
	$(GO) test -race -run 'TestRaceSmoke' .

## vet: static analysis
vet:
	$(GO) vet ./...

## lint: formatting gate (gofmt -l must be empty) plus staticcheck when
## installed (CI installs it; locally `go install
## honnef.co/go/tools/cmd/staticcheck@latest` to match)
lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt: the following files need formatting:"; \
		echo "$$unformatted"; \
		exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

## ci: what .github/workflows/ci.yml runs — vet, lint, tier-1, race smoke
ci: vet lint test race-smoke

## fuzz: explore each fuzz target briefly (seeds replay in `make test`)
fuzz:
	$(GO) test ./internal/instio -fuzz=FuzzBuild -fuzztime=30s
	$(GO) test ./internal/sparse -fuzz=FuzzNewCSC -fuzztime=30s
	$(GO) test . -fuzz=FuzzEngineAgreement -fuzztime=30s
	$(GO) test ./internal/eigen -fuzz=FuzzLanczosTopRitz -fuzztime=30s
	$(GO) test ./internal/eigen -fuzz=FuzzSymEigenMatchesReference -fuzztime=30s

## e2ebench-test: the end-to-end benchmark module's own unit tests
## (e2ebench is a separate Go module importing this one; offline)
e2ebench-test:
	cd e2ebench && $(GO) test ./...

## bench: refresh the kernel sections (meta, sizes, kernels, decision)
## of the committed perf baseline BENCH_psdp.json
bench:
	$(GO) run ./cmd/psdpbench -section kernels -bench-out BENCH_psdp.json

## bench-kernels: regression gate — re-measure the kernels into a
## scratch report and fail if any kernel is >1.05x slower than the
## committed BENCH_psdp.json at n>=256, or allocates per op. It
## refuses a baseline measured at another num_cpu or gomaxprocs. The
## committed baseline is left untouched; refresh it with `make bench`
## after an intentional change.
BENCH_CANDIDATE ?= /tmp/bench_psdp_candidate.json
bench-kernels:
	$(GO) run ./cmd/psdpbench -section kernels -bench-out $(BENCH_CANDIDATE) -baseline BENCH_psdp.json

## bench-delta: regenerate the incremental-serving baseline — boot
## psdpd, run the drifting-instance workload, record warm-vs-cold
## iterations and latency percentiles under "serve.delta" in
## BENCH_psdp.json (fails unless warm uses strictly fewer iterations)
bench-delta:
	sh scripts/bench_delta.sh

## bench-engines: regenerate the MMW-vs-ALO head-to-head baseline
## under "engines" in BENCH_psdp.json (fails unless ALO uses strictly
## fewer iterations than MMW at the tight-eps point on every case)
bench-engines:
	$(GO) run ./cmd/psdpbench -section engines -bench-out BENCH_psdp.json

## bench-mixed: regenerate the mixed packing/covering baseline under
## "mixed" in BENCH_psdp.json (fails unless both engines reach a
## verified feasible point on every witness-feasible instance)
bench-mixed:
	$(GO) run ./cmd/psdpbench -section mixed -bench-out BENCH_psdp.json

## bench-obs: regenerate the observability-overhead baseline under
## "obs" in BENCH_psdp.json (fails if telemetry adds allocations on the
## solver hot path or pushes the on/off cost ratio past the gates)
bench-obs:
	$(GO) run ./cmd/psdpbench -section obs -bench-out BENCH_psdp.json

## examples: compile every example program and run the mixedcover
## walkthrough end to end (CI runs this; mixedcover exits nonzero if
## its verified result goes wrong, the rest are build-gated — some run
## full experiment sweeps far too slow for a CI lap)
examples:
	@set -e; for d in examples/*/; do \
		echo "== build $$d"; \
		$(GO) build -o /dev/null ./$$d; \
	done
	$(GO) run ./examples/mixedcover

## serve: run the solve daemon on :8723 (see README "Serving")
serve:
	$(GO) run ./cmd/psdpd

## load: drive a running daemon with the closed-loop load generator and
## print sustained req/s, latency percentiles, and cache-hit rate
## (nothing is written to BENCH_psdp.json)
load:
	$(GO) run ./cmd/psdpload -url http://127.0.0.1:8723 -concurrency 64 -duration 5s

## smoke-serve: the CI serving gate — boot psdpd, run a short 64-way
## psdpload, fail on any non-2xx/non-429 response
smoke-serve:
	sh scripts/serve_smoke.sh

## smoke-cluster: the CI clustering gate — boot 3 replicas + psdpfront,
## solve through the front, kill the digest's owner, and require the
## re-routed answer to be byte-identical with zero non-2xx/429
smoke-cluster:
	sh scripts/cluster_smoke.sh

## experiments: regenerate the paper experiment tables (E1–E16)
experiments:
	$(GO) run ./cmd/psdpbench
