# Developer entry points. `make lint test` is the full local gate; CI
# (.github/workflows/ci.yml) runs the same commands.

GO ?= go
MOBILINT := bin/mobilint

.PHONY: all build test race lint lint-baseline fuzz-smoke adversary-smoke obs-smoke spans-smoke agg-smoke bench bench-smoke par-bench cover mobilint clean

all: build lint test

build:
	$(GO) build ./...

# Tier-1 verify: exactly what the roadmap pins.
test:
	$(GO) build ./... && $(GO) test ./...

race:
	$(GO) test -race ./...

mobilint:
	$(GO) build -o $(MOBILINT) ./cmd/mobilint

# Stock vet plus the mobilint contract suite (see DESIGN.md §7, §12)
# in standalone mode: the checked-in baseline accepts known findings,
# -strict-allow fails on suppressions or baseline entries that no longer
# suppress anything, and the JSON report lands in lint-findings.json for
# CI artifact upload.
lint: mobilint
	$(GO) vet ./...
	$(MOBILINT) -strict-allow -baseline lint.baseline.json -json lint-findings.json ./...

# Regenerate the accepted-findings baseline from the current tree. Review
# the diff before committing: every new entry is debt you are accepting.
lint-baseline: mobilint
	$(MOBILINT) -write-baseline lint.baseline.json ./...

# Short native-fuzz runs: the invalidation-report codec, the workload
# name parser (manifest round-trip property), the churn snapshot decoder,
# and the client cache against its reference LRU.
fuzz-smoke:
	$(GO) test -run Fuzz -fuzz='Fuzz.*IR' -fuzztime=10s ./internal/core
	$(GO) test -run Fuzz -fuzz=FuzzWorkloadParse -fuzztime=10s ./internal/workload
	$(GO) test -run Fuzz -fuzz=FuzzDecodeSnapshot -fuzztime=10s ./internal/churn
	$(GO) test -run FuzzCache -fuzz=FuzzCache -fuzztime=10s ./internal/cache

# Adversary pass: the four robustness sweeps at a short horizon, all
# seven schemes each — ext-chaos (bursty loss + corruption + server
# crashes), ext-overload (offered load 1x..8x the uplink's fetch-request
# capacity under the full degradation layer), ext-delivery (jitter,
# reordering, duplication, partitions, clock skew) and ext-churn (storms,
# crash/restart with snapshot faults, paced resync). Every run is gated by
# its own audit (zero stale reads, every accounting identity, queue peaks
# within their caps) plus the sweeps' collapse guard. CSV artifacts land
# in results-adversary/.
adversary-smoke:
	$(GO) run ./cmd/experiments -figure ext-chaos-thr -simtime 4000 -out results-adversary
	$(GO) run ./cmd/experiments -figure ext-overload-thr -simtime 4000 -out results-adversary
	$(GO) run ./cmd/experiments -figure ext-delivery-thr -simtime 4000 -out results-adversary
	$(GO) run ./cmd/experiments -figure ext-churn-thr -simtime 4000 -out results-adversary

# Observability smoke: one instrumented ts-check run under chaos level 4
# emitting all three artifacts (metrics timeline, lossless JSONL event
# stream, run manifest), each validated, then the manifest fed back to
# verify the replay digest. ts-check under chaos exercises fetch retries
# and validity-path salvages, so their timeline columns must be non-zero.
# The same run's -json record is itself a manifest and must replay too.
obs-smoke:
	rm -rf results-obs && mkdir -p results-obs
	$(GO) run ./cmd/mobisim -scheme ts-check -chaos 4 -simtime 4000 -timeline results-obs/timeline.csv \
		-trace-jsonl results-obs/events.jsonl -manifest results-obs/run.json
	head -1 results-obs/timeline.csv | grep -q '^t,' || (echo "bad timeline header" && exit 1)
	awk -F, 'NR == 1 { for (i = 1; i <= NF; i++) col[$$i] = i; next } \
		{ r += $$col["retries"]; s += $$col["salvages"] } END { exit !(r > 0 && s > 0) }' \
		results-obs/timeline.csv || (echo "retries or salvages column is all zero" && exit 1)
	test -s results-obs/events.jsonl || (echo "empty JSONL stream" && exit 1)
	$(GO) run ./cmd/mobisim -from-manifest results-obs/run.json | grep -q 'replay verified'
	$(GO) run ./cmd/mobisim -scheme ts-check -chaos 4 -simtime 4000 -json > results-obs/run-json.json
	$(GO) run ./cmd/mobisim -from-manifest results-obs/run-json.json 2>&1 | grep -q 'replay verified'

# Span/AoI smoke: one chaos run exporting per-query causal spans, the
# file re-validated as Perfetto-loadable trace-event JSON, the run's
# manifest replayed and verified by digest, then the ext-aoi sweep (all
# seven schemes, four fault levels) at a short horizon. Every run audits
# itself, which fails it on any stale read or a span accounting identity
# that does not reconcile with the query counters.
spans-smoke:
	rm -rf results-spans && mkdir -p results-spans
	$(GO) run ./cmd/mobisim -scheme aaw -chaos 3 -simtime 4000 \
		-spans results-spans/spans.json -manifest results-spans/run.json
	$(GO) run ./cmd/mobisim -validate-spans results-spans/spans.json
	$(GO) run ./cmd/mobisim -from-manifest results-spans/run.json | grep -q 'replay verified'
	$(GO) run ./cmd/experiments -figure ext-aoi -simtime 4000 -out results-spans

# Population pass: the digest oracle (all seven schemes × every
# adversarial layer, plus warmup, per-interval and spans cells, and the
# multi-cell table, each checked against the digests recorded from the
# retired process path), then a 100k-client scale run with its per-interval timeline CSV
# in results-agg/.
agg-smoke:
	rm -rf results-agg && mkdir -p results-agg
	$(GO) test -run 'TestAggregate|TestMulticellDigests' ./internal/engine
	$(GO) run ./cmd/mobisim -scheme aaw -clients 100000 -db 1000 -buffer 0.01 \
		-simtime 1000 -think 2000 -uplink 1000000 -downlink 1000000 \
		-timeline results-agg/scale-timeline.csv -manifest results-agg/scale.json
	head -1 results-agg/scale-timeline.csv | grep -q '^t,' || (echo "bad timeline header" && exit 1)

bench:
	$(GO) test -bench=. -benchmem -run='^$$' .

# Benchmark smoke: mobibench's own tests, then one short agg-fanout pass.
# bench.sh exits non-zero when any run fails its audit (zero stale reads,
# the accounting identities) or the determinism digest check.
bench-smoke:
	$(GO) -C cmd/mobibench test ./...
	bash cmd/mobibench/bench.sh --workload agg-fanout --seed 1 --seconds 2 --trace 0

# Parallel-harness scaling: the sweep benchmark at 1/2/4 workers (compare
# ns/op across the sub-benchmarks on a multi-core machine) plus the
# kernel, channel, server fetch-shed and cache hot-path benchmarks, which
# fail on any allocation; the server's admitted fetch, which fails on any
# beyond its pending-fetch record and completion; and the bit-sequences
# ones: a rebuild fails on any allocation beyond its structure, level
# headers and depth copy, and an unchanged build on any.
par-bench:
	$(GO) test -bench='BenchmarkSweepParallel|BenchmarkKernel|BenchmarkChannel|BenchmarkServer|BenchmarkCache|BenchmarkBitseq' -benchmem -run='^$$' .

# Coverage gate: full suite with -coverprofile; fails if total statement
# coverage drops below the floor.
COVER_FLOOR := 70.0
cover:
	$(GO) test -coverprofile=cover.out ./...
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/,"",$$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 < f+0) ? 1 : 0 }' || \
		{ echo "coverage $$total% is below the $(COVER_FLOOR)% floor"; exit 1; }

clean:
	rm -rf bin
