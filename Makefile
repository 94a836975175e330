GO ?= go

.PHONY: build vet staticcheck test race bench bench-smoke bench-json obs-smoke slo-smoke fleet-smoke fuzz-smoke e2e-smoke verify

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# staticcheck runs when the binary is installed; otherwise it degrades
# to a note (the container has no network to fetch it) and verify
# relies on vet + race instead.
staticcheck:
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (go vet + -race cover the gate)"; \
	fi

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run '^$$' .

# bench-smoke runs the serving and inference benchmarks exactly once:
# enough to catch a broken benchmark or a serving-plane regression (the
# memory-pressure benchmark asserts zero drops and real eviction/reload
# churn; the Fig8 benchmark drives the batched workspace path; the
# detect-eval benchmark asserts the pooled score path stays
# allocation-free at steady state) without paying for a full
# measurement run.
bench-smoke:
	$(GO) test -run '^$$' -bench 'BenchmarkServe|BenchmarkFig8_SlowFastInference|BenchmarkDetectEval|BenchmarkFewshotAdapt' -benchtime=1x .

# bench-json measures the inference hot paths (batched Fig8 inference,
# the serving plane, detector eval, and few-shot adaptation) with
# allocation tracking and records them in BENCH_infer.json; the file's
# previous contents roll into a "previous" field, so each refresh
# carries its own before/after. -require makes a silently skipped hot
# path (a bad -bench regex) fail the target instead of writing a
# report with a hole in it.
bench-json:
	$(GO) test -run '^$$' -bench 'BenchmarkFig8_SlowFastInference|BenchmarkServe|BenchmarkDetectEval|BenchmarkFewshotAdapt' -benchmem . | $(GO) run ./cmd/benchjson -out BENCH_infer.json -require 'BenchmarkFig8_SlowFastInference,BenchmarkServe_MultiIntersection,BenchmarkDetectEval,BenchmarkFewshotAdapt'

# obs-smoke boots the RSU command with its debug listener
# (-debug-addr) and a traced demo vehicle, scrapes /metrics and
# /traces while the feeds run, and asserts the key telemetry series
# (queue-wait, batch-size, switch-cost, RSU broadcast latency, SLO
# burn-rate gauges), a fully tiled per-request trace, a cross-process
# stitched trace (frame root + vehicle receive sharing one trace id),
# and the bounded /traces?n=&terminal= query surface.
obs-smoke:
	$(GO) test -run TestObsSmoke -count=1 ./cmd/safecross-rsu/

# slo-smoke is the SLO-focused alias: the same smoke suites exercise
# the burn-rate engine end to end — obs-smoke asserts slo_burn_rate /
# slo_alert_active series on a live /metrics, fleet-smoke kills a node
# and asserts the fleet-reassign alert raises and clears through
# failover (slo_alert_transitions_total reaching exactly 2).
slo-smoke: obs-smoke fleet-smoke

# fleet-smoke boots a three-node fleet (8 intersections, a replicated
# coordinator — 1 primary + 2 standbys, WAL-backed — and
# per-intersection retry vehicles), kills the primary coordinator
# mid-run (the takeover must happen by QUORUM election, not timeout),
# crashes a node under the new primary, then kills primary AND both
# standbys at once and restarts them from their write-ahead logs
# (epochs must resume above the pre-crash stamp with zero runner
# churn), and asserts every intersection keeps receiving advisories
# (zero unserved) with exactly one promotion and one failover —
# scraping the federated fleet::* per-node series (with exact
# histogram-merge counts), fleet_promotions_total /
# fleet_quorum_{votes,promotions}_total, fleet_wal_replays_total,
# fleet_failovers_total, fleet_nodes_live, fleet_scrape_age_seconds,
# the slo_burn_rate gauges (asserting the fleet-reassign alert raises
# on the failover and clears after recovery), and a cross-node
# stitched trace on /traces/fleet off the coordinator debug listener.
fleet-smoke:
	$(GO) test -run TestFleetSmoke -count=1 ./cmd/safecross-fleet/

# fuzz-smoke runs every native fuzz target for a short bounded burst:
# the rsu wire-message decode/validate/re-encode round trip (seeded by
# the committed corpus under internal/rsu/testdata/fuzz) and the
# control-plane WAL replayer (arbitrary byte soup must never panic and
# recovery must be idempotent). Seconds, not minutes — enough to catch
# a property regression; leave the fuzzer running longer by hand to
# hunt new inputs.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzMessageRoundTrip -fuzztime 5s ./internal/rsu/
	$(GO) test -run '^$$' -fuzz FuzzWALReplay -fuzztime 5s ./internal/fleet/

# e2e-smoke vets and tests the end-to-end benchmark module under
# e2ebench/. It is a separate Go module, so the root build, vet and
# test targets never compile it: without this target an API change
# that breaks the benchmark would pass the gate.
e2e-smoke:
	$(GO) -C e2ebench vet ./...
	$(GO) -C e2ebench test -count=1 ./...

# verify is the extended gate: everything must compile, lint clean, and
# pass the full suite under the race detector (the serving and RSU
# planes are concurrent by design; -race covers the sharded telemetry
# counters too), plus a single-iteration pass over the serving
# benchmarks, the observability / SLO / fleet-failover smoke tests
# (slo-smoke folds obs-smoke and fleet-smoke in, so listing it here
# covers all three without re-running any of them), a short burst of
# every fuzz target, and the end-to-end benchmark module's own vet and
# tests.
verify: build vet staticcheck race bench-smoke slo-smoke fuzz-smoke e2e-smoke
