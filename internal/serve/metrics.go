package serve

import (
	"fmt"

	"safecross/internal/sim"
	"safecross/internal/telemetry"
)

// serveMetrics holds the serving plane's telemetry handles. They are
// the single source of truth for all activity counters — Stats() is a
// façade computed from them — and every handle is hot-path safe:
// counters and histograms are sharded atomics, so Submit, the
// scheduler, and the workers record without touching Server.mu.
type serveMetrics struct {
	// Admission outcomes. Together they tile the request lifecycle:
	// every submitted request ends in exactly one of completed,
	// cancelled, expired, failed, or shed, and every refused submission
	// lands in rejected (queue full) or invalid (malformed request).
	submitted     *telemetry.Counter
	rejected      *telemetry.Counter
	invalid       *telemetry.Counter
	shed          *telemetry.Counter
	cancelled     *telemetry.Counter
	expired       *telemetry.Counter
	failed        *telemetry.Counter
	completed     *telemetry.Counter
	sloViolations *telemetry.Counter
	aged          *telemetry.Counter

	// Batching and model-residency churn.
	batches        *telemetry.Counter
	batchedClips   *telemetry.Counter
	warmBatches    *telemetry.Counter
	switches       *telemetry.Counter
	evictions      *telemetry.Counter
	reloads        *telemetry.Counter
	maxBatch       *telemetry.Gauge
	batchSize      *telemetry.Histogram
	batchTarget    *telemetry.Gauge
	batchTargetMax *telemetry.Gauge

	// Latency decomposition over completed requests. queueWait is
	// submit→bucket, batchWait bucket→dispatch, compute the batched
	// forward pass, totalLatency submit→verdict; switchCost is the
	// virtual-time PipeSwitch load a batch paid (real loads only).
	queueWait    *telemetry.Histogram
	batchWait    *telemetry.Histogram
	compute      *telemetry.Histogram
	totalLatency *telemetry.Histogram
	switchCost   *telemetry.Histogram

	// Per-class submit→dispatch waits — the priority plane's acceptance
	// metric (under saturation Critical p95 must sit below Routine) —
	// and the matching completion split. Aged Routine requests count as
	// Critical, mirroring their dispatch tier.
	critWait      *telemetry.Histogram
	routWait      *telemetry.Histogram
	critCompleted *telemetry.Counter
	routCompleted *telemetry.Counter
}

func newServeMetrics(reg *telemetry.Registry) serveMetrics {
	return serveMetrics{
		submitted:     reg.Counter("serve_submitted_total", "requests accepted into the admission queue"),
		rejected:      reg.Counter("serve_rejected_total", "submissions refused for a full queue"),
		invalid:       reg.Counter("serve_invalid_total", "submissions refused as malformed: nil or non-finite clip, unknown scene"),
		shed:          reg.Counter("serve_shed_total", "admitted routine requests shed for a critical admission"),
		cancelled:     reg.Counter("serve_cancelled_total", "queued requests whose context fired before dispatch"),
		expired:       reg.Counter("serve_expired_total", "queued requests shed for a lapsed deadline"),
		failed:        reg.Counter("serve_failed_total", "requests ended by model failure or shutdown"),
		completed:     reg.Counter("serve_completed_total", "requests that received a verdict"),
		sloViolations: reg.Counter("serve_slo_violations_total", "completed requests whose latency exceeded their deadline"),
		aged:          reg.Counter("serve_aged_total", "routine requests promoted to critical dispatch by aging"),

		batches:        reg.Counter("serve_batches_total", "batched forward passes"),
		batchedClips:   reg.Counter("serve_batched_clips_total", "clips carried by batched forward passes"),
		warmBatches:    reg.Counter("serve_warm_batches_total", "batches routed to a worker already holding the scene model"),
		switches:       reg.Counter("serve_switches_total", "batches that triggered a PipeSwitch model load"),
		evictions:      reg.Counter("serve_evictions_total", "models evicted from worker memory under pressure"),
		reloads:        reg.Counter("serve_reloads_total", "loads that brought back a previously evicted model"),
		maxBatch:       reg.Gauge("serve_max_batch", "largest batch observed"),
		batchSize:      reg.Histogram("serve_batch_size", "clips per batched forward pass", telemetry.UnitCount),
		batchTarget:    reg.Gauge("serve_batch_target", "adaptive early-seal batch target derived from queue depth"),
		batchTargetMax: reg.Gauge("serve_batch_target_max", "largest adaptive batch target reached"),

		queueWait:    reg.Histogram("serve_queue_wait_seconds", "admission-queue wait before bucketing", telemetry.UnitSeconds),
		batchWait:    reg.Histogram("serve_batch_wait_seconds", "wait inside the batch until a worker took it", telemetry.UnitSeconds),
		compute:      reg.Histogram("serve_compute_seconds", "wall-clock batched forward pass", telemetry.UnitSeconds),
		totalLatency: reg.Histogram("serve_total_latency_seconds", "submit-to-verdict latency", telemetry.UnitSeconds),
		switchCost:   reg.Histogram("serve_switch_cost_seconds", "virtual-time PipeSwitch load cost per switching batch", telemetry.UnitSeconds),

		critWait:      reg.Histogram(`serve_dispatch_wait_seconds{class="critical"}`, "submit-to-dispatch wait by effective class", telemetry.UnitSeconds),
		routWait:      reg.Histogram(`serve_dispatch_wait_seconds{class="routine"}`, "submit-to-dispatch wait by effective class", telemetry.UnitSeconds),
		critCompleted: reg.Counter(`serve_completed_by_class_total{class="critical"}`, "completed requests by effective class"),
		routCompleted: reg.Counter(`serve_completed_by_class_total{class="routine"}`, "completed requests by effective class"),
	}
}

// sceneSeries are one scene's labelled serving metrics: how much
// traffic the scene submits and how long its requests wait for
// admission. Per-scene series let an operator see that one
// intersection's weather is saturating the plane while the aggregate
// histograms still look healthy.
type sceneSeries struct {
	requests  *telemetry.Counter
	queueWait *telemetry.Histogram
}

// newSceneSeries resolves the labelled per-scene series for every
// scene the plane serves. Scenes are fixed at construction, so the
// hot path indexes a read-only map and never touches the registry
// lock.
func newSceneSeries(reg *telemetry.Registry, scenes map[sim.Weather]bool) map[sim.Weather]sceneSeries {
	out := make(map[sim.Weather]sceneSeries, len(scenes))
	for scene := range scenes {
		label := scene.String()
		out[scene] = sceneSeries{
			requests: reg.Counter(
				fmt.Sprintf(`serve_requests_total{scene=%q}`, label),
				"requests accepted into the admission queue by scene"),
			queueWait: reg.Histogram(
				fmt.Sprintf(`serve_queue_wait_seconds{scene=%q}`, label),
				"admission-queue wait before bucketing by scene", telemetry.UnitSeconds),
		}
	}
	return out
}

// Metrics returns the server's telemetry registry — the one passed in
// Config.Metrics, or the private registry the server created when none
// was. Exporters (the debug listener, benchmarks) read series from it;
// Stats() is a convenience façade over the same data.
func (s *Server) Metrics() *telemetry.Registry { return s.registry }
