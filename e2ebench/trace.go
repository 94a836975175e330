package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"safecross/internal/rsu"
	"safecross/internal/safecross"
)

// span is one timed interval of a frame's journey. All spans of a
// frame share (workload, intersection, frame); times are nanoseconds
// from the start of the timed window.
type span struct {
	Workload     string `json:"workload"`
	Intersection int    `json:"intersection"`
	Frame        int    `json:"frame"`
	Name         string `json:"name"`
	Parent       string `json:"parent,omitempty"`
	Start        int64  `json:"start_ns"`
	End          int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// selfTime is a span's duration minus the part of it its children
// cover.
func selfTime(parent span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, parent.Start), min(c.End, parent.End)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, reach int64
	reach = parent.Start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		covered += v.b - max(v.a, reach)
		reach = v.b
	}
	return parent.dur() - time.Duration(covered)
}

// frameSpans builds the spans of one frame from its record. Intervals
// the benchmark timed itself have their true placement; the children
// whose durations come from the program (the serve plane's Verdict
// timing, solo-direct's registry stage deltas) are laid end to end from
// their parent's start, which is all self time needs.
func frameSpans(r *runResult, f *feed, k int) []span {
	rec := &f.recs[k]
	at := func(t time.Time) int64 { return int64(t.Sub(r.w.start)) }
	mk := func(name, parent string, a, b int64) span {
		return span{Workload: r.wl.name, Intersection: f.id, Frame: k, Name: name, Parent: parent, Start: a, End: b}
	}
	process := mk("safecross.process", "frame", at(rec.start), at(rec.processed))
	out := []span{process}
	laid := func(parent span, names []string, durs []time.Duration) {
		cursor := parent.Start
		for i, d := range durs {
			out = append(out, mk(names[i], parent.Name, cursor, cursor+int64(d)))
			cursor += int64(d)
		}
	}
	switch {
	case rec.verdict:
		submit := mk("serve.submit", process.Name, at(rec.submitStart), at(rec.submitEnd))
		out = append(out, submit)
		laid(submit, []string{"serve.queue", "serve.batch_wait", "serve.compute"},
			[]time.Duration{rec.timing.Queue, rec.timing.BatchWait, rec.timing.Compute})
	case !r.wl.served:
		laid(process, []string{"weather.detect", "vision.vp", "video.classify"}, rec.children[:])
	}
	if rec.sent {
		out = append(out, mk("rsu.broadcast", "frame", at(rec.processed), at(rec.broadcast)))
	}
	if got := r.receipts[key{f.id, k}]; got != nil && rec.sent {
		out = append(out,
			mk("rsu.wire", "frame", at(rec.broadcast), at(got.at)),
			mk("frame", "", at(rec.due), at(got.at)))
	}
	return out
}

// children returns the spans whose parent is named parent.
func children(spans []span, parent string) []span {
	var out []span
	for _, s := range spans {
		if s.Parent == parent {
			out = append(out, s)
		}
	}
	return out
}

func find(spans []span, name string) (span, bool) {
	for _, s := range spans {
		if s.Name == name {
			return s, true
		}
	}
	return span{}, false
}

// meanUS returns a registry histogram's mean in microseconds.
func meanUS(sum, count int64) float64 {
	if count == 0 {
		return 0
	}
	return float64(sum) / float64(count) / 1e3
}

// layerReport is the traced run's per-layer breakdown, with the spans
// it was computed from.
type layerReport struct {
	metrics map[string]metricValue
	spans   []span
	notes   []string
}

// perLayer computes every per-layer metric from the traced run, the
// untraced run's median latency, and the stage pass.
func perLayer(traced, plain *runResult, stage *stageResult) *layerReport {
	rep := &layerReport{metrics: map[string]metricValue{}}
	set := func(name string, v float64, unit string) { rep.metrics[name] = metricValue{finite(v), unit} }

	var frame, self, submit, submitSelf, queue, batchWait, compute, perClip, bcast, wire samples
	var switchVirt samples
	shedCount, switches := 0, 0
	for _, f := range traced.p.feeds {
		for k := range f.recs {
			rec := &f.recs[k]
			if rec.shed {
				shedCount++
			}
			if rec.switchRep != nil {
				switch rec.switchRep.Method {
				case "noop", "resident":
				default:
					switches++
					switchVirt = append(switchVirt, rec.switchRep.Total)
				}
			}
			if rec.verdict && rec.timing.Switch > 0 {
				switchVirt = append(switchVirt, rec.timing.Switch)
			}
		}
		for k := traced.w.first[f.id-1]; k < traced.w.end[f.id-1]; k++ {
			rec := &f.recs[k]
			spans := frameSpans(traced, f, k)
			rep.spans = append(rep.spans, spans...)
			if rec.err != nil {
				continue
			}
			process, _ := find(spans, "safecross.process")
			frame = append(frame, process.dur())
			self = append(self, selfTime(process, children(spans, process.Name)))
			if s, ok := find(spans, "serve.submit"); ok {
				submit = append(submit, s.dur())
				submitSelf = append(submitSelf, selfTime(s, children(spans, s.Name)))
				queue = append(queue, rec.timing.Queue)
				batchWait = append(batchWait, rec.timing.BatchWait)
				compute = append(compute, rec.timing.Compute)
				perClip = append(perClip, rec.timing.Compute/time.Duration(rec.timing.Batch))
			}
			if s, ok := find(spans, "rsu.broadcast"); ok {
				bcast = append(bcast, s.dur())
			}
			if s, ok := find(spans, "rsu.wire"); ok {
				wire = append(wire, s.dur())
			}
		}
	}

	set("loadgen.late_p99_ms", traced.w.late.msP(99), "ms")
	set("loadgen.backlog_max", float64(backlogMax(traced)), "count")
	set("safecross.frame_us_p50", frame.us(50), "us")
	set("safecross.frame_us_p99", frame.us(99), "us")
	set("safecross.self_us_p50", self.us(50), "us")

	snap := traced.p.reg.Snapshot()
	set("weather.detect_us_mean", meanUS(snap.Sum("safecross_scene_detect_seconds"), snap.Count("safecross_scene_detect_seconds")), "us")
	set("vision.vp_us_mean", meanUS(snap.Sum("safecross_vp_seconds"), snap.Count("safecross_vp_seconds")), "us")
	if traced.wl.served {
		// Served frames' classify series times the serve round trip;
		// the forward pass itself is the plane's compute per clip.
		var sum time.Duration
		for _, d := range perClip {
			sum += d
		}
		set("video.classify_us_mean", meanUS(int64(sum), int64(len(perClip))), "us")
	} else {
		set("video.classify_us_mean", meanUS(snap.Sum("safecross_classify_seconds"), snap.Count("safecross_classify_seconds")), "us")
	}

	set("weather.observe_us_p50", stage.observe.us(50), "us")
	set("vision.foreground_us_p50", stage.foreground.us(50), "us")
	set("vision.open_us_p50", stage.open.us(50), "us")
	set("vision.grid_us_p50", stage.grid.us(50), "us")
	set("vision.clip_us_p50", stage.clip.us(50), "us")
	set("vision.alloc_kb_per_frame", stage.vpAllocKB, "KB")
	set("video.forward_b1_us", stage.forwardB1.us(50), "us")
	set("video.forward_b8_us_per_clip", stage.forwardB8PerClip.us(50), "us")
	set("video.alloc_kb_per_clip", stage.clipAllocKB, "KB")

	set("serve.submit_us_p50", submit.us(50), "us")
	set("serve.submit_us_p99", submit.us(99), "us")
	set("serve.queue_wait_us_p99", queue.us(99), "us")
	set("serve.batch_wait_us_p99", batchWait.us(99), "us")
	set("serve.compute_us_p50", compute.us(50), "us")
	set("serve.handoff_us_p50", submitSelf.us(50), "us")
	if traced.p.plane != nil {
		st := traced.p.plane.Stats()
		set("serve.mean_batch", st.MeanBatch(), "clips")
		set("serve.switches", float64(st.Switches), "count")
		set("infer.ws_misses", float64(st.WorkspaceMisses), "count")
		switches = st.Switches
	} else {
		set("serve.mean_batch", 0, "clips")
		set("serve.switches", 0, "count")
		set("infer.ws_misses", 0, "count")
	}
	set("serve.shed", float64(shedCount), "count")
	set("pipeswitch.switches", float64(switches), "count")
	set("pipeswitch.switch_virtual_ms_p50", switchVirt.msP(50), "sim_ms")

	set("rsu.broadcast_us_p50", bcast.us(50), "us")
	set("rsu.wire_us_p50", wire.us(50), "us")
	set("rsu.wire_us_p99", wire.us(99), "us")
	set("rsu.advisory_bytes", advisoryBytes(traced), "bytes")
	set("rsu.dropped", float64(traced.p.srv.Stats().Dropped), "count")

	if p99, _, ok := slicedP99(plain.acc.latencies, plain.acc.dues); ok {
		set(tailMetric, p99, "ms")
	}
	tracedP50 := percentile(traced.acc.sortedLatencies(), 50)
	plainP50 := percentile(plain.acc.sortedLatencies(), 50)
	set("trace.overhead_frac", tracedP50/plainP50-1, "ratio")

	rep.notes = append(rep.notes,
		fmt.Sprintf("traced window: %d frames; serve submits %d; broadcasts %d; switch loads (simulated time) %d",
			len(frame), len(submit), len(bcast), len(switchVirt)),
		fmt.Sprintf("stage pass: %d frames, %d clips at batch 1, %d batches of %d",
			len(stage.observe), len(stage.forwardB1), len(stage.forwardB8PerClip), stageBatch))
	return rep
}

// advisoryBytes is the mean JSON size of the window's advisories.
func advisoryBytes(r *runResult) float64 {
	var total, n int
	for _, f := range r.p.feeds {
		for k := r.w.first[f.id-1]; k < r.w.end[f.id-1]; k++ {
			rec := &f.recs[k]
			if !rec.sent {
				continue
			}
			b, err := json.Marshal(rsu.IntersectionAdvisory(f.id, k, &safecross.Decision{Ready: rec.ready, Safe: rec.safe, Scene: rec.scene}))
			if err != nil {
				continue
			}
			total += len(b)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return float64(total) / float64(n)
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
