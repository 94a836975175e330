package main

import (
	"fmt"
	"math"
	"runtime"
	"time"
)

// key names one advisory: (intersection, frame).
type key struct{ intersection, frame int }

// runResult is one driven pipeline, judged against the reference.
type runResult struct {
	wl       workload
	p        *pipeline
	w        *window
	acc      accounting
	receipts map[key]*receipt
	// lastDecode is when the vehicle decoded the window's last advisory.
	lastDecode time.Time
	// mismatches lists every advisory that differs from the reference,
	// warm-up frames included, as (workload, intersection, frame).
	mismatches []string
}

// drivePipeline runs the warm-up and timed window on a built pipeline,
// tears it down, and checks every advisory against a reference replay.
func drivePipeline(p *pipeline, m *models, seconds time.Duration) (*runResult, error) {
	runtime.GC()
	w := p.drive(seconds)
	p.close()
	refs, err := reference(m, p.clipLen, p.feeds)
	if err != nil {
		return nil, err
	}
	return judgeRun(p, w, refs), nil
}

// judgeRun joins the vehicle's receipts with the feeds' records and
// the reference verdicts.
func judgeRun(p *pipeline, w *window, refs [][]verdict) *runResult {
	r := &runResult{wl: p.wl, p: p, w: w, receipts: make(map[key]*receipt, len(p.veh.receipts))}
	for i := range p.veh.receipts {
		rc := &p.veh.receipts[i]
		r.receipts[key{rc.intersection, rc.frame}] = rc
	}
	for i, f := range p.feeds {
		for k := range f.recs {
			rec := &f.recs[k]
			got := r.receipts[key{f.id, k}]
			o := judge(rec, got, refs[i][k])
			if o == mismatch {
				r.mismatches = append(r.mismatches, fmt.Sprintf("(%s, %d, %d): got ready=%v safe=%v scene=%s, want ready=%v safe=%v scene=%s",
					p.wl.name, f.id, k, got.ready, got.safe, got.scene, refs[i][k].ready, refs[i][k].safe, refs[i][k].scene))
			}
			if k < w.first[i] || k >= w.end[i] {
				continue
			}
			var latency time.Duration
			if o == delivered {
				latency = got.at.Sub(rec.due)
				if got.at.After(r.lastDecode) {
					r.lastDecode = got.at
				}
			}
			r.acc.add(o, rec.due.Sub(w.start), latency)
		}
	}
	return r
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// finite maps +Inf (more failed frames than the percentile allows) to
// the largest JSON number, so the result line stays valid JSON.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

// closedLoopRate is the closed-loop feeds' capacity in frames per
// second: per feed, one second over the median interval between
// consecutive frames sent in the window. A median, like
// advisory_p50_ms, so that host CPU steal stretching a few cycles does
// not decide the run; the stalls still show in the tail.
func closedLoopRate(r *runResult) float64 {
	var gaps samples
	for i, f := range r.p.feeds {
		for k := r.w.first[i] + 1; k < r.w.end[i]; k++ {
			gaps = append(gaps, f.recs[k].due.Sub(f.recs[k-1].due))
		}
	}
	med := gaps.msP(50)
	if med == 0 {
		return 0
	}
	return float64(len(r.p.feeds)) * 1000 / med
}

// tailMetric is the end-to-end tail latency.
const tailMetric = "advisory_p99_ms"

// endToEnd computes the user-visible metrics of one run. setup is the
// median set-up time.
func endToEnd(r *runResult, setup time.Duration) (map[string]metricValue, string, error) {
	lat := r.acc.sortedLatencies()
	tp, _, beyond, _ := tail(lat)
	p99, parts, ok := slicedP99(r.acc.latencies, r.acc.dues)
	if !ok {
		return nil, "", fmt.Errorf("%d frames in the window: advisory_p99_ms needs at least %d", len(lat), minSliceFrames)
	}
	good := r.acc.outcomes[delivered]
	var fps float64
	if r.wl.closedLoop {
		fps = closedLoopRate(r)
	} else if wall := r.lastDecode.Sub(r.w.start); wall > 0 {
		fps = float64(good) / wall.Seconds()
	}
	m := map[string]metricValue{
		"advisory_p50_ms":  {finite(percentile(lat, 50)), "ms"},
		tailMetric:         {finite(p99), "ms"},
		"frames_per_s":     {fps, "frames/s"},
		"cpu_ms_per_frame": {float64(r.w.cpuEnd-r.w.cpuStart) / float64(time.Millisecond) / float64(r.acc.due), "ms"},
		"delivered_frac":   {float64(good) / float64(r.acc.due), "ratio"},
		"setup_s":          {setup.Seconds(), "s"},
		"max_rss_mb":       {maxRSSMB(), "MB"},
	}
	note := fmt.Sprintf("advisory latency over %d frames due: p99 %.4f ms over the whole window, median over %d parts of ≥%d frames %.4f ms; highest percentile with ≥%d beyond is p%g (%d beyond); %s",
		len(lat), finite(percentile(lat, 99)), parts, minSliceFrames, finite(p99), minBeyond, tp, beyond, r.acc.String())
	return m, note, nil
}
