package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestTailPicksHighestPercentileWithTenBeyond(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{n: 10000, p: 99.9, beyond: 10, ok: true},
		{n: 9999, p: 99, beyond: 99, ok: true},
		{n: 1000, p: 99, beyond: 10, ok: true},
		{n: 999, p: 95, beyond: 49, ok: true},
		{n: 20, p: 50, beyond: 10, ok: true},
		{n: 19, ok: false},
		{n: 0, ok: false},
	} {
		xs := make([]float64, tc.n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		p, v, beyond, ok := tail(xs)
		if ok != tc.ok || (ok && (p != tc.p || beyond != tc.beyond)) {
			t.Errorf("n=%d: got p%g beyond=%d ok=%v, want p%g beyond=%d ok=%v", tc.n, p, beyond, ok, tc.p, tc.beyond, tc.ok)
			continue
		}
		if ok {
			// Nearest rank: exactly `beyond` samples exceed the value.
			if above := tc.n - int(v); above != beyond {
				t.Errorf("n=%d: value %g has %d samples above it, reported %d", tc.n, v, above, beyond)
			}
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for p, want := range map[float64]float64{50: 5, 90: 9, 99: 10, 100: 10, 0: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("p%g = %g, want %g", p, got, want)
		}
	}
	if got := percentile(append(xs, math.Inf(1)), 100); !math.IsInf(got, 1) {
		t.Errorf("a failed frame must sort last as +Inf, got %g", got)
	}
}

func TestSlicedP99IgnoresOneBadPart(t *testing.T) {
	const n = 4000
	lat := make([]float64, n)
	dues := make([]time.Duration, n)
	for i := range lat {
		// Due times arrive out of order, as feeds interleave.
		dues[i] = time.Duration((i*7919)%n) * time.Millisecond
		lat[i] = 1 + float64(i%100)/100 // below 2 outside the burst
		if dues[i] < n/4*time.Millisecond && i%10 == 0 {
			lat[i] = 50 // a burst in the first quarter of the window
		}
	}
	p99, parts, ok := slicedP99(lat, dues)
	if !ok || parts != 4 || p99 >= 2 {
		t.Fatalf("got p99 %g over %d parts (ok=%v), want < 2 over 4: the burst must stay in one part", p99, parts, ok)
	}
	if _, parts, _ := slicedP99(lat[:1999], dues[:1999]); parts != 1 {
		t.Fatalf("1999 frames: %d parts, want 1", parts)
	}
	if _, _, ok := slicedP99(lat[:999], dues[:999]); ok {
		t.Fatal("999 frames cannot support a p99 with 10 beyond")
	}
}

// fakeRun builds a judged run from hand-made records: one feed of six
// frames, the window covering frames 1..5.
func fakeRun(t *testing.T, mutate func(recs []frameRec, receipts map[int]*receipt, refs []verdict)) *runResult {
	t.Helper()
	start := time.Unix(1000, 0)
	recs := make([]frameRec, 6)
	receipts := map[int]*receipt{}
	refs := make([]verdict, 6)
	for k := range recs {
		due := start.Add(time.Duration(k-1) * period)
		recs[k] = frameRec{due: due, start: due, sent: true, ready: true, scene: 1}
		refs[k] = verdict{ready: true, scene: "day"}
		receipts[k] = &receipt{intersection: 1, frame: k, at: due.Add(2 * time.Millisecond), ready: true, scene: "day"}
	}
	mutate(recs, receipts, refs)
	veh := &vehicle{}
	for k := range recs {
		if rc := receipts[k]; rc != nil {
			veh.receipts = append(veh.receipts, *rc)
		}
	}
	p := &pipeline{wl: workload{name: "fake", intersections: 1}, veh: veh, feeds: []*feed{{id: 1, recs: recs}}}
	w := &window{start: start, first: []int{1}, end: []int{6}}
	return judgeRun(p, w, [][]verdict{refs})
}

func TestFailureAccounting(t *testing.T) {
	r := fakeRun(t, func(recs []frameRec, receipts map[int]*receipt, refs []verdict) {
		delete(receipts, 2)        // never reached the vehicle
		recs[3].shed = true        // shed to fail-safe danger, even though it matches
		receipts[4].safe = true    // differs from the reference
		receipts[0].scene = "snow" // a warm-up mismatch: reported, not counted in the window
		receipts[5].at = recs[5].due.Add(7 * time.Millisecond)
	})
	a := r.acc
	if a.due != 5 || a.failed() != 3 || a.outcomes[missing] != 1 || a.outcomes[shed] != 1 || a.outcomes[mismatch] != 1 {
		t.Fatalf("accounting %s, failed %d; want due=5 failed=3 with one each of missing, shed, mismatch", a.String(), a.failed())
	}
	var inf, finiteN int
	for _, l := range a.latencies {
		if math.IsInf(l, 1) {
			inf++
		} else {
			finiteN++
		}
	}
	if inf != 3 || finiteN != 2 {
		t.Fatalf("latencies %v: want the 3 failed frames as +Inf", a.latencies)
	}
	if len(r.mismatches) != 2 || !strings.HasPrefix(r.mismatches[0], "(fake, 1, 0)") || !strings.HasPrefix(r.mismatches[1], "(fake, 1, 4)") {
		t.Fatalf("mismatches %q: want (fake, 1, 0) and (fake, 1, 4)", r.mismatches)
	}
	if want := r.p.feeds[0].recs[5].due.Add(7 * time.Millisecond); !r.lastDecode.Equal(want) {
		t.Fatalf("last decode %v, want %v", r.lastDecode, want)
	}
}

func TestClosedLoopRateIsMedianCycle(t *testing.T) {
	start := time.Unix(1000, 0)
	var recs []frameRec
	for _, ms := range []int{0, 2, 4, 6, 56, 58, 60} {
		recs = append(recs, frameRec{due: start.Add(time.Duration(ms) * time.Millisecond)})
	}
	r := &runResult{
		wl: workload{closedLoop: true, intersections: 1},
		p:  &pipeline{feeds: []*feed{{id: 1, recs: recs}}},
		w:  &window{first: []int{0}, end: []int{len(recs)}},
	}
	if got := closedLoopRate(r); got != 500 {
		t.Fatalf("rate %g frames/s, want 500: one stalled cycle must not decide the median", got)
	}
}

func TestOpenLoopChargesStallToLaterFrames(t *testing.T) {
	const n, tick, stall = 8, 10 * time.Millisecond, 45 * time.Millisecond
	origin := time.Now().Add(5 * time.Millisecond)
	sched := schedule{origin: origin, period: tick}
	starts := make([]time.Time, n)
	backlogs := make([]int, n)
	openLoop([]schedule{sched}, n, func(_, k, backlog int) {
		starts[k], backlogs[k] = time.Now(), backlog
		if k == 2 {
			time.Sleep(stall)
		}
	})
	// Frame 3 was due one tick after frame 2 but could only start once
	// the stall ended: its delay from due carries the rest of the stall.
	if late := starts[3].Sub(sched.due(3)); late < stall-tick-2*time.Millisecond {
		t.Fatalf("frame 3 started %v after due, want ≥ %v", late, stall-tick)
	}
	if backlogs[3] == 0 {
		t.Fatal("frame 3 started behind schedule but reported no backlog")
	}
	for k := 0; k < n; k++ {
		if starts[k].Before(sched.due(k)) {
			t.Fatalf("frame %d started before it was due", k)
		}
	}
}

func TestSelfTimeSubtractsChildCoverage(t *testing.T) {
	parent := span{Name: "p", Start: 0, End: 100}
	kids := []span{{Start: 10, End: 30}, {Start: 20, End: 40}, {Start: 90, End: 120}, {Start: -5, End: 2}}
	if got := selfTime(parent, kids); got != 100-(30+10+2) {
		t.Fatalf("self = %d, want %d", got, 100-42)
	}
}

// testSources renders a frame pool for n intersections, released when
// the test ends.
func testSources(t *testing.T, seed int64, n int) []source {
	t.Helper()
	pool, err := renderSequences(seed, min(recordedSequences, n))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { pool.release() })
	return sources(pool, n)
}

// trained shares one training run across the tests that need models.
var trained = sync.OnceValues(train)

func TestSeedDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models")
	}
	a, b, c := testSources(t, 7, 4), testSources(t, 7, 4), testSources(t, 8, 4)
	if frameDigest(a, 40) != frameDigest(b, 40) {
		t.Fatal("same seed rendered different frames")
	}
	if frameDigest(a, 40) == frameDigest(c, 40) {
		t.Fatal("different seeds rendered the same frames")
	}
	m, err := trained()
	if err != nil {
		t.Fatal(err)
	}
	feedsFor := func(srcs []source) []*feed {
		var fs []*feed
		for i, s := range srcs[:2] {
			fs = append(fs, &feed{id: i + 1, src: s, recs: make([]frameRec, 120)})
		}
		return fs
	}
	ra, err := reference(m, m.tm.Cfg.ClipLen, feedsFor(a))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := reference(m, m.tm.Cfg.ClipLen, feedsFor(b))
	if err != nil {
		t.Fatal(err)
	}
	if verdictDigest(ra) != verdictDigest(rb) {
		t.Fatal("same seed gave different reference advisories")
	}
}

func TestWorkloadSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("trains models and drives every workload")
	}
	m, err := trained()
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		// Two intersections keep every workload's shape (open or closed
		// loop, staggered or genlocked, served or direct) at a load the
		// race detector's slowdown does not turn into shedding.
		wl.intersections = min(wl.intersections, 2)
		t.Run(wl.name, func(t *testing.T) {
			srcs := testSources(t, 3, wl.intersections)
			var runs [2]*runResult
			for i, traced := range []bool{false, true} {
				p, err := build(wl, m, srcs, traced)
				if err != nil {
					t.Fatal(err)
				}
				if runs[i], err = drivePipeline(p, m, time.Second); err != nil {
					t.Fatal(err)
				}
				if r := runs[i]; r.acc.due == 0 || r.acc.failed() != 0 || len(r.mismatches) != 0 {
					t.Fatalf("traced=%v: %s, mismatches %q", traced, r.acc.String(), r.mismatches)
				}
			}
			stage, err := stagePass(m, srcs[0], m.tm.Cfg.ClipLen)
			if err != nil {
				t.Fatal(err)
			}
			if len(stage.problems) != 0 {
				t.Fatalf("stage pass: %q", stage.problems)
			}
			rep := perLayer(runs[1], runs[0], stage)
			for _, name := range []string{"safecross.frame_us_p50", "vision.vp_us_mean", "video.forward_b1_us", "rsu.wire_us_p50"} {
				if rep.metrics[name].Value <= 0 {
					t.Errorf("%s = %v, want > 0", name, rep.metrics[name].Value)
				}
			}
			if wl.served && rep.metrics["serve.submit_us_p50"].Value <= 0 {
				t.Errorf("served workload reports no serve.submit time")
			}
		})
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "solo-direct", "--seconds", "0"},
		{"--workload", "solo-direct", "--trace", "2"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code == 0 || out.Len() != 0 {
			t.Errorf("%q: exit %d, stdout %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}

// frameDigest hashes the first n frames of every source.
func frameDigest(srcs []source, n int) string {
	h := sha256.New()
	var buf [8]byte
	for _, s := range srcs {
		for k := 0; k < n; k++ {
			im := s.frame(k)
			for _, v := range im.Pix {
				binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
				h.Write(buf[:])
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// verdictDigest hashes reference verdicts.
func verdictDigest(refs [][]verdict) string {
	h := sha256.New()
	for i, vs := range refs {
		for k, v := range vs {
			fmt.Fprintf(h, "%d/%d:%v,%v,%s;", i, k, v.ready, v.safe, v.scene)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}
