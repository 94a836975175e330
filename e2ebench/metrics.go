package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB is the process's peak resident set size in MB.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// rank is the 1-based nearest rank of the p-th percentile of n
// samples. The epsilon keeps decimal percentiles such as 99.9 from
// rounding up a rank that is exact.
func rank(p float64, n int) int {
	return min(max(int(math.Ceil(p/100*float64(n)-1e-9)), 1), n)
}

// percentile is the nearest-rank p-th percentile of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(p, len(sorted))-1]
}

// tailLadder lists the percentiles a tail may be reported at, highest
// first.
var tailLadder = []float64{99.9, 99, 95, 90, 50}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tail picks the highest percentile in tailLadder with at least
// minBeyond samples beyond it, and returns it with its value and that
// count. ok is false when even the median has fewer.
func tail(sorted []float64) (p, v float64, beyond int, ok bool) {
	n := len(sorted)
	for _, p := range tailLadder {
		if r := rank(p, n); n > 0 && n-r >= minBeyond {
			return p, sorted[r-1], n - r, true
		}
	}
	return 0, 0, 0, false
}

// Tail slicing: the reported p99 is the median of the p99s of up to
// maxSlices consecutive parts of the window, each of at least
// minSliceFrames frames (so ≥ 10 lie beyond each part's p99). One
// burst of host CPU steal then moves one part's p99, not the result.
const (
	maxSlices      = 4
	minSliceFrames = 1000
)

// slicedP99 orders the frames by due time, splits them into equal
// consecutive parts as above, and returns the median of the parts'
// p99s with the number of parts. ok is false under minSliceFrames
// frames.
func slicedP99(latencies []float64, dues []time.Duration) (p99 float64, parts int, ok bool) {
	n := len(latencies)
	parts = min(maxSlices, n/minSliceFrames)
	if parts == 0 {
		return 0, 0, false
	}
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return dues[order[a]] < dues[order[b]] })
	p99s := make([]float64, parts)
	for j := range p99s {
		part := make([]float64, 0, n/parts+1)
		for _, i := range order[j*n/parts : (j+1)*n/parts] {
			part = append(part, latencies[i])
		}
		sort.Float64s(part)
		p99s[j] = percentile(part, 99)
	}
	sort.Float64s(p99s)
	if parts%2 == 1 {
		return p99s[parts/2], parts, true
	}
	return (p99s[parts/2-1] + p99s[parts/2]) / 2, parts, true
}

// samples collects durations and reports their percentiles.
type samples []time.Duration

// sorted returns the samples in milliseconds, ascending.
func (s samples) sorted() []float64 {
	out := make([]float64, len(s))
	for i, d := range s {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// us returns the p-th percentile in microseconds (0 when empty).
func (s samples) us(p float64) float64 { return percentile(s.sorted(), p) * 1000 }

// msP returns the p-th percentile in milliseconds (0 when empty).
func (s samples) msP(p float64) float64 { return percentile(s.sorted(), p) }

// outcome classifies one frame of the timed window.
type outcome int

const (
	delivered outcome = iota
	missing           // the vehicle never decoded its advisory
	shed              // the serve plane shed the clip to fail-safe danger
	mismatch          // the decoded advisory differs from the reference
	errored           // ProcessFrameContext returned an error
)

func (o outcome) String() string {
	return [...]string{"delivered", "missing", "shed", "mismatch", "error"}[o]
}

// verdict is the part of an advisory the reference check compares.
type verdict struct {
	ready, safe bool
	scene       string
}

// judge classifies one frame. A shed clip fails even when its
// fail-safe danger happens to equal the reference.
func judge(rec *frameRec, got *receipt, want verdict) outcome {
	switch {
	case rec.err != nil:
		return errored
	case rec.shed:
		return shed
	case got == nil:
		return missing
	case (verdict{got.ready, got.safe, got.scene}) != want:
		return mismatch
	}
	return delivered
}

// accounting tallies the timed window.
type accounting struct {
	due      int
	outcomes [errored + 1]int
	// latencies holds one entry per frame due: decode − due for
	// delivered frames, +Inf for failed ones (a failed frame misses
	// every latency limit). dues holds each frame's due time, from the
	// window's start.
	latencies []float64
	dues      []time.Duration
}

func (a *accounting) add(o outcome, due, latency time.Duration) {
	a.due++
	a.outcomes[o]++
	a.dues = append(a.dues, due)
	if o == delivered {
		a.latencies = append(a.latencies, float64(latency)/float64(time.Millisecond))
	} else {
		a.latencies = append(a.latencies, math.Inf(1))
	}
}

// sortedLatencies returns a sorted copy of the latencies.
func (a *accounting) sortedLatencies() []float64 {
	lat := append([]float64(nil), a.latencies...)
	sort.Float64s(lat)
	return lat
}

func (a *accounting) failed() int { return a.due - a.outcomes[delivered] }

func (a *accounting) String() string {
	return fmt.Sprintf("due=%d delivered=%d missing=%d shed=%d mismatch=%d error=%d",
		a.due, a.outcomes[delivered], a.outcomes[missing], a.outcomes[shed], a.outcomes[mismatch], a.outcomes[errored])
}
