// Command e2ebench is the end-to-end benchmark of the SafeCross
// advisory path: camera frame → weather detect → VP → classify (local
// or through the serve plane) → RSU broadcast → a vehicle decoding the
// advisory over TCP. It deploys the pipeline the way cmd/safecross-rsu
// does, drives it with a seeded workload, checks every advisory
// against a reference replay, and prints one JSON result line last.
//
// Usage, from the repository root:
//
//	bash e2ebench/run.sh --workload city-staggered --seed 1 --seconds 12 --trace 0
//
// See README.md in this directory for the metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

const (
	// setupReps is how many times a plain run sets the pipeline up;
	// setup_s is their median.
	setupReps = 3
	// watchdog bounds a whole run, under the 180 s a run may take.
	watchdog = 170 * time.Second
	// maxPrinted caps the mismatch lines printed.
	maxPrinted = 50
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: city-staggered, city-genlock or solo-direct")
	seed := fs.Int64("seed", 1, "workload seed: the camera frames are rendered from it")
	seconds := fs.Int("seconds", 12, "length of the timed window in seconds")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 runs the traced pass and reports the per-layer metrics")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced pass writes its span file to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	wl, err := findWorkload(*name)
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "e2ebench: need --workload (city-staggered, city-genlock, solo-direct), --seconds ≥ 1 and --trace 0 or 1\n")
		return 2
	}
	timer := time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "e2ebench: run exceeded %v, aborting\n", watchdog)
		os.Exit(3)
	})
	defer timer.Stop()

	window := time.Duration(*seconds) * time.Second
	var res *result
	if *trace == 1 {
		path := filepath.Join(*spans, fmt.Sprintf("%s-seed%d.jsonl", wl.name, *seed))
		res, err = tracedRun(wl, *seed, window, path, stdout)
	} else {
		res, err = plainRun(wl, *seed, window, stdout)
	}
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-36s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// plainRun renders the workload, sets the pipeline up setupReps times,
// drives the last one untraced and reports the end-to-end metrics.
func plainRun(wl workload, seed int64, window time.Duration, out io.Writer) (*result, error) {
	pool, err := renderSequences(seed, min(recordedSequences, wl.intersections))
	if err != nil {
		return nil, err
	}
	srcs := sources(pool, wl.intersections)
	var (
		m      *models
		p      *pipeline
		setups []time.Duration
	)
	for i := 0; i < setupReps; i++ {
		if p != nil {
			p.close()
			p, m = nil, nil
		}
		runtime.GC()
		start := time.Now()
		if m, err = train(); err != nil {
			return nil, err
		}
		if p, err = build(wl, m, srcs, false); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(start))
	}
	setupRSS := maxRSSMB()
	r, err := drivePipeline(p, m, window)
	if err != nil {
		return nil, err
	}
	metrics, note, err := endToEnd(r, median(setups))
	if err != nil {
		return nil, err
	}
	fmt.Fprintf(out, "workload %s, seed %d, %v window; set-up runs %v, peak RSS %.1f MB after set-up\n", wl.name, seed, window, setups, setupRSS)
	fmt.Fprintln(out, note)
	fmt.Fprintln(out, loadgenNote(r))
	printMismatches(out, r.mismatches)
	// The tail is printed with the other end-to-end metrics but kept out
	// of the result line, which holds the gated metrics only: its
	// run-to-run spread on a shared host is wider than any bound the
	// benchmark may set. The traced pass reports it among the
	// per-layer metrics.
	p99 := metrics[tailMetric]
	delete(metrics, tailMetric)
	fmt.Fprintf(out, "%-36s %14.4f %s (not gated)\n", tailMetric, p99.Value, p99.Unit)
	return &result{
		Correct:   len(r.mismatches) == 0,
		Attempted: r.acc.due,
		Failed:    r.acc.failed(),
		Metrics:   metrics,
	}, nil
}

// tracedRun trains once, drives an untraced and then a traced pipeline
// (the registry and tracer wired into every layer), runs the stage
// pass, writes the spans, and reports the per-layer metrics.
func tracedRun(wl workload, seed int64, window time.Duration, spansPath string, out io.Writer) (*result, error) {
	pool, err := renderSequences(seed, min(recordedSequences, wl.intersections))
	if err != nil {
		return nil, err
	}
	srcs := sources(pool, wl.intersections)
	m, err := train()
	if err != nil {
		return nil, err
	}
	var runs [2]*runResult
	for i, traced := range []bool{false, true} {
		p, err := build(wl, m, srcs, traced)
		if err != nil {
			return nil, err
		}
		if runs[i], err = drivePipeline(p, m, window); err != nil {
			return nil, err
		}
	}
	plain, traced := runs[0], runs[1]
	stage, err := stagePass(m, srcs[0], traced.p.clipLen)
	if err != nil {
		return nil, err
	}
	rep := perLayer(traced, plain, stage)
	if err := writeSpans(spansPath, rep.spans); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	fmt.Fprintf(out, "workload %s, seed %d, %v window, traced pass\n", wl.name, seed, window)
	for _, r := range runs {
		e2e, note, err := endToEnd(r, 0)
		if err != nil {
			return nil, err
		}
		mode := "untraced"
		if r == traced {
			mode = "traced"
		}
		fmt.Fprintf(out, "%s: advisory p50 %.4f ms, p99 %.4f ms, %.2f frames/s; %s\n", mode,
			e2e["advisory_p50_ms"].Value, e2e[tailMetric].Value, e2e["frames_per_s"].Value, note)
		fmt.Fprintln(out, loadgenNote(r))
		printMismatches(out, r.mismatches)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(out, n)
	}
	for _, p := range stage.problems {
		fmt.Fprintln(out, "stage pass:", p)
	}
	fmt.Fprintf(out, "spans: %d written to %s\n", len(rep.spans), spansPath)
	return &result{
		Correct:   len(plain.mismatches) == 0 && len(traced.mismatches) == 0 && len(stage.problems) == 0,
		Attempted: plain.acc.due + traced.acc.due,
		Failed:    plain.acc.failed() + traced.acc.failed(),
		Metrics:   rep.metrics,
	}, nil
}

// loadgenNote is the generator's validity guard: how late it woke and
// how far any feed fell behind.
func loadgenNote(r *runResult) string {
	if r.wl.closedLoop {
		return "loadgen: closed loop, no schedule to be late for"
	}
	return fmt.Sprintf("loadgen: late p99 %.4f ms over %d wake-ups, backlog max %d frames",
		r.w.late.msP(99), len(r.w.late), backlogMax(r))
}

// backlogMax is the most frames any feed had due but not started.
func backlogMax(r *runResult) int {
	backlog := 0
	for i, f := range r.p.feeds {
		for k := r.w.first[i]; k < r.w.end[i]; k++ {
			backlog = max(backlog, f.recs[k].backlog)
		}
	}
	return backlog
}

func printMismatches(out io.Writer, mm []string) {
	for i, s := range mm {
		if i == maxPrinted {
			fmt.Fprintf(out, "... and %d more mismatches\n", len(mm)-maxPrinted)
			return
		}
		fmt.Fprintln(out, "mismatch", s)
	}
}

func median(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}
