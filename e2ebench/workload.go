package main

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"

	"safecross/internal/dataset"
	"safecross/internal/experiments"
	"safecross/internal/pipeswitch"
	"safecross/internal/rsu"
	"safecross/internal/safecross"
	"safecross/internal/serve"
	"safecross/internal/sim"
	"safecross/internal/telemetry"
	"safecross/internal/tensor"
	"safecross/internal/vision"
	"safecross/internal/weather"
)

// Load-shape constants shared by every workload.
const (
	// fps is the camera rate; period is one frame at that rate and is
	// also the advisory latency limit.
	fps    = 30
	period = time.Second / fps
	// sceneFrames is how long each weather scene lasts in a recorded
	// sequence (day → rain → snow).
	sceneFrames = 120
	// recordedSequences bounds the frame pool: intersections share
	// these sequences at different offsets, so the pool stays at
	// recordedSequences × 3 × sceneFrames frames (≈82 KB each) however
	// many intersections run, and max_rss_mb measures the program, not
	// the generator.
	recordedSequences = 2
	// warmup runs before the timed window so the clip rings fill, the
	// serve plane's workspaces and models load, and the first GC
	// cycles pass.
	warmup = time.Second
	// ackTimeout bounds how long a closed-loop feed waits for the
	// vehicle to decode an advisory before counting it missing.
	ackTimeout = time.Second
	// drainTimeout bounds the wait for in-flight advisories after the
	// last frame was broadcast.
	drainTimeout = 2 * time.Second
)

// workload is one traffic shape.
type workload struct {
	name          string
	intersections int
	// served classifies through one shared serve.Server; otherwise
	// the intersection classifies locally (safecross.NewDefault). Direct
	// workloads have one intersection: the trained classifiers carry
	// forward-pass state and are not shared between feeds.
	served bool
	// closedLoop sends the next frame when the vehicle has decoded the
	// previous advisory; otherwise frames are sent on the camera
	// schedule regardless (open loop).
	closedLoop bool
	// genlock puts every camera at phase 0; otherwise phases are
	// spread evenly over one frame period.
	genlock bool
}

// cityIntersections is the city workloads' feed count. At 8 × 30 fps
// the advisory path needs about half a CPU, so the plane keeps up on one
// of the two vCPUs while the host steals the other; at 16 feeds it
// needed more than one, and advisory_p50_ms swung from 2.2 to 3.9 ms
// between otherwise identical runs.
const cityIntersections = 8

var workloads = []workload{
	{name: "city-staggered", intersections: cityIntersections, served: true},
	{name: "city-genlock", intersections: cityIntersections, served: true, genlock: true},
	{name: "solo-direct", intersections: 1, closedLoop: true},
}

func findWorkload(name string) (workload, error) {
	for _, wl := range workloads {
		if wl.name == name {
			return wl, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// phase is the camera phase of the feed with the given 0-based index.
func (wl workload) phase(idx int) time.Duration {
	if wl.genlock || wl.intersections == 1 {
		return 0
	}
	return time.Duration(idx) * period / time.Duration(wl.intersections)
}

// framePool holds the recorded sequences in one read-only anonymous
// mapping outside the Go heap, as a frame grabber's capture buffers
// would be: the pool adds its size to RSS once, but neither raises the
// program's GC heap goal nor lets the program write to a frame (a
// write would fault, since intersections share frames).
type framePool struct {
	seqs [][]*vision.Image
	mem  []byte
}

// renderSequences records the frame pool from the seed: n sequences,
// each day → rain → snow with sceneFrames frames per scene.
func renderSequences(seed int64, n int) (*framePool, error) {
	var frames []*vision.Image
	for s := 0; s < n; s++ {
		for si, w := range sim.AllWeathers() {
			world := sim.NewWorld(sim.Config{
				Weather:       w,
				TruckPresent:  true,
				TurnerEnabled: true,
				TurnerRespawn: true,
				Seed:          seed*7919 + int64(s)*31 + int64(si),
			})
			for i := 0; i < sceneFrames; i++ {
				world.Step()
				frames = append(frames, world.Render())
			}
		}
	}
	pixels := 0
	for _, f := range frames {
		pixels += len(f.Pix)
	}
	mem, err := syscall.Mmap(-1, 0, pixels*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("map frame pool: %w", err)
	}
	all := unsafe.Slice((*float64)(unsafe.Pointer(&mem[0])), pixels)
	pool := &framePool{seqs: make([][]*vision.Image, n), mem: mem}
	for i, f := range frames {
		pix := all[:len(f.Pix):len(f.Pix)]
		all = all[len(f.Pix):]
		copy(pix, f.Pix)
		s := i / (len(frames) / n)
		pool.seqs[s] = append(pool.seqs[s], &vision.Image{W: f.W, H: f.H, Pix: pix})
	}
	if err := syscall.Mprotect(mem, syscall.PROT_READ); err != nil {
		pool.release()
		return nil, fmt.Errorf("protect frame pool: %w", err)
	}
	return pool, nil
}

// release unmaps the pool; no frame of it may be used afterwards.
func (p *framePool) release() error { return syscall.Munmap(p.mem) }

// source is one intersection's camera feed: a recorded sequence played
// in a loop from an offset.
type source struct {
	seq    []*vision.Image
	offset int
}

func (s source) frame(k int) *vision.Image { return s.seq[(s.offset+k)%len(s.seq)] }

// sources assigns the recorded sequences to n intersections: feed i
// plays sequence i mod len(seqs), and feeds sharing a sequence start
// evenly spaced along it, so each begins at its own point of the
// weather cycle.
func sources(pool *framePool, n int) []source {
	seqs := pool.seqs
	perSeq := (n + len(seqs) - 1) / len(seqs)
	out := make([]source, n)
	for i := range out {
		seq := seqs[i%len(seqs)]
		out[i] = source{seq: seq, offset: (i / len(seqs)) * len(seq) / perSeq}
	}
	return out
}

// models is what training produces: per-scene classifiers and the
// weather detector.
type models struct {
	tm  *experiments.TrainedModels
	det *weather.Detector
}

func train() (*models, error) {
	tm, err := experiments.TrainSceneModels(experiments.Quick())
	if err != nil {
		return nil, fmt.Errorf("train scene models: %w", err)
	}
	det, err := weather.FitFromSim(20, 12345)
	if err != nil {
		return nil, fmt.Errorf("fit weather detector: %w", err)
	}
	return &models{tm: tm, det: det}, nil
}

// frameRec is everything the benchmark records about one frame. The
// feed goroutine owns it; the vehicle's receipts are kept apart and
// joined after the run.
type frameRec struct {
	due       time.Time // when the camera produced it (open loop) or when it was sent (closed loop)
	start     time.Time // when the feed started processing it
	processed time.Time // ProcessFrameContext returned
	broadcast time.Time // Broadcast returned
	// backlog counts later frames of the same feed already due when
	// this one started.
	backlog int

	err   error
	shed  bool // the serve plane shed the clip; the advisory is fail-safe danger
	sent  bool // an advisory was broadcast
	ready bool
	safe  bool
	scene sim.Weather

	// Filled only in the traced run.
	submitStart, submitEnd time.Time
	verdict                bool
	timing                 serve.Timing
	switchRep              *pipeswitch.Report
	children               [3]time.Duration // solo-direct: registry detect, vp, classify deltas
}

// feed is one intersection.
type feed struct {
	id   int // intersection number, from 1 (0 on the wire means "all")
	src  source
	recs []frameRec
	// cur is the frame being processed; the classify hook writes into
	// it. Only the feed's goroutine touches it.
	cur *frameRec
}

// receipt is one advisory as the vehicle decoded it.
type receipt struct {
	intersection, frame int
	at                  time.Time
	ready, safe         bool
	scene               string
}

// vehicle is the single TCP subscriber, watching every intersection.
type vehicle struct {
	cli      *rsu.Client
	receipts []receipt
	received atomic.Int64
	acks     chan int // closed loop: frame numbers as they are decoded
	done     chan struct{}
}

func (v *vehicle) run() {
	defer close(v.done)
	for msg := range v.cli.Messages() {
		if msg.Type != rsu.TypeAdvisory {
			continue
		}
		at := time.Now()
		v.receipts = append(v.receipts, receipt{
			intersection: msg.Intersection, frame: msg.Frame, at: at,
			ready: msg.Ready, safe: msg.Safe, scene: msg.Scene,
		})
		v.received.Add(1)
		if v.acks != nil {
			select {
			case v.acks <- msg.Frame:
			default:
			}
		}
	}
}

// pipeline is one deployed instance of the advisory path.
type pipeline struct {
	wl      workload
	clipLen int
	plane   *serve.Server // nil on direct workloads
	fws     []*safecross.Framework
	srv     *rsu.Server
	veh     *vehicle
	feeds   []*feed
	// reg is non-nil only in the traced run, where it is wired into
	// every layer that accepts one.
	reg *telemetry.Registry
	// children are the registry series solo-direct's frame self time
	// is taken against (traced run only).
	children [3]*telemetry.Histogram
}

// build deploys the pipeline: serve plane (when served), one framework
// per intersection, RSU listener, and the vehicle connection.
func build(wl workload, m *models, srcs []source, traced bool) (p *pipeline, err error) {
	p = &pipeline{wl: wl, clipLen: m.tm.Cfg.ClipLen}
	defer func() {
		if err != nil {
			p.close()
		}
	}()
	var tracer *telemetry.Tracer
	if traced {
		p.reg = telemetry.NewRegistry()
		tracer = telemetry.NewTracer(telemetry.DefaultTraceRetention)
	}
	for i := 0; i < wl.intersections; i++ {
		p.feeds = append(p.feeds, &feed{id: i + 1, src: srcs[i]})
	}
	cfg := safecross.Config{ClipLen: p.clipLen, Metrics: p.reg}
	if wl.served {
		p.plane, err = serve.New(serve.Config{
			Workers: runtime.NumCPU(),
			Metrics: p.reg,
			Tracer:  tracer,
		}, serve.Replicas(m.tm.Builder, m.tm.Models))
		if err != nil {
			return p, fmt.Errorf("serve plane: %w", err)
		}
		for _, f := range p.feeds {
			fw, err := safecross.NewServed(cfg, p.classify(f), m.det)
			if err != nil {
				return p, fmt.Errorf("intersection %d: %w", f.id, err)
			}
			p.fws = append(p.fws, fw)
		}
	} else {
		for _, f := range p.feeds {
			fw, err := safecross.NewDefault(cfg, m.tm.Models)
			if err != nil {
				return p, fmt.Errorf("intersection %d: %w", f.id, err)
			}
			p.fws = append(p.fws, fw)
		}
		if traced {
			for i, name := range []string{"safecross_scene_detect_seconds", "safecross_vp_seconds", "safecross_classify_seconds"} {
				if p.children[i] = p.reg.FindHistogram(name); p.children[i] == nil {
					return p, fmt.Errorf("registry has no %s series", name)
				}
			}
		}
	}
	var opts []rsu.ServerOption
	if traced {
		opts = append(opts, rsu.WithMetrics(p.reg), rsu.WithTracer(tracer))
	}
	if p.srv, err = rsu.Listen("127.0.0.1:0", opts...); err != nil {
		return p, err
	}
	cli, err := rsu.Dial(p.srv.Addr(), "bench-vehicle")
	if err != nil {
		return p, fmt.Errorf("vehicle: %w", err)
	}
	p.veh = &vehicle{cli: cli, done: make(chan struct{})}
	if wl.closedLoop {
		// One slot per feed; a feed skips acks for frames it already
		// gave up on.
		p.veh.acks = make(chan int, wl.intersections)
	}
	go p.veh.run()
	return p, nil
}

// classify is the served frameworks' ClassifyFunc, the same policy as
// cmd/safecross-rsu: a clip the plane sheds becomes fail-safe danger.
func (p *pipeline) classify(f *feed) safecross.ClassifyFunc {
	traced := p.reg != nil
	return func(ctx context.Context, scene sim.Weather, clip *tensor.Tensor, critical bool) (int, error) {
		req := serve.Request{Scene: scene, Clip: clip}
		if critical {
			req.Priority = serve.Critical
		}
		rec := f.cur
		if traced {
			rec.submitStart = time.Now()
		}
		v, err := p.plane.Submit(ctx, req)
		if traced {
			rec.submitEnd = time.Now()
		}
		switch {
		case err == nil:
			if traced {
				rec.verdict, rec.timing = true, v.Timing
			}
			return v.Label, nil
		case errors.Is(err, serve.ErrQueueFull),
			errors.Is(err, serve.ErrDeadlineExceeded),
			errors.Is(err, context.DeadlineExceeded):
			rec.shed = true
			return dataset.ClassDanger, nil
		default:
			return 0, err
		}
	}
}

// step processes one frame and broadcasts its advisory.
func (p *pipeline) step(f *feed, rec *frameRec, k int) {
	f.cur = rec
	var before [3]int64
	if p.children[0] != nil {
		for i, h := range p.children {
			before[i] = h.Sum()
		}
	}
	d, err := p.fws[f.id-1].ProcessFrameContext(context.Background(), f.src.frame(k))
	rec.processed = time.Now()
	if p.children[0] != nil {
		for i, h := range p.children {
			rec.children[i] = time.Duration(h.Sum() - before[i])
		}
	}
	if err != nil {
		rec.err = err
		return
	}
	rec.ready, rec.safe, rec.scene, rec.switchRep = d.Ready, d.Safe, d.Scene, d.Switch
	p.srv.Broadcast(rsu.IntersectionAdvisory(f.id, k, d))
	rec.broadcast = time.Now()
	rec.sent = true
}

// window is the timed part of a run.
type window struct {
	start time.Time // first frame due in the window
	// cpuStart and cpuEnd are the process CPU time at the window's
	// start and once the last advisory arrived.
	cpuStart, cpuEnd time.Duration
	first            []int // per feed: index of the first frame in the window
	end              []int // per feed: one past the last frame in the window
	// late is wake − due of every generator wake-up (open loop).
	late samples
}

// drive runs the warm-up and the timed window, then waits for the
// advisories in flight.
func (p *pipeline) drive(seconds time.Duration) *window {
	origin := time.Now().Add(20 * time.Millisecond)
	w := &window{
		start: origin.Add(warmup),
		first: make([]int, len(p.feeds)),
		end:   make([]int, len(p.feeds)),
	}
	var wg sync.WaitGroup
	if p.wl.closedLoop {
		for i, f := range p.feeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				w.first[i], w.end[i] = p.closedLoop(f, w.start, w.start.Add(seconds))
			}()
		}
	} else {
		warm := int(warmup / period)
		n := warm + int(seconds/period)
		scheds := make([]schedule, len(p.feeds))
		for i, f := range p.feeds {
			scheds[i] = schedule{origin: origin.Add(p.wl.phase(i)), period: period}
			f.recs = make([]frameRec, n)
			w.first[i], w.end[i] = warm, n
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.late = openLoop(scheds, n, func(i, k, backlog int) {
				f := p.feeds[i]
				rec := &f.recs[k]
				rec.due, rec.start, rec.backlog = scheds[i].due(k), time.Now(), backlog
				p.step(f, rec, k)
			})
		}()
	}
	time.Sleep(time.Until(w.start))
	w.cpuStart = cpuTime()
	wg.Wait()

	var sent int64
	for _, f := range p.feeds {
		for k := range f.recs {
			if f.recs[k].sent {
				sent++
			}
		}
	}
	deadline := time.Now().Add(drainTimeout)
	for p.veh.received.Load() < sent && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	w.cpuEnd = cpuTime()
	return w
}

// schedule is one camera's open-loop clock.
type schedule struct {
	origin time.Time
	period time.Duration
}

func (s schedule) due(k int) time.Time { return s.origin.Add(time.Duration(k) * s.period) }

// openLoop releases frames 0..n-1 of every feed when they are due:
// one generator goroutine sleeps until the next due time and hands the
// frame to its feed's goroutine, which runs step(feed, frame, backlog),
// backlog being the feed's frames released but not yet started. A feed
// that is still busy starts the frame late, and each frame's latency is
// later taken from its due time, so a stall is charged to every frame
// it delays. It returns wake − due of every generator wake-up.
func openLoop(scheds []schedule, n int, step func(i, k, backlog int)) samples {
	type event struct {
		due     time.Time
		feed, k int
	}
	events := make([]event, 0, n*len(scheds))
	for k := 0; k < n; k++ {
		for i, s := range scheds {
			events = append(events, event{s.due(k), i, k})
		}
	}
	sort.SliceStable(events, func(a, b int) bool { return events[a].due.Before(events[b].due) })

	var wg sync.WaitGroup
	queues := make([]chan int, len(scheds))
	for i := range queues {
		// Sized to every frame of the feed, so the generator never blocks.
		queues[i] = make(chan int, n)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := range queues[i] {
				step(i, k, len(queues[i]))
			}
		}()
	}
	var late samples
	for _, e := range events {
		if wait := time.Until(e.due); wait > 0 {
			time.Sleep(wait)
			late = append(late, time.Since(e.due))
		}
		queues[e.feed] <- e.k
	}
	for _, q := range queues {
		close(q)
	}
	wg.Wait()
	return late
}

// closedLoop sends frames back to back, each once the vehicle has
// decoded the previous advisory, until end. It returns the window's
// frame range: frames sent at or after windowStart.
func (p *pipeline) closedLoop(f *feed, windowStart, end time.Time) (first, last int) {
	first = -1
	timer := time.NewTimer(ackTimeout)
	timer.Stop()
	for k := 0; ; k++ {
		now := time.Now()
		if !now.Before(end) {
			if first < 0 {
				first = k
			}
			return first, k
		}
		if first < 0 && !now.Before(windowStart) {
			first = k
		}
		f.recs = append(f.recs, frameRec{due: now, start: now})
		rec := &f.recs[k]
		p.step(f, rec, k)
		if !rec.sent {
			continue
		}
		timer.Reset(ackTimeout)
	wait:
		for {
			select {
			case got := <-p.veh.acks:
				if got == k {
					break wait
				}
			case <-timer.C:
				break wait
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
	}
}

// close tears the pipeline down and waits for the vehicle's reader.
func (p *pipeline) close() {
	if p.veh != nil {
		p.veh.cli.Close()
		<-p.veh.done
	}
	if p.srv != nil {
		p.srv.Close()
	}
	if p.plane != nil {
		p.plane.Close()
	}
}
