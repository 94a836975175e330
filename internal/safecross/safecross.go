// Package safecross is the paper's primary contribution: the
// framework that oversees an intersection and delivers blind-area
// warnings to left-turning vehicles in real time, adapting to weather
// scenes. It composes the four modules the paper describes:
//
//   - VP  — video pre-processing (internal/vision): dynamic
//     background subtraction, morphology, occupancy-grid remapping.
//   - VC  — video classification (internal/video): SlowFast clips →
//     danger / safe.
//   - FL  — few-shot learning (internal/fewshot): rain and snow
//     models adapted from the daytime model.
//   - MS  — model switching (internal/pipeswitch + internal/weather):
//     scene detection triggers a PipeSwitch model swap in
//     milliseconds.
//
// The Framework consumes camera frames one at a time and emits a
// Decision per frame once its clip buffer is full.
package safecross

import (
	"context"
	"fmt"
	"sync"
	"time"

	"safecross/internal/gpusim"
	"safecross/internal/nn"
	"safecross/internal/pipeswitch"
	"safecross/internal/sim"
	"safecross/internal/telemetry"
	"safecross/internal/tensor"
	"safecross/internal/video"
	"safecross/internal/vision"
	"safecross/internal/weather"
)

// Decision is the framework's per-frame output.
type Decision struct {
	// Ready reports whether the clip buffer held enough frames to
	// classify; when false, Safe is not meaningful.
	Ready bool
	// Safe is the warning verdict: true means the blind area is
	// judged clear and the left turn may proceed.
	Safe bool
	// Scene is the detected weather condition.
	Scene sim.Weather
	// SceneChanged reports that this frame completed a scene change.
	SceneChanged bool
	// Switch describes the model switch performed on a scene change
	// (nil otherwise).
	Switch *pipeswitch.Report
}

// Config configures a Framework.
type Config struct {
	// VP is the video pre-processing configuration (defaults to
	// vision.DefaultVPConfig).
	VP vision.VPConfig
	// ClipLen is the number of grids per classification clip
	// (default sim.SegmentFrames, the paper's 32).
	ClipLen int
	// InitialScene is the scene assumed before the detector settles
	// (default sim.Day).
	InitialScene sim.Weather
	// Debounce is the scene-change debounce window in frames.
	Debounce int
	// SafeStreak is the number of consecutive safe classifications
	// required before a TURN advisory is issued (default 2). A single
	// frame's verdict never releases a turn; danger takes effect
	// immediately. This asymmetric hysteresis is the fail-safe bias a
	// warning system must have.
	SafeStreak int
	// Metrics, when set, records per-frame stage timings
	// (scene-detect, VP pre-processing, classification) and a frame
	// counter into the registry. Nil disables recording at no cost.
	Metrics *telemetry.Registry
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.VP.GridW == 0 {
		c.VP = vision.DefaultVPConfig()
	}
	if c.ClipLen == 0 {
		c.ClipLen = sim.SegmentFrames
	}
	if c.InitialScene == 0 {
		c.InitialScene = sim.Day
	}
	if c.SafeStreak == 0 {
		c.SafeStreak = 2
	}
	return c
}

// Validate rejects unusable configurations.
func (c Config) Validate() error {
	if c.ClipLen < 1 {
		return fmt.Errorf("safecross: clip length %d, need at least 1", c.ClipLen)
	}
	if c.SafeStreak < 1 {
		return fmt.Errorf("safecross: safe streak %d, need at least 1", c.SafeStreak)
	}
	if c.Debounce < 0 {
		return fmt.Errorf("safecross: negative debounce %d", c.Debounce)
	}
	return nil
}

// ClassifyFunc routes a ready clip to an external inference service
// (the serving plane in internal/serve) and returns the predicted
// class label. When a Framework is built with one (NewServed), it
// performs no local classification or model switching — the service
// owns model residency, batching, and GPU scheduling. The context
// bounds the request (deadline and cancellation travel with it), and
// critical reports the framework's fail-safe hint: true while the
// intersection has not yet re-established its safe streak, so the
// service should treat the clip as priority traffic.
type ClassifyFunc func(ctx context.Context, scene sim.Weather, clip *tensor.Tensor, critical bool) (int, error)

// Framework is the SafeCross runtime.
type Framework struct {
	mu sync.Mutex

	cfg      Config
	vp       *vision.Preprocessor
	monitor  *weather.Monitor
	models   map[sim.Weather]video.Classifier
	mgr      *pipeswitch.Manager
	classify ClassifyFunc

	ring       []*vision.Image
	safeStreak int
	// ws is the framework's persistent inference scratch (guarded by
	// mu like the rest of the per-frame state): local classification
	// forwards reuse it across frames, so the steady-state clip path
	// stops allocating activation buffers.
	ws *nn.Workspace

	metrics frameMetrics
}

// frameMetrics times the camera-local pipeline stages of
// ProcessFrameContext. All handles are nil-safe, so a framework built
// without Config.Metrics records nowhere.
type frameMetrics struct {
	frames       *telemetry.Counter
	sceneDetect  *telemetry.Histogram
	vp           *telemetry.Histogram
	classify     *telemetry.Histogram
	frameVerdict *telemetry.Histogram
}

func newFrameMetrics(reg *telemetry.Registry) frameMetrics {
	if reg == nil {
		return frameMetrics{}
	}
	return frameMetrics{
		frames:      reg.Counter("safecross_frames_total", "camera frames processed"),
		sceneDetect: reg.Histogram("safecross_scene_detect_seconds", "per-frame weather scene detection", telemetry.UnitSeconds),
		vp:          reg.Histogram("safecross_vp_seconds", "per-frame VP pre-processing into the clip ring", telemetry.UnitSeconds),
		classify:    reg.Histogram("safecross_classify_seconds", "per-clip classification (local forward or serving-plane round trip)", telemetry.UnitSeconds),
		frameVerdict: reg.Histogram("safecross_frame_verdict_seconds",
			"whole frame ingest to verdict: detection, switching, VP, and classification end to end — the latency the warning-path SLO is judged on",
			telemetry.UnitSeconds),
	}
}

// New assembles a Framework from per-scene classifiers, a fitted
// weather detector, and a model-switch manager. Every scene in models
// must be registered with the manager under sim.Weather.String().
func New(cfg Config, models map[sim.Weather]video.Classifier, det *weather.Detector, mgr *pipeswitch.Manager) (*Framework, error) {
	if len(models) == 0 {
		return nil, fmt.Errorf("safecross: no classifiers")
	}
	if det == nil {
		return nil, fmt.Errorf("safecross: nil weather detector")
	}
	if mgr == nil {
		return nil, fmt.Errorf("safecross: nil model-switch manager")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if _, ok := models[cfg.InitialScene]; !ok {
		return nil, fmt.Errorf("safecross: no classifier for initial scene %v", cfg.InitialScene)
	}
	f := &Framework{
		cfg:     cfg,
		vp:      vision.NewPreprocessor(cfg.VP),
		monitor: weather.NewMonitor(det, cfg.InitialScene, cfg.Debounce),
		models:  models,
		mgr:     mgr,
		metrics: newFrameMetrics(cfg.Metrics),
	}
	if _, err := mgr.Activate(cfg.InitialScene.String()); err != nil {
		return nil, fmt.Errorf("safecross: activate initial scene: %w", err)
	}
	return f, nil
}

// NewDefault builds a fully wired framework on a fresh simulated GPU:
// the three built-in model manifests are registered under their
// scenes and the weather detector is fitted from the simulator.
func NewDefault(cfg Config, models map[sim.Weather]video.Classifier) (*Framework, error) {
	det, err := weather.FitFromSim(20, 12345)
	if err != nil {
		return nil, fmt.Errorf("safecross: fit weather detector: %w", err)
	}
	dev, err := gpusim.NewDevice(gpusim.DefaultConfig())
	if err != nil {
		return nil, fmt.Errorf("safecross: %w", err)
	}
	mgr := pipeswitch.NewManager(dev)
	manifests := map[sim.Weather]pipeswitch.Model{
		sim.Day:  pipeswitch.SafeCrossSlowFast(),
		sim.Rain: pipeswitch.SafeCrossSlowFast(),
		sim.Snow: pipeswitch.SafeCrossSlowFast(),
	}
	for scene := range models {
		m := manifests[scene]
		m.Name = m.Name + "-" + scene.String()
		if err := mgr.Register(scene.String(), m); err != nil {
			return nil, fmt.Errorf("safecross: %w", err)
		}
	}
	return New(cfg, models, det, mgr)
}

// NewServed assembles a Framework whose classification path is an
// external inference service instead of locally owned models: scene
// detection and VP pre-processing stay in-process (they are cheap and
// camera-local), while every ready clip is submitted through classify.
// The service is responsible for per-scene model routing and
// switching, so Decision.Switch is always nil and Manager returns nil.
func NewServed(cfg Config, classify ClassifyFunc, det *weather.Detector) (*Framework, error) {
	if classify == nil {
		return nil, fmt.Errorf("safecross: nil classify func")
	}
	if det == nil {
		return nil, fmt.Errorf("safecross: nil weather detector")
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Framework{
		cfg:      cfg,
		vp:       vision.NewPreprocessor(cfg.VP),
		monitor:  weather.NewMonitor(det, cfg.InitialScene, cfg.Debounce),
		classify: classify,
		metrics:  newFrameMetrics(cfg.Metrics),
	}, nil
}

// Scene returns the currently settled weather scene.
func (f *Framework) Scene() sim.Weather {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.monitor.Current()
}

// Manager exposes the model-switch manager (for SLO inspection). It
// is nil for served frameworks (NewServed), where the inference
// service owns switching.
func (f *Framework) Manager() *pipeswitch.Manager { return f.mgr }

// ProcessFrame ingests one camera frame with a background context; see
// ProcessFrameContext.
func (f *Framework) ProcessFrame(frame *vision.Image) (*Decision, error) {
	return f.ProcessFrameContext(context.Background(), frame)
}

// ProcessFrameContext ingests one camera frame: scene detection
// (possibly switching models), VP pre-processing into the clip ring,
// and — once the ring is full — classification into a warning
// decision. The context travels to the classify path: served
// frameworks pass it (with its deadline and cancellation) to their
// ClassifyFunc, together with the fail-safe criticality hint — a clip
// is critical while the intersection has not re-established its safe
// streak, i.e. whenever the current advisory is (or is about to be)
// "don't turn".
func (f *Framework) ProcessFrameContext(ctx context.Context, frame *vision.Image) (*Decision, error) {
	f.mu.Lock()
	defer f.mu.Unlock()

	d := &Decision{}
	f.metrics.frames.Inc()
	frameStart := time.Now()
	detectStart := frameStart
	scene, changed := f.monitor.Observe(frame)
	f.metrics.sceneDetect.ObserveDuration(time.Since(detectStart))
	d.Scene = scene
	d.SceneChanged = changed
	if changed && f.classify == nil {
		// Served frameworks skip this: the serving plane routes each
		// clip to a warm worker and switches models itself.
		if _, ok := f.models[scene]; !ok {
			return nil, fmt.Errorf("safecross: no classifier for scene %v", scene)
		}
		rep, err := f.mgr.Activate(scene.String())
		if err != nil {
			return nil, fmt.Errorf("safecross: scene switch: %w", err)
		}
		d.Switch = &rep
	}

	vpStart := time.Now()
	grid, err := f.vp.Process(frame)
	if err != nil {
		return nil, fmt.Errorf("safecross: %w", err)
	}
	f.metrics.vp.ObserveDuration(time.Since(vpStart))
	f.ring = append(f.ring, grid)
	if len(f.ring) > f.cfg.ClipLen {
		f.ring = f.ring[1:]
	}
	if len(f.ring) < f.cfg.ClipLen {
		return d, nil
	}

	clip, err := vision.ClipTensor(f.ring)
	if err != nil {
		return nil, fmt.Errorf("safecross: %w", err)
	}
	var label int
	classifyStart := time.Now()
	if f.classify != nil {
		// The fail-safe hint: until the safe streak is re-established,
		// the intersection is advising "don't turn" and the next verdict
		// decides whether it may release — priority traffic.
		critical := f.safeStreak < f.cfg.SafeStreak
		if label, err = f.classify(ctx, scene, clip, critical); err != nil {
			return nil, fmt.Errorf("safecross: classify: %w", err)
		}
	} else {
		if f.ws == nil {
			f.ws = nn.NewWorkspace()
		}
		labels, err := video.PredictBatch(f.models[scene], []*tensor.Tensor{clip}, f.ws)
		if err != nil {
			return nil, fmt.Errorf("safecross: classify: %w", err)
		}
		label = labels[0]
	}
	f.metrics.classify.ObserveDuration(time.Since(classifyStart))
	// The verdict histogram only counts frames that produced one: the
	// warning-path SLO judges how fast a verdict arrives, and ring-fill
	// frames that cannot yield a verdict would only dilute the tail.
	f.metrics.frameVerdict.ObserveDuration(time.Since(frameStart))
	d.Ready = true
	// Fail-safe hysteresis: danger verdicts take effect immediately;
	// TURN is only advised after SafeStreak consecutive safe verdicts.
	if label == 1 { // dataset.ClassSafe
		f.safeStreak++
	} else {
		f.safeStreak = 0
	}
	d.Safe = f.safeStreak >= f.cfg.SafeStreak
	return d, nil
}

// Reset clears the clip ring and the VP background, as after a camera
// feed interruption.
func (f *Framework) Reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ring = nil
	f.safeStreak = 0
	f.vp.Reset()
}
