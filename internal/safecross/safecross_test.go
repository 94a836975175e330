package safecross

import (
	"context"
	"errors"
	"math"
	"testing"

	"safecross/internal/dataset"
	"safecross/internal/gpusim"
	"safecross/internal/pipeswitch"
	"safecross/internal/sim"
	"safecross/internal/tensor"
	"safecross/internal/video"
	"safecross/internal/vision"
	"safecross/internal/weather"
)

// newTestModels builds small untrained classifiers for all scenes
// (plumbing tests do not assert accuracy).
func newTestModels(t *testing.T, clipLen int) map[sim.Weather]video.Classifier {
	t.Helper()
	models := make(map[sim.Weather]video.Classifier, 3)
	for i, w := range sim.AllWeathers() {
		cfg := video.SlowFastConfig{T: clipLen, H: 10, W: 16, Alpha: 8, Classes: 2, Lateral: true, Seed: int64(i + 1)}
		m, err := video.NewSlowFast(cfg)
		if err != nil {
			t.Fatal(err)
		}
		models[w] = m
	}
	return models
}

func newTestFramework(t *testing.T, clipLen int) *Framework {
	t.Helper()
	det, err := weather.FitFromSim(15, 99)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := gpusim.NewDevice(gpusim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mgr := pipeswitch.NewManager(dev)
	for _, w := range sim.AllWeathers() {
		m := pipeswitch.SafeCrossSlowFast()
		m.Name += "-" + w.String()
		if err := mgr.Register(w.String(), m); err != nil {
			t.Fatal(err)
		}
	}
	f, err := New(Config{ClipLen: clipLen}, newTestModels(t, clipLen), det, mgr)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestNewValidation(t *testing.T) {
	det, err := weather.FitFromSim(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := gpusim.NewDevice(gpusim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mgr := pipeswitch.NewManager(dev)
	models := newTestModels(t, 16)

	if _, err := New(Config{}, nil, det, mgr); err == nil {
		t.Fatal("expected no-classifiers error")
	}
	if _, err := New(Config{}, models, nil, mgr); err == nil {
		t.Fatal("expected nil-detector error")
	}
	if _, err := New(Config{}, models, det, nil); err == nil {
		t.Fatal("expected nil-manager error")
	}
	// Manager without the initial scene registered must fail on
	// activation.
	if _, err := New(Config{ClipLen: 16}, models, det, mgr); err == nil {
		t.Fatal("expected activation error for unregistered scene")
	}
}

func TestProcessFrameFillsRingThenDecides(t *testing.T) {
	const clipLen = 16
	f := newTestFramework(t, clipLen)

	world := sim.NewWorld(sim.Config{Weather: sim.Day, TruckPresent: true, TurnerEnabled: true, Seed: 4})
	for i := 0; i < clipLen+4; i++ {
		world.Step()
		d, err := f.ProcessFrame(world.Render())
		if err != nil {
			t.Fatal(err)
		}
		if i < clipLen-1 && d.Ready {
			t.Fatalf("decision ready after %d frames, clip needs %d", i+1, clipLen)
		}
		if i >= clipLen-1 && !d.Ready {
			t.Fatalf("decision not ready after %d frames", i+1)
		}
		if d.Scene != sim.Day {
			t.Fatalf("scene = %v, want day", d.Scene)
		}
	}
}

func TestSceneChangeTriggersModelSwitch(t *testing.T) {
	f := newTestFramework(t, 16)

	day := sim.NewWorld(sim.Config{Weather: sim.Day, Seed: 5, TurnerEnabled: true})
	for i := 0; i < 6; i++ {
		day.Step()
		if _, err := f.ProcessFrame(day.Render()); err != nil {
			t.Fatal(err)
		}
	}
	snow := sim.NewWorld(sim.Config{Weather: sim.Snow, Seed: 6, TurnerEnabled: true})
	var switched *pipeswitch.Report
	for i := 0; i < 20 && switched == nil; i++ {
		snow.Step()
		d, err := f.ProcessFrame(snow.Render())
		if err != nil {
			t.Fatal(err)
		}
		if d.SceneChanged {
			switched = d.Switch
		}
	}
	if switched == nil {
		t.Fatal("scene change to snow never triggered a switch")
	}
	if switched.Total > pipeswitch.DefaultSLO {
		t.Fatalf("switch took %v, must meet the %v SLO", switched.Total, pipeswitch.DefaultSLO)
	}
	if f.Scene() != sim.Snow {
		t.Fatalf("framework scene = %v, want snow", f.Scene())
	}
	if f.Manager().Active() != "snow" {
		t.Fatalf("active model = %q, want snow", f.Manager().Active())
	}
	if v := f.Manager().SLOViolations(); v != 0 {
		t.Fatalf("SLO violations = %d", v)
	}
}

func TestResetClearsRing(t *testing.T) {
	f := newTestFramework(t, 8)
	world := sim.NewWorld(sim.Config{Weather: sim.Day, Seed: 7})
	for i := 0; i < 10; i++ {
		world.Step()
		if _, err := f.ProcessFrame(world.Render()); err != nil {
			t.Fatal(err)
		}
	}
	f.Reset()
	world.Step()
	d, err := f.ProcessFrame(world.Render())
	if err != nil {
		t.Fatal(err)
	}
	if d.Ready {
		t.Fatal("ring must be empty after Reset")
	}
}

// TestEvaluateThroughputWithTrainedModel trains a small model and
// checks the Sec. V-D statistics: high accuracy, no unsafe releases,
// and a gain near the safe-clip fraction (the paper's ≈50%).
func TestEvaluateThroughputWithTrainedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	const clipLen = 16
	vpcfg := vision.DefaultVPConfig()

	var train []*dataset.Clip
	for i := 0; i < 56; i++ {
		sc := sim.Scenario{
			Weather: sim.Day,
			Danger:  i%2 == 0,
			Blind:   i%4 < 2,
			Seed:    7000 + int64(i)*17,
		}
		seg, err := sc.GenerateN(clipLen)
		if err != nil {
			t.Fatal(err)
		}
		clip, err := dataset.FromSegment(seg, vpcfg)
		if err != nil {
			t.Fatal(err)
		}
		train = append(train, clip)
	}
	m, err := video.NewSlowFast(video.SlowFastConfig{T: clipLen, H: 10, W: 16, Alpha: 8, Classes: 2, Lateral: true, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := video.Train(m, train, video.TrainConfig{Epochs: 8, BatchSize: 8, LR: 0.01, Seed: 3}); err != nil {
		t.Fatal(err)
	}

	// Blind-zone test set (day only, same geometry as training).
	var clips []*dataset.Clip
	for i := 0; i < 16; i++ {
		sc := sim.Scenario{Weather: sim.Day, Blind: true, Danger: i%2 == 0, Seed: 90000 + int64(i)*13}
		seg, err := sc.GenerateN(clipLen)
		if err != nil {
			t.Fatal(err)
		}
		clip, err := dataset.FromSegment(seg, vpcfg)
		if err != nil {
			t.Fatal(err)
		}
		clips = append(clips, clip)
	}
	res, err := EvaluateThroughput(m, clips)
	if err != nil {
		t.Fatal(err)
	}
	if res.Total != 16 || res.DangerClips != 8 || res.SafeClips != 8 {
		t.Fatalf("set composition wrong: %+v", res)
	}
	if res.Accuracy < 0.8 {
		t.Fatalf("throughput-set accuracy = %v, want ≥0.8", res.Accuracy)
	}
	if res.ThroughputGain < 0.3 {
		t.Fatalf("throughput gain = %v, want ≥0.3 (paper ≈0.5)", res.ThroughputGain)
	}
	if res.ThroughputGain > float64(res.SafeClips)/float64(res.Total) {
		t.Fatal("gain cannot exceed the safe-clip fraction")
	}
}

func TestEvaluateThroughputValidation(t *testing.T) {
	m, err := video.NewSlowFast(video.SlowFastConfig{T: 16, H: 10, W: 16, Alpha: 8, Classes: 2, Lateral: true, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := EvaluateThroughput(m, nil); err == nil {
		t.Fatal("expected empty-set error")
	}
	notBlind := []*dataset.Clip{{Blind: false}}
	if _, err := EvaluateThroughput(m, notBlind); err == nil {
		t.Fatal("expected non-blind-clip error")
	}
}

func TestSimulateThroughputAdvisoryHelps(t *testing.T) {
	res, err := SimulateThroughput(sim.Day, 3000, 11)
	if err != nil {
		t.Fatal(err)
	}
	if res.TurnsWith <= res.TurnsWithout {
		t.Fatalf("advisory must increase turns: with=%d without=%d", res.TurnsWith, res.TurnsWithout)
	}
	if res.Improvement <= 0 {
		t.Fatalf("improvement = %v", res.Improvement)
	}
	if _, err := SimulateThroughput(sim.Day, 0, 1); err == nil {
		t.Fatal("expected horizon error")
	}
}

// TestSafeStreakHysteresis verifies the fail-safe advisory bias: a
// framework configured with a large safe streak never advises TURN
// within fewer ready frames than the streak requires.
func TestSafeStreakHysteresis(t *testing.T) {
	det, err := weather.FitFromSim(15, 99)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := gpusim.NewDevice(gpusim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	mgr := pipeswitch.NewManager(dev)
	for _, w := range sim.AllWeathers() {
		m := pipeswitch.SafeCrossSlowFast()
		m.Name += "-" + w.String()
		if err := mgr.Register(w.String(), m); err != nil {
			t.Fatal(err)
		}
	}
	const clipLen = 8
	f, err := New(Config{ClipLen: clipLen, SafeStreak: 4}, newTestModels(t, clipLen), det, mgr)
	if err != nil {
		t.Fatal(err)
	}
	world := sim.NewWorld(sim.Config{Weather: sim.Day, NoArrivals: true, Seed: 31})
	ready := 0
	for i := 0; i < clipLen+3; i++ {
		world.Step()
		d, err := f.ProcessFrame(world.Render())
		if err != nil {
			t.Fatal(err)
		}
		if !d.Ready {
			continue
		}
		ready++
		if ready < 4 && d.Safe {
			t.Fatalf("TURN advised after only %d ready frames; streak of 4 required", ready)
		}
	}
	// Negative config rejected.
	if _, err := New(Config{ClipLen: clipLen, SafeStreak: -1}, newTestModels(t, clipLen), det, mgr); err == nil {
		t.Fatal("expected safe-streak validation error")
	}
}

func TestNewServedRoutesClassificationExternally(t *testing.T) {
	det, err := weather.FitFromSim(15, 99)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	var hints []bool
	classify := func(ctx context.Context, scene sim.Weather, clip *tensor.Tensor, critical bool) (int, error) {
		calls++
		if ctx == nil {
			t.Fatal("classify received nil context")
		}
		if clip == nil || clip.Rank() != 4 {
			t.Fatalf("served clip shape %v", clip)
		}
		hints = append(hints, critical)
		return dataset.ClassSafe, nil
	}
	f, err := NewServed(Config{ClipLen: 4, SafeStreak: 1}, classify, det)
	if err != nil {
		t.Fatal(err)
	}
	if f.Manager() != nil {
		t.Fatal("served framework must not own a switch manager")
	}
	world := sim.NewWorld(sim.Config{Weather: sim.Day, TruckPresent: true, Seed: 5})
	var last *Decision
	for i := 0; i < 6; i++ {
		world.Step()
		last, err = f.ProcessFrame(world.Render())
		if err != nil {
			t.Fatal(err)
		}
		if last.Switch != nil {
			t.Fatal("served framework must never report a local switch")
		}
	}
	if calls == 0 {
		t.Fatal("external classifier never called")
	}
	if !last.Ready || !last.Safe {
		t.Fatalf("decision = %+v, want ready safe verdict from service", last)
	}
	// Fail-safe priority hint: the first clip arrives before any safe
	// streak exists (critical); once the streak is established, later
	// clips ride the routine class.
	if !hints[0] {
		t.Fatal("first clip (no safe streak yet) must carry the critical hint")
	}
	if hints[len(hints)-1] {
		t.Fatal("clip after an established safe streak must not be critical")
	}
}

func TestNewServedValidation(t *testing.T) {
	det, err := weather.FitFromSim(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	ok := func(context.Context, sim.Weather, *tensor.Tensor, bool) (int, error) { return 0, nil }
	if _, err := NewServed(Config{}, nil, det); err == nil {
		t.Fatal("expected nil-classify error")
	}
	if _, err := NewServed(Config{}, ok, nil); err == nil {
		t.Fatal("expected nil-detector error")
	}
	if _, err := NewServed(Config{ClipLen: -1}, ok, det); err == nil {
		t.Fatal("expected clip-length error")
	}
}

// A frame with a NaN or ±Inf pixel is rejected before scene detection:
// it feeds neither the debounce streak nor the clip ring, leaves the
// VP background usable, and the next TURN needs a fresh safe streak.
func TestNonFiniteFrameRejected(t *testing.T) {
	det, err := weather.FitFromSim(15, 99)
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	classify := func(ctx context.Context, scene sim.Weather, clip *tensor.Tensor, critical bool) (int, error) {
		calls++
		return dataset.ClassSafe, nil
	}
	f, err := NewServed(Config{ClipLen: 4, SafeStreak: 2}, classify, det)
	if err != nil {
		t.Fatal(err)
	}
	world := sim.NewWorld(sim.Config{Weather: sim.Day, TruckPresent: true, Seed: 5})
	step := func() *Decision {
		t.Helper()
		world.Step()
		d, err := f.ProcessFrame(world.Render())
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for i := 0; i < 6; i++ {
		step()
	}
	if !step().Safe {
		t.Fatal("the stub classifier's safe streak never released TURN")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		frame := world.Render()
		frame.Pix[len(frame.Pix)/2] = bad
		ring, monitor, before := len(f.ring), *f.monitor, calls
		if _, err := f.ProcessFrame(frame); err == nil {
			t.Fatalf("a frame with a %v pixel was accepted", bad)
		}
		if len(f.ring) != ring || *f.monitor != monitor || calls != before {
			t.Fatalf("a rejected %v frame reached the ring, the scene monitor or the classifier", bad)
		}
		if d := step(); !d.Ready || d.Safe {
			t.Fatalf("after a rejected %v frame: decision %+v, want a ready don't-turn verdict", bad, d)
		}
		if !step().Safe {
			t.Fatalf("after a rejected %v frame the safe streak did not rebuild", bad)
		}
	}
}

// A classify error yields no verdict, so it must break the safe streak
// like a danger verdict: with SafeStreak 2, safe → error → safe must
// not release TURN.
func TestClassifyErrorResetsSafeStreak(t *testing.T) {
	det, err := weather.FitFromSim(15, 99)
	if err != nil {
		t.Fatal(err)
	}
	failNext := false
	classify := func(ctx context.Context, scene sim.Weather, clip *tensor.Tensor, critical bool) (int, error) {
		if failNext {
			failNext = false
			return 0, errors.New("serve plane unavailable")
		}
		return dataset.ClassSafe, nil
	}
	f, err := NewServed(Config{ClipLen: 4, SafeStreak: 2}, classify, det)
	if err != nil {
		t.Fatal(err)
	}
	world := sim.NewWorld(sim.Config{Weather: sim.Day, TruckPresent: true, Seed: 5})
	step := func() (*Decision, error) {
		world.Step()
		return f.ProcessFrame(world.Render())
	}
	var d *Decision
	for !(d != nil && d.Ready) {
		if d, err = step(); err != nil {
			t.Fatal(err)
		}
	}
	if d.Safe {
		t.Fatal("one safe verdict released TURN with SafeStreak 2")
	}
	failNext = true
	if _, err := step(); err == nil {
		t.Fatal("a failed classify returned no error")
	}
	if d, err = step(); err != nil {
		t.Fatal(err)
	}
	if !d.Ready || d.Safe {
		t.Fatalf("safe → error → safe: decision %+v, want a ready don't-turn verdict", d)
	}
	if d, err = step(); err != nil || !d.Safe {
		t.Fatalf("two safe verdicts after the error: decision %+v (err %v), want TURN", d, err)
	}
}
