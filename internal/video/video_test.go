package video

import (
	"math"
	"math/rand"
	"testing"

	"safecross/internal/dataset"
	"safecross/internal/nn"
	"safecross/internal/sim"
	"safecross/internal/tensor"
	"safecross/internal/vision"
)

// smallCfg is a reduced geometry that keeps unit tests fast while
// exercising every architectural element.
func smallCfg(seed int64) SlowFastConfig {
	return SlowFastConfig{T: 16, H: 10, W: 16, Alpha: 8, Classes: 2, Lateral: true, Seed: seed}
}

func TestSampleScatterTemporalRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.RandnTensor(rng, 1, 2, 8, 3, 4)
	s, err := sampleTemporal(x, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Shape[1] != 2 {
		t.Fatalf("sampled T = %d, want 2", s.Shape[1])
	}
	if s.At(0, 1, 2, 3) != x.At(0, 4, 2, 3) {
		t.Fatal("sampled frame mismatch")
	}
	// Adjoint property: <sample(x), y> == <x, scatter(y)>.
	y := tensor.RandnTensor(rng, 1, s.Shape...)
	back, err := scatterTemporal(y, 8, 4, 0)
	if err != nil {
		t.Fatal(err)
	}
	lhs, _ := tensor.Dot(s, y)
	rhs, _ := tensor.Dot(x, back)
	if math.Abs(lhs-rhs) > 1e-9 {
		t.Fatalf("scatter is not the adjoint of sample: %v vs %v", lhs, rhs)
	}
}

func TestSampleTemporalValidation(t *testing.T) {
	x := tensor.New(1, 8, 2, 2)
	if _, err := sampleTemporal(x, 3, 0); err == nil {
		t.Fatal("expected divisibility error")
	}
	if _, err := sampleTemporal(x, 4, 4); err == nil {
		t.Fatal("expected offset error")
	}
	if _, err := sampleTemporal(tensor.New(4), 2, 0); err == nil {
		t.Fatal("expected rank error")
	}
}

func TestSlowFastForwardShapes(t *testing.T) {
	m, err := NewSlowFast(smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(2))
	x := tensor.RandnTensor(rng, 0.5, 1, 16, 10, 16)
	logits, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if logits.Rank() != 1 || logits.Len() != 2 {
		t.Fatalf("logits shape %v, want [2]", logits.Shape)
	}
	if !logits.AllFinite() {
		t.Fatal("logits not finite")
	}
	if _, err := m.Forward(tensor.New(1, 8, 10, 16)); err == nil {
		t.Fatal("expected T-mismatch error")
	}
}

func TestSlowFastConfigValidation(t *testing.T) {
	cfg := smallCfg(1)
	cfg.T = 15
	if _, err := NewSlowFast(cfg); err == nil {
		t.Fatal("expected alpha-divisibility error")
	}
}

func TestSlowFastDefaultsApplied(t *testing.T) {
	m, err := NewSlowFast(SlowFastConfig{Lateral: true})
	if err != nil {
		t.Fatal(err)
	}
	if m.Config().T != 32 || m.Config().Alpha != 8 {
		t.Fatalf("defaults not applied: %+v", m.Config())
	}
}

func TestSlowFastNames(t *testing.T) {
	with, err := NewSlowFast(smallCfg(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(1)
	cfg.Lateral = false
	without, err := NewSlowFast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if with.Name() != "slowfast" || without.Name() != "slowfast-nolateral" {
		t.Fatalf("names = %q / %q", with.Name(), without.Name())
	}
	// The ablated model has fewer parameters (no lateral conv and a
	// thinner fuse input).
	if nn.ParamCount(without.Params()) >= nn.ParamCount(with.Params()) {
		t.Fatal("ablated model should have fewer parameters")
	}
}

// TestSlowFastGradCheck verifies the custom two-pathway backward pass
// against finite differences on a handful of randomly chosen weights.
func TestSlowFastGradCheck(t *testing.T) {
	cfg := SlowFastConfig{T: 8, H: 6, W: 8, Alpha: 4, Classes: 2, Lateral: true, Seed: 3}
	m, err := NewSlowFast(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	x := tensor.RandnTensor(rng, 0.5, 1, 8, 6, 8)
	label := 1

	lossAt := func() float64 {
		logits, err := m.Forward(x)
		if err != nil {
			t.Fatal(err)
		}
		loss, _, err := nn.SoftmaxCrossEntropy(logits, label)
		if err != nil {
			t.Fatal(err)
		}
		return loss
	}

	nn.ZeroGrad(m.Params())
	logits, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	_, dlogits, err := nn.SoftmaxCrossEntropy(logits, label)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Backward(dlogits); err != nil {
		t.Fatal(err)
	}

	const eps = 1e-5
	for _, p := range m.Params() {
		// Probe three indices per parameter to bound runtime.
		probes := []int{0, p.Value.Len() / 2, p.Value.Len() - 1}
		for _, i := range probes {
			orig := p.Value.Data[i]
			p.Value.Data[i] = orig + eps
			lp := lossAt()
			p.Value.Data[i] = orig - eps
			lm := lossAt()
			p.Value.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-p.Grad.Data[i]) > 1e-4*(1+math.Abs(num)) {
				t.Fatalf("param %s grad[%d]: analytic %v numeric %v", p.Name, i, p.Grad.Data[i], num)
			}
		}
	}
}

func TestC3DForwardAndGradFlow(t *testing.T) {
	m, err := NewC3D(smallCfg(5))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(6))
	x := tensor.RandnTensor(rng, 0.5, 1, 16, 10, 16)
	logits, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if logits.Len() != 2 {
		t.Fatalf("logits len %d", logits.Len())
	}
	nn.ZeroGrad(m.Params())
	_, d, err := nn.SoftmaxCrossEntropy(logits, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Backward(d); err != nil {
		t.Fatal(err)
	}
	nonzero := false
	for _, p := range m.Params() {
		if p.Grad.Norm2() > 0 {
			nonzero = true
		}
	}
	if !nonzero {
		t.Fatal("no gradient flowed through C3D")
	}
	if m.Name() != "c3d" {
		t.Fatalf("name = %q", m.Name())
	}
}

func TestTSNForwardConsensus(t *testing.T) {
	m, err := NewTSN(smallCfg(7))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(8))
	x := tensor.RandnTensor(rng, 0.5, 1, 16, 10, 16)
	logits, err := m.Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if logits.Len() != 2 {
		t.Fatalf("logits len %d", logits.Len())
	}
	// Consensus must equal the average of per-snippet logits: check
	// invariance to permuting non-snippet frames.
	idx := m.snippetIndices()
	onSnippet := make(map[int]bool, len(idx))
	for _, ti := range idx {
		onSnippet[ti] = true
	}
	y := x.Clone()
	h, w := 10, 16
	for ti := 0; ti < 16; ti++ {
		if !onSnippet[ti] {
			for i := 0; i < h*w; i++ {
				y.Data[ti*h*w+i] = rng.Float64()
			}
		}
	}
	logits2, err := m.Forward(y)
	if err != nil {
		t.Fatal(err)
	}
	for i := range logits.Data {
		if logits.Data[i] != logits2.Data[i] {
			t.Fatal("TSN must ignore non-snippet frames (sparse sampling)")
		}
	}
	if m.Name() != "tsn" {
		t.Fatalf("name = %q", m.Name())
	}
}

func TestTSNBackwardUnsupported(t *testing.T) {
	m, err := NewTSN(smallCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Backward(tensor.New(2)); err == nil {
		t.Fatal("TSN.Backward must direct callers to the train-step path")
	}
}

// trainClips builds a small balanced clip set for training tests.
func trainClips(t *testing.T, n int, weather sim.Weather, seed int64, frames int) []*dataset.Clip {
	t.Helper()
	cfg := vision.DefaultVPConfig()
	clips := make([]*dataset.Clip, 0, n)
	for i := 0; i < n; i++ {
		sc := sim.Scenario{
			Weather: weather,
			Danger:  i%2 == 0,
			Blind:   i%4 < 2,
			Seed:    seed + int64(i)*31,
		}
		seg, err := sc.GenerateN(frames)
		if err != nil {
			t.Fatal(err)
		}
		clip, err := dataset.FromSegment(seg, cfg)
		if err != nil {
			t.Fatal(err)
		}
		clips = append(clips, clip)
	}
	return clips
}

// TestTrainSlowFastLearnsTask trains the small SlowFast on a modest
// clip set and requires it to beat chance comfortably on held-out
// clips — the core learning sanity check.
func TestTrainSlowFastLearnsTask(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	train := trainClips(t, 48, sim.Day, 100, 16)
	test := trainClips(t, 20, sim.Day, 9000, 16)

	m, err := NewSlowFast(smallCfg(11))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(m, train, TrainConfig{Epochs: 8, BatchSize: 8, LR: 0.01, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps == 0 {
		t.Fatal("no optimizer steps taken")
	}
	cm, err := Evaluate(m, test, nil)
	if err != nil {
		t.Fatal(err)
	}
	if acc := cm.Top1(); acc < 0.75 {
		t.Fatalf("slowfast test accuracy = %v, want ≥0.75", acc)
	}
}

// TestTrainTSNRuns checks the TSN-specific interleaved train step.
func TestTrainTSNRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	train := trainClips(t, 16, sim.Day, 300, 16)
	m, err := NewTSN(smallCfg(13))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(m, train, TrainConfig{Epochs: 2, BatchSize: 4, LR: 0.01, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalLoss <= 0 {
		t.Fatalf("suspicious final loss %v", res.FinalLoss)
	}
}

func TestTrainValidation(t *testing.T) {
	m, err := NewSlowFast(smallCfg(15))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Train(m, nil, TrainConfig{}); err == nil {
		t.Fatal("expected empty-trainset error")
	}
	if _, err := Evaluate(m, nil, nil); err == nil {
		t.Fatal("expected empty-evalset error")
	}
}

func TestBuildersProduceFreshNetworks(t *testing.T) {
	b := SlowFastBuilder(smallCfg(17))
	m1, err := b()
	if err != nil {
		t.Fatal(err)
	}
	m2, err := b()
	if err != nil {
		t.Fatal(err)
	}
	if m1 == m2 {
		t.Fatal("builder must return distinct instances")
	}
	// Same seed → identical weights (clone semantics for MAML).
	p1, p2 := m1.Params(), m2.Params()
	for i := range p1 {
		for j := range p1[i].Value.Data {
			if p1[i].Value.Data[j] != p2[i].Value.Data[j] {
				t.Fatal("builder instances must be identically initialised")
			}
		}
	}
	for _, builder := range []Builder{C3DBuilder(smallCfg(18)), TSNBuilder(smallCfg(19))} {
		if _, err := builder(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestTrainWithCosineSmoothingEarlyStop exercises the schedule
// extensions: cosine LR annealing, label smoothing, and early
// stopping on a validation split.
func TestTrainWithCosineSmoothingEarlyStop(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	train := trainClips(t, 24, sim.Day, 700, 16)
	val := trainClips(t, 8, sim.Day, 800, 16)
	m, err := NewSlowFast(smallCfg(31))
	if err != nil {
		t.Fatal(err)
	}
	res, err := Train(m, train, TrainConfig{
		Epochs: 30, BatchSize: 8, LR: 0.01, Seed: 1,
		CosineLR: true, LabelSmoothing: 0.05,
		Val: val, Patience: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	// With patience 2 on a saturating task, 30 epochs must not all run.
	if !res.EarlyStopped {
		t.Fatalf("expected early stop, ran %d epochs", res.Epochs)
	}
	if res.Epochs >= 30 {
		t.Fatalf("early stop did not shorten the run: %d epochs", res.Epochs)
	}
	cm, err := Evaluate(m, val, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cm.Top1() < 0.7 {
		t.Fatalf("early-stopped model underfit: %v", cm.Top1())
	}
}
