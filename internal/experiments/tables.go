package experiments

import (
	"fmt"
	"math/rand"

	"safecross/internal/dataset"
	"safecross/internal/detect"
	"safecross/internal/fewshot"
	"safecross/internal/sim"
	"safecross/internal/video"
)

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// TableIRow describes one scene of the dataset-overview table.
type TableIRow struct {
	Scene    sim.Weather
	Segments int
	Frames   int
	Danger   int
	Safe     int
	Blind    int
}

// TableI reports the (scaled) dataset composition, mirroring the
// paper's Table I. At scale 1.0 the segment counts are exactly
// 1966/34/855.
func TableI(cfg Config) ([]TableIRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	specs := dataset.ScaledTableISpecs(cfg.Scale)
	rows := make([]TableIRow, 0, len(specs))
	for _, spec := range specs {
		clips, err := cfg.generateSceneClips(spec)
		if err != nil {
			return nil, err
		}
		row := TableIRow{Scene: spec.Weather, Segments: len(clips), Frames: cfg.ClipLen}
		for _, c := range clips {
			if c.Label == dataset.ClassDanger {
				row.Danger++
			} else {
				row.Safe++
			}
			if c.Blind {
				row.Blind++
			}
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// TableII runs the detection-method comparison on the canonical
// occluded scene.
func TableII(reps int, seed int64) ([]detect.Row, error) {
	scene, err := detect.CanonicalScene()
	if err != nil {
		return nil, err
	}
	dets, err := detect.DefaultDetectors(seed)
	if err != nil {
		return nil, err
	}
	return detect.RunTableII(dets, scene, reps)
}

// AccuracyRow is one line of the classification-accuracy tables.
type AccuracyRow struct {
	// Name identifies the scene (Table III) or model (Table IV) or
	// ablation arm (Table V).
	Name string
	// Top1 and MeanClass are the paper's two metrics.
	Top1, MeanClass float64
	// TestClips is the evaluation set size.
	TestClips int
}

// TrainedModels is the output of the Table III pipeline: the daytime
// basic model plus the few-shot-adapted rain and snow models, with
// their held-out test sets.
type TrainedModels struct {
	Models map[sim.Weather]video.Classifier
	Scenes map[sim.Weather]*sceneData
	Cfg    Config
	// Builder reconstructs the exact network geometry the models were
	// trained with, so downstream consumers (the serving layer's
	// per-worker replicas) can clone them weight-for-weight.
	Builder video.Builder
}

// TrainSceneModels runs the paper's training pipeline: the basic
// SlowFast model from scratch on daytime data (VP+VC), then rain and
// snow models adapted from it with few-shot learning (FL).
func TrainSceneModels(cfg Config) (*TrainedModels, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scenes, err := cfg.generateScenes()
	if err != nil {
		return nil, err
	}
	builder := video.SlowFastBuilder(cfg.slowFastConfig(cfg.Seed + 100))

	day, err := builder()
	if err != nil {
		return nil, err
	}
	cfg.logf("training daytime basic model on %d clips", len(scenes[sim.Day].Train))
	if _, err := video.Train(day, scenes[sim.Day].Train, video.TrainConfig{
		Epochs: cfg.Epochs, LR: 0.008, Seed: cfg.Seed, Log: cfg.Log,
	}); err != nil {
		return nil, err
	}

	models := map[sim.Weather]video.Classifier{sim.Day: day}
	for _, w := range []sim.Weather{sim.Snow, sim.Rain} {
		cfg.logf("few-shot adapting %v model on %d clips", w, len(scenes[w].Train))
		// Fine-tune from the daytime initialisation with the same
		// schedule as scratch training, so Table V isolates the value
		// of the initialisation itself.
		adapted, err := fewshot.FineTune(builder, day, scenes[w].Train, video.TrainConfig{
			Epochs: cfg.Epochs, LR: 0.008, Seed: cfg.Seed + int64(w), Log: cfg.Log,
		})
		if err != nil {
			return nil, fmt.Errorf("experiments: adapt %v: %w", w, err)
		}
		models[w] = adapted
	}
	return &TrainedModels{Models: models, Scenes: scenes, Cfg: cfg, Builder: builder}, nil
}

// TableIII evaluates the per-scene models on their held-out test
// splits, reproducing the paper's Table III (day > snow > rain).
func TableIII(tm *TrainedModels) ([]AccuracyRow, error) {
	rows := make([]AccuracyRow, 0, 3)
	for _, w := range sim.AllWeathers() {
		cm, err := video.Evaluate(tm.Models[w], tm.Scenes[w].Test, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: table III %v: %w", w, err)
		}
		rows = append(rows, AccuracyRow{
			Name: w.String(), Top1: cm.Top1(), MeanClass: cm.MeanClass(),
			TestClips: len(tm.Scenes[w].Test),
		})
	}
	return rows, nil
}

// TableIV trains SlowFast, C3D, and TSN on the daytime split and
// evaluates them, reproducing the paper's architecture comparison.
func TableIV(cfg Config) ([]AccuracyRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scenes, err := cfg.generateScenes()
	if err != nil {
		return nil, err
	}
	day := scenes[sim.Day]
	builders := []video.Builder{
		video.SlowFastBuilder(cfg.slowFastConfig(cfg.Seed + 100)),
		video.C3DBuilder(cfg.slowFastConfig(cfg.Seed + 200)),
		video.TSNBuilder(cfg.slowFastConfig(cfg.Seed + 300)),
	}
	rows := make([]AccuracyRow, 0, len(builders))
	for _, b := range builders {
		m, err := b()
		if err != nil {
			return nil, err
		}
		cfg.logf("training %s on %d daytime clips", m.Name(), len(day.Train))
		if _, err := video.Train(m, day.Train, video.TrainConfig{
			Epochs: cfg.Epochs, LR: 0.008, Seed: cfg.Seed, Log: cfg.Log,
		}); err != nil {
			return nil, fmt.Errorf("experiments: table IV %s: %w", m.Name(), err)
		}
		cm, err := video.Evaluate(m, day.Test, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: table IV %s: %w", m.Name(), err)
		}
		rows = append(rows, AccuracyRow{
			Name: m.Name(), Top1: cm.Top1(), MeanClass: cm.MeanClass(),
			TestClips: len(day.Test),
		})
	}
	return rows, nil
}

// TableV runs the few-shot ablation: snow and rain models trained
// with few-shot learning (adapted from the daytime model) versus
// without (from scratch on the same small sets).
func TableV(tm *TrainedModels) ([]AccuracyRow, error) {
	cfg := tm.Cfg
	var rows []AccuracyRow
	for _, w := range []sim.Weather{sim.Snow, sim.Rain} {
		scene := tm.Scenes[w]

		// With few-shot learning: the already-adapted model.
		cmWith, err := video.Evaluate(tm.Models[w], scene.Test, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: table V %v: %w", w, err)
		}
		rows = append(rows, AccuracyRow{
			Name: w.String() + " with few shot learning",
			Top1: cmWith.Top1(), MeanClass: cmWith.MeanClass(),
			TestClips: len(scene.Test),
		})

		// Without: train from scratch on the same small train split.
		scratch, err := video.SlowFastBuilder(cfg.slowFastConfig(cfg.Seed + 400 + int64(w)))()
		if err != nil {
			return nil, err
		}
		cfg.logf("training %v from scratch on %d clips (ablation)", w, len(scene.Train))
		if _, err := video.Train(scratch, scene.Train, video.TrainConfig{
			Epochs: cfg.Epochs, LR: 0.008, Seed: cfg.Seed, Log: cfg.Log,
		}); err != nil {
			return nil, fmt.Errorf("experiments: table V scratch %v: %w", w, err)
		}
		cmWithout, err := video.Evaluate(scratch, scene.Test, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: table V %v: %w", w, err)
		}
		rows = append(rows, AccuracyRow{
			Name: w.String() + " without few shot learning",
			Top1: cmWithout.Top1(), MeanClass: cmWithout.MeanClass(),
			TestClips: len(scene.Test),
		})
	}
	return rows, nil
}
