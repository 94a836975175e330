package experiments

import (
	"fmt"

	"safecross/internal/dataset"
	"safecross/internal/detect"
	"safecross/internal/fewshot"
	"safecross/internal/sim"
	"safecross/internal/video"
	"safecross/internal/vision"
)

// Ablation studies for the design choices DESIGN.md calls out. Each
// returns rows suitable for cmd/safecross-bench -ablations and is
// asserted qualitatively by the test suite.

// LateralAblationRow compares SlowFast with and without its lateral
// connections.
type LateralAblationRow struct {
	Variant         string
	Top1, MeanClass float64
	Params          int
}

// AblateSlowFastLateral trains the SlowFast network with and without
// lateral connections on the same daytime data: the fusion of fast
// temporal detail into the slow pathway is the architecture's core
// idea, and removing it should not help.
func AblateSlowFastLateral(cfg Config) ([]LateralAblationRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scenes, err := cfg.generateScenes()
	if err != nil {
		return nil, err
	}
	day := scenes[sim.Day]
	var rows []LateralAblationRow
	for _, lateral := range []bool{true, false} {
		sfCfg := cfg.slowFastConfig(cfg.Seed + 100)
		sfCfg.Lateral = lateral
		m, err := video.NewSlowFast(sfCfg)
		if err != nil {
			return nil, err
		}
		cfg.logf("lateral ablation: training %s", m.Name())
		if _, err := video.Train(m, day.Train, video.TrainConfig{
			Epochs: cfg.Epochs, LR: 0.008, Seed: cfg.Seed, Log: cfg.Log,
		}); err != nil {
			return nil, fmt.Errorf("experiments: lateral ablation: %w", err)
		}
		cm, err := video.Evaluate(m, day.Test, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: lateral ablation: %w", err)
		}
		rows = append(rows, LateralAblationRow{
			Variant: m.Name(), Top1: cm.Top1(), MeanClass: cm.MeanClass(),
			Params: paramCount(m),
		})
	}
	return rows, nil
}

func paramCount(m video.Classifier) int {
	n := 0
	for _, p := range m.Params() {
		n += p.Value.Len()
	}
	return n
}

// MorphologyAblationRow compares VP detection quality with and
// without morphological opening.
type MorphologyAblationRow struct {
	Variant string
	// Detections is the blob count on the canonical noisy frame; the
	// scene contains exactly three real movers (car, turner, and the
	// turner's shadow region), so large counts are noise.
	Detections int
	// FoundCar reports whether the danger-zone car was among them.
	FoundCar bool
}

// AblateVPMorphology runs the background-subtraction detector with
// and without opening on the canonical noisy scene: opening should
// suppress the camera-noise blobs without losing the vehicle (the
// paper's erosion-then-dilation rationale in Sec. III-B).
func AblateVPMorphology() ([]MorphologyAblationRow, error) {
	scene, err := detect.CanonicalScene()
	if err != nil {
		return nil, err
	}
	var rows []MorphologyAblationRow
	for _, open := range []bool{true, false} {
		d := detect.NewBGS()
		variant := "with-opening"
		if !open {
			d.OpenRadius = 0
			// Without opening, single noise pixels flood the
			// components; keep the same minimum area so the comparison
			// isolates the morphology.
			variant = "without-opening"
		}
		rects, err := d.Detect(scene.Frames)
		if err != nil {
			return nil, fmt.Errorf("experiments: morphology ablation: %w", err)
		}
		found := false
		for _, r := range rects {
			if r.Intersect(scene.Car).Area() >= detect.HitOverlap {
				found = true
			}
		}
		rows = append(rows, MorphologyAblationRow{
			Variant: variant, Detections: len(rects), FoundCar: found,
		})
	}
	return rows, nil
}

// BackgroundAblationRow compares the dynamic background model with a
// static reference frame under illumination drift.
type BackgroundAblationRow struct {
	Variant string
	// FalseForeground is the mean fraction of pixels misreported as
	// motion over a drifting, vehicle-free sequence.
	FalseForeground float64
}

// AblateBackgroundModel runs both background strategies over a long
// vehicle-free sequence with a dusk-scale illumination drift (the
// paper's cameras run around the clock): the dynamic model tracks the
// drift; the static reference frame misclassifies it as motion. This
// is the "constantly updated background" design point of Sec. III-B.
func AblateBackgroundModel() ([]BackgroundAblationRow, error) {
	const (
		frames = 240
		w, h   = sim.FrameW, sim.FrameH
	)
	run := func(alpha float64) (float64, error) {
		rng := newRand(77)
		bg := vision.NewBackgroundModel(alpha)
		totalFrac := 0.0
		counted := 0
		for i := 0; i < frames; i++ {
			// Ambient light falls slowly and steadily — a dusk ramp
			// far larger than the foreground threshold.
			frame := vision.NewImage(w, h)
			frame.Fill(0.45 - 0.25*float64(i)/frames)
			frame.AddGaussianNoise(rng, 0.02)
			if i == 0 {
				if err := bg.Update(frame); err != nil {
					return 0, err
				}
				continue
			}
			diff, err := bg.Subtract(frame)
			if err != nil {
				return 0, err
			}
			mask := vision.Open(diff.Threshold(0.10), 1)
			on := 0
			for _, v := range mask.Pix {
				if v >= 0.5 {
					on++
				}
			}
			totalFrac += float64(on) / float64(len(mask.Pix))
			counted++
			if alpha > 0 {
				if err := bg.Update(frame); err != nil {
					return 0, err
				}
			}
		}
		return totalFrac / float64(counted), nil
	}
	dynamic, err := run(0.05)
	if err != nil {
		return nil, fmt.Errorf("experiments: background ablation: %w", err)
	}
	static, err := run(0)
	if err != nil {
		return nil, fmt.Errorf("experiments: background ablation: %w", err)
	}
	return []BackgroundAblationRow{
		{Variant: "dynamic-background", FalseForeground: dynamic},
		{Variant: "static-background", FalseForeground: static},
	}, nil
}

// InnerStepsRow reports adaptation quality for one inner-step count.
type InnerStepsRow struct {
	Steps int
	Top1  float64
}

// AblateMAMLInnerSteps measures few-shot adaptation accuracy on snow
// as a function of the inner-loop step count k (Eq. 1): more steps
// help up to a point, the paper's Fig. 6 mechanics.
func AblateMAMLInnerSteps(cfg Config, stepCounts []int) ([]InnerStepsRow, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(stepCounts) == 0 {
		stepCounts = []int{1, 2, 4, 8, 16}
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
	cfg.logf("inner-steps ablation: training daytime initialisation")
	if _, err := video.Train(day, scenes[sim.Day].Train, video.TrainConfig{
		Epochs: cfg.Epochs, LR: 0.008, Seed: cfg.Seed, Log: cfg.Log,
	}); err != nil {
		return nil, err
	}
	// A small support set, the few-shot regime.
	support := scenes[sim.Snow].Train
	if len(support) > 8 {
		support = support[:8]
	}
	rows := make([]InnerStepsRow, 0, len(stepCounts))
	for _, k := range stepCounts {
		adapted, err := fewshot.AdaptFromPretrained(builder, day, support, k, cfg.AdaptLR)
		if err != nil {
			return nil, fmt.Errorf("experiments: inner-steps ablation k=%d: %w", k, err)
		}
		cm, err := video.Evaluate(adapted, scenes[sim.Snow].Test, nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: inner-steps ablation k=%d: %w", k, err)
		}
		rows = append(rows, InnerStepsRow{Steps: k, Top1: cm.Top1()})
	}
	return rows, nil
}

// dangerLabelForClip is a tiny helper used by ablation tests.
func dangerLabelForClip(c *dataset.Clip) bool { return c.Label == dataset.ClassDanger }
