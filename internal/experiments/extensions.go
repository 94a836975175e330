package experiments

import (
	"fmt"

	"safecross/internal/dataset"
	"safecross/internal/fewshot"
	"safecross/internal/sim"
	"safecross/internal/video"
)

// Future-work extensions from the paper's Sec. VI-B, implemented and
// measured: adaptation to additional extreme scenes (fog, night) and
// the mirrored deployment for left-driving countries.

// SceneAdaptationResult reports day-model performance on a new scene
// before and after few-shot adaptation.
type SceneAdaptationResult struct {
	Scene sim.Weather
	// Before and After are Top-1 accuracies of the daytime model and
	// the adapted model on held-out clips of the new scene.
	Before, After float64
	// SupportClips is the adaptation set size.
	SupportClips int
}

// AdaptToScene trains the daytime model, then adapts it to an
// arbitrary scene (including the extended fog/night conditions) from
// a small support set, reporting before/after accuracy.
func AdaptToScene(cfg Config, scene sim.Weather, supportClips int) (*SceneAdaptationResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if supportClips <= 0 {
		return nil, fmt.Errorf("experiments: support size %d must be positive", supportClips)
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
	cfg.logf("scene adaptation: training daytime model")
	if _, err := video.Train(day, scenes[sim.Day].Train, video.TrainConfig{
		Epochs: cfg.Epochs, LR: 0.008, Seed: cfg.Seed, Log: cfg.Log,
	}); err != nil {
		return nil, err
	}

	support, err := sceneClipSet(cfg, scene, supportClips, cfg.Seed+7_000_000)
	if err != nil {
		return nil, err
	}
	test, err := sceneClipSet(cfg, scene, evalSetSize, cfg.Seed+8_000_000)
	if err != nil {
		return nil, err
	}

	cmBefore, err := video.Evaluate(day, test, nil)
	if err != nil {
		return nil, err
	}
	adapted, err := fewshot.FineTune(builder, day, support, video.TrainConfig{
		Epochs: cfg.Epochs, LR: 0.008, Seed: cfg.Seed + 1, Log: cfg.Log,
	})
	if err != nil {
		return nil, err
	}
	cmAfter, err := video.Evaluate(adapted, test, nil)
	if err != nil {
		return nil, err
	}
	return &SceneAdaptationResult{
		Scene:        scene,
		Before:       cmBefore.Top1(),
		After:        cmAfter.Top1(),
		SupportClips: len(support),
	}, nil
}

// sceneClipSet generates n clips of a scene from a dedicated seed
// stream.
func sceneClipSet(cfg Config, scene sim.Weather, n int, seed int64) ([]*dataset.Clip, error) {
	spec := dataset.Spec{Weather: scene, Segments: n, Seed: seed}
	return cfg.generateSceneClips(spec)
}

// MirrorResult reports the left-driving-country deployment check.
type MirrorResult struct {
	// Top1 is the accuracy of a model trained on mirrored clips and
	// evaluated on mirrored held-out clips.
	Top1 float64
	// CrossTop1 is the mirrored-trained model evaluated on unmirrored
	// clips — expected to be much worse, confirming the geometry is
	// truly directional and "the difference is just the training
	// data".
	CrossTop1 float64
}

// MirrorDeployment trains on horizontally mirrored daytime clips (the
// right-turn blind-zone problem of left-driving countries) and
// verifies the framework works unchanged.
func MirrorDeployment(cfg Config) (*MirrorResult, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	scenes, err := cfg.generateScenes()
	if err != nil {
		return nil, err
	}
	day := scenes[sim.Day]
	trainM := dataset.MirrorClips(day.Train)
	testM := dataset.MirrorClips(day.Test)

	m, err := video.NewSlowFast(cfg.slowFastConfig(cfg.Seed + 500))
	if err != nil {
		return nil, err
	}
	cfg.logf("mirror deployment: training on %d mirrored clips", len(trainM))
	if _, err := video.Train(m, trainM, video.TrainConfig{
		Epochs: cfg.Epochs, LR: 0.008, Seed: cfg.Seed, Log: cfg.Log,
	}); err != nil {
		return nil, err
	}
	cmMirror, err := video.Evaluate(m, testM, nil)
	if err != nil {
		return nil, err
	}
	cmCross, err := video.Evaluate(m, day.Test, nil)
	if err != nil {
		return nil, err
	}
	return &MirrorResult{Top1: cmMirror.Top1(), CrossTop1: cmCross.Top1()}, nil
}
