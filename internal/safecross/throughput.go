package safecross

import (
	"fmt"

	"safecross/internal/dataset"
	"safecross/internal/nn"
	"safecross/internal/sim"
	"safecross/internal/video"
)

// ThroughputResult summarises the Sec. V-D experiment: how many
// blind-zone scenes SafeCross releases for a left turn, and whether
// it ever releases a dangerous one.
type ThroughputResult struct {
	// Total is the number of blind-zone clips evaluated.
	Total int
	// DangerClips and SafeClips are the ground-truth class counts.
	DangerClips, SafeClips int
	// CorrectDanger and CorrectSafe are correctly classified counts.
	CorrectDanger, CorrectSafe int
	// UnsafeReleases counts danger clips misjudged as safe — the
	// safety violations SafeCross must avoid.
	UnsafeReleases int
	// Accuracy is overall classification accuracy on the set.
	Accuracy float64
	// ThroughputGain is the fraction of blind-zone scenes in which
	// SafeCross lets the driver turn instead of waiting out the
	// occlusion — the paper's +32/63 ≈ +50% headline.
	ThroughputGain float64
}

// EvaluateThroughput classifies a blind-zone clip set with the given
// model and computes the throughput statistics. Without SafeCross an
// occluded driver waits in every one of these scenes; with it, every
// correctly judged safe scene becomes an immediate turn.
func EvaluateThroughput(m video.Classifier, clips []*dataset.Clip) (*ThroughputResult, error) {
	for i, clip := range clips {
		if !clip.Blind {
			return nil, fmt.Errorf("safecross: clip %d is not a blind-zone clip", i)
		}
	}
	cm, err := video.Evaluate(m, clips, nil)
	if err != nil {
		return nil, fmt.Errorf("safecross: %w", err)
	}
	return ThroughputFromConfusion(cm), nil
}

// ThroughputFromConfusion reads the throughput statistics off danger/
// safe confusion matrices, summing them when a set was judged by
// several models (one per weather scene).
func ThroughputFromConfusion(cms ...*nn.ConfusionMatrix) *ThroughputResult {
	const danger, safe = dataset.ClassDanger, dataset.ClassSafe
	res := &ThroughputResult{}
	for _, cm := range cms {
		res.CorrectDanger += cm.Count(danger, danger)
		res.UnsafeReleases += cm.Count(danger, safe)
		res.CorrectSafe += cm.Count(safe, safe)
		res.SafeClips += cm.Count(safe, danger) + cm.Count(safe, safe)
	}
	res.DangerClips = res.CorrectDanger + res.UnsafeReleases
	res.Total = res.DangerClips + res.SafeClips
	if res.Total > 0 {
		res.Accuracy = float64(res.CorrectDanger+res.CorrectSafe) / float64(res.Total)
		res.ThroughputGain = float64(res.CorrectSafe) / float64(res.Total)
	}
	return res
}

// SimThroughputResult reports a closed-loop simulation comparison.
type SimThroughputResult struct {
	// TurnsWithout and TurnsWith are completed left turns over the
	// horizon without and with the SafeCross advisory.
	TurnsWithout, TurnsWith int
	// Frames is the simulated horizon length.
	Frames int
	// Improvement is (with − without) / max(without, 1).
	Improvement float64
}

// SimulateThroughput runs two identical blind-intersection worlds for
// the given horizon: one where the occluded driver creeps cautiously,
// and one where a (ground-truth-accurate) SafeCross advisory releases
// the turn as soon as the danger zone clears. It returns the turn
// counts — the closed-loop version of the paper's throughput claim.
func SimulateThroughput(w sim.Weather, frames int, seed int64) (*SimThroughputResult, error) {
	if frames <= 0 {
		return nil, fmt.Errorf("safecross: horizon %d must be positive", frames)
	}
	run := func(advise bool) int {
		world := sim.NewWorld(sim.Config{
			Weather:       w,
			TruckPresent:  true,
			TurnerEnabled: true,
			TurnerRespawn: true,
			Seed:          seed,
		})
		for i := 0; i < frames; i++ {
			if advise {
				world.SetAdvisory(!world.ConflictRisk(), true)
			}
			world.Step()
		}
		return world.TurnsCompleted()
	}
	res := &SimThroughputResult{
		TurnsWithout: run(false),
		TurnsWith:    run(true),
		Frames:       frames,
	}
	base := res.TurnsWithout
	if base < 1 {
		base = 1
	}
	res.Improvement = float64(res.TurnsWith-res.TurnsWithout) / float64(base)
	return res, nil
}
