package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"safecross/internal/nn"
	"safecross/internal/sim"
	"safecross/internal/tensor"
	"safecross/internal/video"
	"safecross/internal/vision"
	"safecross/internal/weather"
)

// stageBatch is the batch size of the batched forward timing.
const stageBatch = 8

// stageResult is the stage pass: one recorded sequence driven through
// the public sub-stage functions of the weather, vision and video
// layers, outside the pipeline.
type stageResult struct {
	observe, foreground, open, grid, clip samples
	forwardB1, forwardB8PerClip           samples
	// vpAllocKB is Preprocessor.Process's allocation per frame;
	// clipAllocKB is PredictBatch's per clip at batch 1 with a reused
	// workspace.
	vpAllocKB, clipAllocKB float64
	// problems lists every frame whose recomposed grid differs from
	// Preprocessor.Process and every clip whose batched label differs
	// from the unbatched one.
	problems []string
}

// allocatedKB runs fn and returns the KB it allocated.
func allocatedKB(fn func() error) (float64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err := fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1024, err
}

// stagePass times each sub-stage of the advisory path on one feed's
// recorded sequence and checks that the sub-stages recompose to what
// the pipeline computes.
func stagePass(m *models, src source, clipLen int) (*stageResult, error) {
	n := len(src.seq)
	res := &stageResult{}
	cfg := vision.DefaultVPConfig()
	roi := cfg.ROI
	if roi.Empty() {
		first := src.frame(0)
		roi = vision.Rect{X1: first.W, Y1: first.H}
	}
	mon := weather.NewMonitor(m.det, sim.Day, 0)
	bg := vision.NewBackgroundModel(cfg.Alpha)
	grids := make([]*vision.Image, n)
	for k := range grids {
		frame := src.frame(k)
		t0 := time.Now()
		mon.Observe(frame)
		t1 := time.Now()
		mask, err := bg.Foreground(frame, cfg.Threshold)
		if err != nil {
			return nil, fmt.Errorf("stage pass frame %d: %w", k, err)
		}
		t2 := time.Now()
		if cfg.OpenRadius > 0 {
			mask = vision.Open(mask, cfg.OpenRadius)
		}
		t3 := time.Now()
		if grids[k], err = vision.OccupancyGrid(mask, roi, cfg.GridW, cfg.GridH); err != nil {
			return nil, fmt.Errorf("stage pass frame %d: %w", k, err)
		}
		t4 := time.Now()
		res.observe = append(res.observe, t1.Sub(t0))
		res.foreground = append(res.foreground, t2.Sub(t1))
		res.open = append(res.open, t3.Sub(t2))
		res.grid = append(res.grid, t4.Sub(t3))
	}
	var clips []*tensor.Tensor
	for k := clipLen; k <= n; k++ {
		t0 := time.Now()
		clip, err := vision.ClipTensor(grids[k-clipLen : k])
		if err != nil {
			return nil, fmt.Errorf("stage pass clip %d: %w", k, err)
		}
		res.clip = append(res.clip, time.Since(t0))
		clips = append(clips, clip)
	}

	pre := vision.NewPreprocessor(cfg)
	var err error
	res.vpAllocKB, err = allocatedKB(func() error {
		for k := range grids {
			g, err := pre.Process(src.frame(k))
			if err != nil {
				return err
			}
			if !sameGrid(g, grids[k]) {
				res.problems = append(res.problems, fmt.Sprintf("frame %d: recomposed VP grid differs from Preprocessor.Process", k))
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("stage pass: %w", err)
	}
	res.vpAllocKB /= float64(n)

	if err := res.forward(m, clips); err != nil {
		return nil, fmt.Errorf("stage pass: %w", err)
	}
	return res, nil
}

// forward times video.PredictBatch with one reused workspace at batch
// 1 and stageBatch, and checks both against unbatched predictions.
func (res *stageResult) forward(m *models, clips []*tensor.Tensor) error {
	model, err := video.CloneWeights(m.tm.Builder, m.tm.Models[sim.Day])
	if err != nil {
		return err
	}
	want := make([]int, len(clips))
	for i, c := range clips {
		if want[i], err = video.Predict(model, c); err != nil {
			return err
		}
	}
	ws := nn.NewWorkspace()
	check := func(at int, got []int) {
		for j, l := range got {
			if l != want[at+j] {
				res.problems = append(res.problems, fmt.Sprintf("clip %d: PredictBatch label %d, unbatched %d", at+j, l, want[at+j]))
			}
		}
	}
	// Warm the workspace at both batch sizes so the timed calls reuse it.
	for _, b := range []int{1, stageBatch} {
		if _, err := video.PredictBatch(model, clips[:b], ws); err != nil {
			return err
		}
	}
	res.forwardB1 = make(samples, 0, len(clips))
	res.clipAllocKB, err = allocatedKB(func() error {
		for i := range clips {
			t0 := time.Now()
			got, err := video.PredictBatch(model, clips[i:i+1], ws)
			if err != nil {
				return err
			}
			res.forwardB1 = append(res.forwardB1, time.Since(t0))
			check(i, got)
		}
		return nil
	})
	if err != nil {
		return err
	}
	res.clipAllocKB /= float64(len(clips))
	for i := 0; i+stageBatch <= len(clips); i += stageBatch {
		t0 := time.Now()
		got, err := video.PredictBatch(model, clips[i:i+stageBatch], ws)
		if err != nil {
			return err
		}
		res.forwardB8PerClip = append(res.forwardB8PerClip, time.Since(t0)/stageBatch)
		check(i, got)
	}
	return nil
}

// sameGrid reports bit equality.
func sameGrid(a, b *vision.Image) bool {
	if a.W != b.W || a.H != b.H || len(a.Pix) != len(b.Pix) {
		return false
	}
	for i := range a.Pix {
		if math.Float64bits(a.Pix[i]) != math.Float64bits(b.Pix[i]) {
			return false
		}
	}
	return true
}
