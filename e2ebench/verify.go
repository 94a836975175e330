package main

import (
	"fmt"
	"runtime"
	"sync"

	"safecross/internal/safecross"
	"safecross/internal/sim"
	"safecross/internal/video"
)

// cloneModels copies the trained classifiers weight for weight, so
// concurrent replays never share a model's forward-pass state.
func cloneModels(m *models) (map[sim.Weather]video.Classifier, error) {
	out := make(map[sim.Weather]video.Classifier, len(m.tm.Models))
	for scene, c := range m.tm.Models {
		clone, err := video.CloneWeights(m.tm.Builder, c)
		if err != nil {
			return nil, fmt.Errorf("clone %v model: %w", scene, err)
		}
		out[scene] = clone
	}
	return out, nil
}

// replay runs frames 0..n-1 of one feed through a fresh single-threaded
// framework and returns its verdict for each.
func replay(classifiers map[sim.Weather]video.Classifier, clipLen int, src source, n int) ([]verdict, error) {
	fw, err := safecross.NewDefault(safecross.Config{ClipLen: clipLen}, classifiers)
	if err != nil {
		return nil, err
	}
	out := make([]verdict, n)
	for k := range out {
		d, err := fw.ProcessFrame(src.frame(k))
		if err != nil {
			return nil, fmt.Errorf("frame %d: %w", k, err)
		}
		out[k] = verdict{ready: d.Ready, safe: d.Safe, scene: d.Scene.String()}
	}
	return out, nil
}

// reference replays every feed's frames, as many as the run sent,
// spreading the feeds over one goroutine per CPU; each goroutine has
// its own copy of the models.
func reference(m *models, clipLen int, feeds []*feed) ([][]verdict, error) {
	refs := make([][]verdict, len(feeds))
	errs := make([]error, len(feeds))
	workers := min(runtime.NumCPU(), len(feeds))
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			classifiers, err := cloneModels(m)
			for i := w; i < len(feeds); i += workers {
				if err != nil {
					errs[i] = err
					continue
				}
				refs[i], errs[i] = replay(classifiers, clipLen, feeds[i].src, len(feeds[i].recs))
			}
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("reference replay of intersection %d: %w", feeds[i].id, err)
		}
	}
	return refs, nil
}
