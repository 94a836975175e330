package safecross_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"safecross/internal/safecross"
	"safecross/internal/serve"
	"safecross/internal/sim"
	"safecross/internal/tensor"
	"safecross/internal/video"
	"safecross/internal/vision"
	"safecross/internal/weather"
)

// goldenClipLen keeps the golden stream short: a clip is ready after
// eight frames, so most of the stream yields a verdict.
const goldenClipLen = 8

// goldenSeeds are the per-scene weight seeds. They are chosen so the
// untrained models disagree with each other and across clips: the
// golden sequence holds both TURN and DON'T-TURN advisories, so it
// pins real classifier output rather than a constant.
var goldenSeeds = map[sim.Weather]int64{sim.Day: 3, sim.Rain: 11, sim.Snow: 7}

func goldenBuilder(seed int64) video.Builder {
	return func() (video.Classifier, error) {
		return video.NewSlowFast(video.SlowFastConfig{
			T: goldenClipLen, H: 10, W: 16, Alpha: 4, Classes: 2, Lateral: true, Seed: seed,
		})
	}
}

func goldenModels(t *testing.T) map[sim.Weather]video.Classifier {
	t.Helper()
	models := make(map[sim.Weather]video.Classifier, len(goldenSeeds))
	for scene, seed := range goldenSeeds {
		m, err := goldenBuilder(seed)()
		if err != nil {
			t.Fatal(err)
		}
		models[scene] = m
	}
	return models
}

// goldenStream renders a seeded day stream followed by a seeded snow
// stream, so the framework sees a scene change part way through: the
// direct framework switches models and the new scene's model takes
// over classification.
func goldenStream() []*vision.Image {
	var frames []*vision.Image
	for _, leg := range []struct {
		scene sim.Weather
		seed  int64
		n     int
	}{{sim.Day, 21, 40}, {sim.Snow, 22, 40}} {
		w := sim.NewWorld(sim.Config{Weather: leg.scene, TruckPresent: true, TurnerEnabled: true, TurnerRespawn: true, Seed: leg.seed})
		for i := 0; i < leg.n; i++ {
			w.Step()
			frames = append(frames, w.Render())
		}
	}
	return frames
}

// advisory is the part of a Decision a vehicle acts on.
type advisory struct {
	Ready, Safe bool
	Scene       sim.Weather
}

func runStream(t *testing.T, f *safecross.Framework, frames []*vision.Image) []advisory {
	t.Helper()
	// A generous deadline keeps a slow race-detector run from shedding
	// a served clip; shedding would change the advisory, not the model.
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	out := make([]advisory, len(frames))
	for i, frame := range frames {
		d, err := f.ProcessFrameContext(ctx, frame)
		if err != nil {
			t.Errorf("frame %d: %v", i, err)
			return nil
		}
		out[i] = advisory{Ready: d.Ready, Safe: d.Safe, Scene: d.Scene}
	}
	return out
}

// servedFramework routes a framework's clips through plane. det must
// be fitted like NewDefault's detector so scene detection matches.
func servedFramework(t *testing.T, plane *serve.Server, det *weather.Detector) *safecross.Framework {
	t.Helper()
	classify := func(ctx context.Context, scene sim.Weather, clip *tensor.Tensor, critical bool) (int, error) {
		req := serve.Request{Scene: scene, Clip: clip}
		if critical {
			req.Priority = serve.Critical
		}
		v, err := plane.Submit(ctx, req)
		return v.Label, err
	}
	f, err := safecross.NewServed(safecross.Config{ClipLen: goldenClipLen}, classify, det)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// newPlane serves the golden models, each worker holding a
// weight-for-weight replica.
func newPlane(t *testing.T, cfg serve.Config, models map[sim.Weather]video.Classifier) *serve.Server {
	t.Helper()
	plane, err := serve.New(cfg, serve.Replicas(goldenBuilder(0), models))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { plane.Close() })
	return plane
}

// TestGoldenAdvisorySequence pins the advisory sequence of a seeded
// stream that spans a scene change, and requires it to be identical
// whether the framework classifies locally, through a one-worker
// unbatched serve plane, or as one of four frameworks sharing a
// four-worker plane with adaptive batching.
func TestGoldenAdvisorySequence(t *testing.T) {
	frames := goldenStream()
	models := goldenModels(t)

	direct, err := safecross.NewDefault(safecross.Config{ClipLen: goldenClipLen}, models)
	if err != nil {
		t.Fatal(err)
	}
	golden := runStream(t, direct, frames)
	det, err := weather.FitFromSim(20, 12345)
	if err != nil {
		t.Fatal(err)
	}
	if golden == nil {
		t.FailNow()
	}

	var turn, wait, changed bool
	for i, a := range golden {
		turn = turn || (a.Ready && a.Safe)
		wait = wait || (a.Ready && !a.Safe)
		if i > 0 && a.Scene != golden[i-1].Scene {
			changed = true
			if !a.Ready {
				t.Fatalf("frame %d: scene change before the clip ring filled; lengthen the first leg", i)
			}
		}
	}
	if !turn || !wait {
		t.Fatalf("golden sequence must hold both advisories (turn=%v, don't turn=%v); reseed the models", turn, wait)
	}
	if !changed || golden[len(golden)-1].Scene != sim.Snow {
		t.Fatalf("stream must end in a settled snow scene, got %v", golden[len(golden)-1].Scene)
	}

	check := func(name string, got []advisory) {
		t.Helper()
		if len(got) != len(golden) {
			t.Fatalf("%s: %d advisories, want %d", name, len(got), len(golden))
		}
		for i := range golden {
			if got[i] != golden[i] {
				t.Fatalf("%s: frame %d advisory %+v, direct gave %+v", name, i, got[i], golden[i])
			}
		}
	}

	t.Run("served-1-worker-unbatched", func(t *testing.T) {
		plane := newPlane(t, serve.Config{Workers: 1, MaxBatch: 1}, models)
		check("served", runStream(t, servedFramework(t, plane, det), frames))
	})

	t.Run("served-4-workers-4-feeds", func(t *testing.T) {
		plane := newPlane(t, serve.Config{Workers: 4}, models)
		const feeds = 4
		fws := make([]*safecross.Framework, feeds)
		for i := range fws {
			fws[i] = servedFramework(t, plane, det)
		}
		got := make([][]advisory, feeds)
		var wg sync.WaitGroup
		for i := range fws {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				got[i] = runStream(t, fws[i], frames)
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			return
		}
		for i := range got {
			check("feed", got[i])
		}
	})
}
