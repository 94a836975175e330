// Weatheradapt: few-shot weather adaptation and millisecond model
// switching — the FL and MS modules working together.
//
// A daytime model is trained normally; a snow model is adapted from
// it with only a handful of snowy clips (MAML inner loop); both are
// registered with the PipeSwitch manager, and a scene change swaps
// them on the simulated GPU in milliseconds.
//
// Run: go run ./examples/weatheradapt
package main

import (
	"fmt"
	"os"

	"safecross/internal/dataset"
	"safecross/internal/fewshot"
	"safecross/internal/gpusim"
	"safecross/internal/pipeswitch"
	"safecross/internal/sim"
	"safecross/internal/video"
	"safecross/internal/vision"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "weatheradapt:", err)
		os.Exit(1)
	}
}

func makeClips(weather sim.Weather, n int, clipLen int, seed int64) ([]*dataset.Clip, error) {
	vpcfg := vision.DefaultVPConfig()
	clips := make([]*dataset.Clip, 0, n)
	for i := 0; i < n; i++ {
		sc := sim.Scenario{
			Weather: weather,
			Danger:  i%2 == 0,
			Blind:   i%4 < 2,
			Seed:    seed + int64(i)*53,
		}
		seg, err := sc.GenerateN(clipLen)
		if err != nil {
			return nil, err
		}
		clip, err := dataset.FromSegment(seg, vpcfg)
		if err != nil {
			return nil, err
		}
		clips = append(clips, clip)
	}
	return clips, nil
}

func run() error {
	const clipLen = 16
	vpcfg := vision.DefaultVPConfig()
	builder := video.SlowFastBuilder(video.SlowFastConfig{
		T: clipLen, H: vpcfg.GridH, W: vpcfg.GridW,
		Alpha: 8, Classes: dataset.NumClasses, Lateral: true, Seed: 11,
	})

	// Train the daytime basic model (plentiful data).
	fmt.Println("training daytime model on 48 clips...")
	dayTrain, err := makeClips(sim.Day, 48, clipLen, 100)
	if err != nil {
		return err
	}
	day, err := builder()
	if err != nil {
		return err
	}
	if _, err := video.Train(day, dayTrain, video.TrainConfig{Epochs: 8, LR: 0.01, Seed: 1}); err != nil {
		return err
	}

	// Snow: only 6 labelled clips exist (the paper's few-shot regime).
	snowSupport, err := makeClips(sim.Snow, 6, clipLen, 4000)
	if err != nil {
		return err
	}
	snowTest, err := makeClips(sim.Snow, 30, clipLen, 5000)
	if err != nil {
		return err
	}

	evalOn := func(m video.Classifier) (float64, error) {
		cm, err := video.Evaluate(m, snowTest, nil)
		if err != nil {
			return 0, err
		}
		return cm.Top1(), nil
	}
	before, err := evalOn(day)
	if err != nil {
		return err
	}
	fmt.Printf("day model on snow clips BEFORE adaptation: top-1 %.3f\n", before)

	fmt.Println("few-shot adapting with 6 snow clips (MAML inner loop)...")
	snow, err := fewshot.AdaptFromPretrained(builder, day, snowSupport, 12, 0.03)
	if err != nil {
		return err
	}
	after, err := evalOn(snow)
	if err != nil {
		return err
	}
	fmt.Printf("snow model on snow clips AFTER adaptation:  top-1 %.3f\n", after)

	// Model switching: register both under the PipeSwitch manager.
	dev, err := gpusim.NewDevice(gpusim.DefaultConfig())
	if err != nil {
		return err
	}
	mgr := pipeswitch.NewManager(dev)
	dayManifest := pipeswitch.SafeCrossSlowFast()
	dayManifest.Name = "slowfast-day"
	snowManifest := pipeswitch.SafeCrossSlowFast()
	snowManifest.Name = "slowfast-snow"
	if err := mgr.Register("day", dayManifest); err != nil {
		return err
	}
	if err := mgr.Register("snow", snowManifest); err != nil {
		return err
	}
	if _, err := mgr.Activate("day"); err != nil {
		return err
	}
	rep, err := mgr.Activate("snow")
	if err != nil {
		return err
	}
	fmt.Printf("\nscene change day → snow: PipeSwitch swapped models in %v (%d groups)\n",
		rep.Total, rep.Groups)
	fmt.Printf("SLO (<%v) violations: %d\n", pipeswitch.DefaultSLO, mgr.SLOViolations())
	return nil
}
