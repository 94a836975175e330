package experiments

import (
	"fmt"
	"io"

	"safecross/internal/detect"
	"safecross/internal/sim"
	"safecross/internal/vision"
)

// Fig3 renders the VP pipeline stages of Fig. 3 as ASCII art: the
// raw frame, the background-subtracted mask after opening, and the
// 2-D occupancy representation.
func Fig3(w io.Writer, seed int64) error {
	scene, err := sim.OccludedSequence(sim.Day, seed, 16)
	if err != nil {
		return err
	}
	vpcfg := vision.DefaultVPConfig()
	vp := vision.NewPreprocessor(vpcfg)
	for _, f := range scene.Frames[:len(scene.Frames)-1] {
		if _, err := vp.Process(f); err != nil {
			return err
		}
	}
	last := scene.Frames[len(scene.Frames)-1]
	mask, err := vp.ProcessMask(last)
	if err != nil {
		return err
	}
	grid, err := vision.OccupancyGrid(mask,
		vision.Rect{X0: 0, Y0: 0, X1: last.W, Y1: last.H}, vpcfg.GridW, vpcfg.GridH)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, "Fig. 3(a) — raw camera frame:")
	fmt.Fprint(w, last.ASCII())
	fmt.Fprintln(w, "\nFig. 3(b) — background-subtracted, opened mask:")
	fmt.Fprint(w, mask.ASCII())
	fmt.Fprintln(w, "\nFig. 3(c) — 2-D occupancy representation (classifier input):")
	fmt.Fprint(w, grid.ASCII())
	return nil
}

// Fig8 renders the detection comparison of Fig. 8: the original
// occluded frame with the danger zone and ground-truth car, then each
// method's detections.
func Fig8(w io.Writer, seed int64) error {
	scene, err := detect.CanonicalScene()
	if err != nil {
		return err
	}
	dets, err := detect.DefaultDetectors(seed)
	if err != nil {
		return err
	}
	last := scene.Frames[len(scene.Frames)-1]

	fmt.Fprintln(w, "Fig. 8(a) — occluded intersection (camera view):")
	fmt.Fprint(w, annotate(last, nil, scene))
	for _, d := range dets {
		rects, err := d.Detect(scene.Frames)
		if err != nil {
			return err
		}
		hit := detect.HitsZone(rects, scene.Zone, detect.HitOverlap)
		verdict := "MISSES the danger-zone vehicle"
		if hit {
			verdict = "FINDS the danger-zone vehicle"
		}
		fmt.Fprintf(w, "\nFig. 8 — %s (%d detections, %s):\n", d.Name(), len(rects), verdict)
		fmt.Fprint(w, annotate(last, rects, scene))
	}
	return nil
}

// annotate renders the frame with detection boxes ('#' outline), the
// danger zone ('.') and the ground-truth car ('@').
func annotate(frame *vision.Image, rects []vision.Rect, scene *sim.OccludedScene) string {
	canvas := frame.Clone()
	out := []byte(canvas.ASCII())
	stride := canvas.W + 1 // ASCII rows end with '\n'
	mark := func(x, y int, ch byte) {
		if x < 0 || x >= canvas.W || y < 0 || y >= canvas.H {
			return
		}
		out[y*stride+x] = ch
	}
	outline := func(r vision.Rect, ch byte) {
		for x := r.X0; x < r.X1; x++ {
			mark(x, r.Y0, ch)
			mark(x, r.Y1-1, ch)
		}
		for y := r.Y0; y < r.Y1; y++ {
			mark(r.X0, y, ch)
			mark(r.X1-1, y, ch)
		}
	}
	outline(scene.Zone, '.')
	outline(scene.Car, '@')
	for _, r := range rects {
		outline(r, '#')
	}
	return string(out)
}
