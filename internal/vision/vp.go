package vision

import (
	"fmt"

	"safecross/internal/tensor"
)

// OccupancyGrid reduces a binary mask restricted to a region of
// interest into a gh×gw grid of cell occupancy fractions in [0, 1].
// This is the paper's Fig. 3(c) step: mapping detected movers into a
// compact 2-D representation of the intersection so the classifier
// has far fewer parameters to learn.
//
// Cell (gx, gy) covers columns [X0+⌊gx·cw⌋, X0+⌊(gx+1)·cw⌋) and the
// matching rows, with cw = roi width / gw, widened to one pixel when
// empty and clipped to the ROI; a pixel counts when it is ≥ 0.5.
func OccupancyGrid(mask *Image, roi Rect, gw, gh int) (*Image, error) {
	roi, err := gridROI(mask.W, mask.H, roi, gw, gh)
	if err != nil {
		return nil, err
	}
	var b bitmap
	b.pack(mask, false)
	out := NewImage(gw, gh)
	b.occupancy(roi, out)
	return out, nil
}

// gridROI validates an occupancy-grid request on a w×h mask and
// returns the ROI clipped to the mask.
func gridROI(w, h int, roi Rect, gw, gh int) (Rect, error) {
	if gw <= 0 || gh <= 0 {
		return Rect{}, fmt.Errorf("vision: occupancy grid %dx%d must be positive", gw, gh)
	}
	roi = roi.Intersect(Rect{X0: 0, Y0: 0, X1: w, Y1: h})
	if roi.Empty() {
		return Rect{}, fmt.Errorf("vision: ROI outside image bounds")
	}
	return roi, nil
}

// VPConfig configures a Preprocessor.
type VPConfig struct {
	// Alpha is the dynamic-background learning rate.
	Alpha float64
	// Threshold is the foreground binarisation level.
	Threshold float64
	// OpenRadius is the structuring-element radius for morphological
	// opening; 0 disables opening.
	OpenRadius int
	// ROI restricts processing to the camera region covering the
	// intersection approach (the paper crops "the middle to the upper
	// right corner"). An empty ROI means the whole frame.
	ROI Rect
	// GridW and GridH are the occupancy-grid dimensions fed to the
	// classifier.
	GridW, GridH int
}

// DefaultVPConfig returns the configuration used throughout the
// experiments: a 16×10 occupancy grid, light morphology, and a
// slowly adapting background.
func DefaultVPConfig() VPConfig {
	return VPConfig{
		Alpha:      0.05,
		Threshold:  0.12,
		OpenRadius: 1,
		GridW:      16,
		GridH:      10,
	}
}

// Preprocessor is the VP module: it turns raw camera frames into
// occupancy grids via dynamic background subtraction, opening, ROI
// cropping, and grid pooling.
//
// Process runs the same kernels as BackgroundModel.Foreground, Open
// and OccupancyGrid, without the float images between them: the
// subtraction writes a bit-packed mask the preprocessor owns, opening
// and pooling work on that mask, and the grids come from a shared
// slab. Its grids are bit-identical to composing the three public
// calls, and in steady state it allocates only the grids it returns.
type Preprocessor struct {
	cfg       VPConfig
	bg        *BackgroundModel
	mask, tmp bitmap
	grids     gridSlab
}

// NewPreprocessor creates a VP pipeline with the given configuration.
func NewPreprocessor(cfg VPConfig) *Preprocessor {
	return &Preprocessor{cfg: cfg, bg: NewBackgroundModel(cfg.Alpha)}
}

// Reset clears the learned background so the next frame re-primes it;
// call when the camera feed cuts to a different scene. The buffers are
// kept for the next frames.
func (p *Preprocessor) Reset() { p.bg.primed = false }

// Config returns the preprocessor configuration.
func (p *Preprocessor) Config() VPConfig { return p.cfg }

// Process converts one frame into its occupancy-grid representation,
// updating the dynamic background as a side effect. A frame with a
// non-finite pixel is rejected before it reaches the background.
func (p *Preprocessor) Process(frame *Image) (*Image, error) {
	if err := p.foreground(frame); err != nil {
		return nil, err
	}
	roi := p.cfg.ROI
	if roi.Empty() {
		roi = Rect{X0: 0, Y0: 0, X1: frame.W, Y1: frame.H}
	}
	roi, err := gridROI(frame.W, frame.H, roi, p.cfg.GridW, p.cfg.GridH)
	if err != nil {
		return nil, fmt.Errorf("vp: %w", err)
	}
	grid := p.grids.next(p.cfg.GridW, p.cfg.GridH)
	p.mask.occupancy(roi, grid)
	return grid, nil
}

// ProcessMask runs subtraction and opening only, returning the full-
// resolution binary mask; the detection experiments (Table II) use
// this directly.
func (p *Preprocessor) ProcessMask(frame *Image) (*Image, error) {
	if err := p.foreground(frame); err != nil {
		return nil, err
	}
	return p.mask.unpack(), nil
}

// foreground leaves the opened foreground mask of frame in p.mask.
func (p *Preprocessor) foreground(frame *Image) error {
	if err := p.bg.foreground(frame, p.cfg.Threshold, &p.mask); err != nil {
		return fmt.Errorf("vp: %w", err)
	}
	if p.cfg.OpenRadius > 0 {
		p.mask.morph(p.cfg.OpenRadius, true, &p.tmp)
		p.mask.morph(p.cfg.OpenRadius, false, &p.tmp)
	}
	return nil
}

// gridSlabLen is the number of grids carved from one slab allocation.
const gridSlabLen = 8

// gridSlab hands out fresh grids carved from shared backing arrays, so
// steady-state Process makes two allocations per gridSlabLen frames
// instead of two per frame. A grid is never handed out twice: the
// caller owns it, and a slab lives as long as any of its grids.
type gridSlab struct {
	imgs []Image
	pix  []float64
}

// next returns a zeroed w×h grid.
func (s *gridSlab) next(w, h int) *Image {
	n := w * h
	if len(s.imgs) == 0 || len(s.pix) < n {
		s.imgs = make([]Image, gridSlabLen)
		s.pix = make([]float64, gridSlabLen*n)
	}
	im := &s.imgs[0]
	*im = Image{W: w, H: h, Pix: s.pix[:n:n]}
	s.imgs, s.pix = s.imgs[1:], s.pix[n:]
	return im
}

// ClipTensor stacks a sequence of occupancy grids into a [1,T,H,W]
// tensor, the input layout of the video classifiers.
func ClipTensor(grids []*Image) (*tensor.Tensor, error) {
	if len(grids) == 0 {
		return nil, fmt.Errorf("vision: empty clip")
	}
	h, w := grids[0].H, grids[0].W
	out := tensor.New(1, len(grids), h, w)
	for t, g := range grids {
		if g.W != w || g.H != h {
			return nil, fmt.Errorf("vision: frame %d is %dx%d, want %dx%d", t, g.W, g.H, w, h)
		}
		copy(out.Data[t*h*w:(t+1)*h*w], g.Pix)
	}
	return out, nil
}
