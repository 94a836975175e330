package vision

import (
	"errors"
	"fmt"
	"math"
)

// BackgroundModel maintains a dynamic per-pixel background estimate
// with exponential forgetting, the "constantly updated background"
// the paper's VP module subtracts from each frame. A dynamic model
// tracks slow illumination drift that a static reference frame would
// misclassify as motion.
//
// The model only ever folds in finite frames: one NaN or ±Inf pixel
// would turn its background pixel into NaN, and |v − NaN| ≥ t is never
// true, so that pixel would stay blind for good. Update and Foreground
// reject such a frame with an error and leave the background as it was.
type BackgroundModel struct {
	// Alpha is the per-frame learning rate in (0, 1]; larger values
	// adapt faster but absorb slow-moving vehicles into the
	// background.
	Alpha float64

	bg     Image
	primed bool
}

// NewBackgroundModel creates a background model with learning rate
// alpha. The first observed frame primes the model.
func NewBackgroundModel(alpha float64) *BackgroundModel {
	return &BackgroundModel{Alpha: alpha}
}

// Background returns a copy of the current background estimate, or
// nil if no frame has been observed yet.
func (m *BackgroundModel) Background() *Image {
	if !m.primed {
		return nil
	}
	return m.bg.Clone()
}

// Primed reports whether the model has observed at least one frame.
func (m *BackgroundModel) Primed() bool { return m.primed }

// errNonFinite is the rejection of a frame with a NaN or ±Inf pixel.
var errNonFinite = errors.New("vision: frame has a non-finite pixel")

// matches checks that frame has the background's size.
func (m *BackgroundModel) matches(frame *Image) error {
	if frame.W != m.bg.W || frame.H != m.bg.H {
		return fmt.Errorf("vision: frame %dx%d does not match background %dx%d",
			frame.W, frame.H, m.bg.W, m.bg.H)
	}
	return nil
}

// blend is the background update for one pixel.
func blend(bg, v, a float64) float64 { return (1-a)*bg + a*v }

// Update folds a new frame into the background estimate; the first
// frame primes it.
func (m *BackgroundModel) Update(frame *Image) error {
	if !frame.Finite() {
		return errNonFinite
	}
	if !m.primed {
		m.bg = Image{W: frame.W, H: frame.H, Pix: append(m.bg.Pix[:0], frame.Pix...)}
		m.primed = true
		return nil
	}
	if err := m.matches(frame); err != nil {
		return err
	}
	a := m.Alpha
	for i, v := range frame.Pix {
		m.bg.Pix[i] = blend(m.bg.Pix[i], v, a)
	}
	return nil
}

// Subtract returns the absolute difference between a frame and the
// current background, without updating the model. Call Update
// separately so callers control whether a frame is folded in before
// or after differencing.
func (m *BackgroundModel) Subtract(frame *Image) (*Image, error) {
	if !m.primed {
		return nil, fmt.Errorf("vision: background model not primed")
	}
	return AbsDiff(frame, &m.bg)
}

// Foreground runs the full subtraction step the paper describes:
// difference against the dynamic background, threshold into a binary
// mask, then fold the frame into the background. The first frame
// primes the model and yields an empty mask.
func (m *BackgroundModel) Foreground(frame *Image, threshold float64) (*Image, error) {
	var mask bitmap
	if err := m.foreground(frame, threshold, &mask); err != nil {
		return nil, err
	}
	return mask.unpack(), nil
}

// foreground is Foreground into a packed mask, in one pass over the
// frame once it proved finite: each pixel is set when |v − bg| ≥
// threshold and then blended into the background.
func (m *BackgroundModel) foreground(frame *Image, threshold float64, mask *bitmap) error {
	if !m.primed {
		if err := m.Update(frame); err != nil {
			return err
		}
		mask.resize(frame.W, frame.H)
		clear(mask.words)
		return nil
	}
	if !frame.Finite() {
		return errNonFinite
	}
	if err := m.matches(frame); err != nil {
		return err
	}
	mask.resize(frame.W, frame.H)
	a, w := m.Alpha, frame.W
	for y := 0; y < frame.H; y++ {
		src := frame.Pix[y*w : (y+1)*w]
		bg := m.bg.Pix[y*w : (y+1)*w]
		dst := mask.row(y)
		for j := range dst {
			lo := j * 64
			hi := min(lo+64, w)
			s := src[lo:hi]
			b := bg[lo:hi][:len(s)]
			var word uint64
			for i, v := range s {
				var set uint64 // a conditional move, not a branch on noise
				if math.Abs(v-b[i]) >= threshold {
					set = 1
				}
				word |= set << (uint(i) & 63)
				b[i] = blend(b[i], v, a)
			}
			dst[j] = word
		}
	}
	return nil
}
