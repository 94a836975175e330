package vision

import (
	"math"
	"math/rand"
	"testing"
)

// The float-image operators as they were written before the packed
// kernels: one At() read per neighbourhood pixel. They are the
// reference the packed kernels must match bit for bit.

func naiveErode(im *Image, r int) *Image {
	out := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			keep := true
			for dy := -r; dy <= r && keep; dy++ {
				for dx := -r; dx <= r; dx++ {
					if im.At(x+dx, y+dy) < 0.5 {
						keep = false
						break
					}
				}
			}
			if keep {
				out.Pix[y*im.W+x] = 1
			}
		}
	}
	return out
}

func naiveDilate(im *Image, r int) *Image {
	out := NewImage(im.W, im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			hit := false
			for dy := -r; dy <= r && !hit; dy++ {
				for dx := -r; dx <= r; dx++ {
					if im.At(x+dx, y+dy) >= 0.5 {
						hit = true
						break
					}
				}
			}
			if hit {
				out.Pix[y*im.W+x] = 1
			}
		}
	}
	return out
}

func naiveOccupancyGrid(mask *Image, roi Rect, gw, gh int) *Image {
	roi = roi.Intersect(Rect{X0: 0, Y0: 0, X1: mask.W, Y1: mask.H})
	out := NewImage(gw, gh)
	cellW := float64(roi.Width()) / float64(gw)
	cellH := float64(roi.Height()) / float64(gh)
	for gy := 0; gy < gh; gy++ {
		y0 := roi.Y0 + int(float64(gy)*cellH)
		y1 := roi.Y0 + int(float64(gy+1)*cellH)
		if y1 <= y0 {
			y1 = y0 + 1
		}
		for gx := 0; gx < gw; gx++ {
			x0 := roi.X0 + int(float64(gx)*cellW)
			x1 := roi.X0 + int(float64(gx+1)*cellW)
			if x1 <= x0 {
				x1 = x0 + 1
			}
			on, total := 0, 0
			for y := y0; y < y1 && y < roi.Y1; y++ {
				row := mask.Pix[y*mask.W:]
				for x := x0; x < x1 && x < roi.X1; x++ {
					total++
					if row[x] >= 0.5 {
						on++
					}
				}
			}
			if total > 0 {
				out.Pix[gy*gw+gx] = float64(on) / float64(total)
			}
		}
	}
	return out
}

// naiveVP is the pre-change Preprocessor.Process: AbsDiff, Threshold
// and the blended background update as separate float passes, then the
// naive opening and pooling.
type naiveVP struct {
	cfg VPConfig
	bg  *Image
}

func (p *naiveVP) process(frame *Image) *Image {
	var mask *Image
	if p.bg == nil {
		p.bg = frame.Clone()
		mask = NewImage(frame.W, frame.H)
	} else {
		diff, err := AbsDiff(frame, p.bg)
		if err != nil {
			panic(err)
		}
		mask = diff.Threshold(p.cfg.Threshold)
		a := p.cfg.Alpha
		for i, v := range frame.Pix {
			p.bg.Pix[i] = (1-a)*p.bg.Pix[i] + a*v
		}
	}
	if r := p.cfg.OpenRadius; r > 0 {
		mask = naiveDilate(naiveErode(mask, r), r)
	}
	roi := p.cfg.ROI
	if roi.Empty() {
		roi = Rect{X1: frame.W, Y1: frame.H}
	}
	return naiveOccupancyGrid(mask, roi, p.cfg.GridW, p.cfg.GridH)
}

// sameBits reports whether two images are equal bit for bit.
func sameBits(a, b *Image) bool {
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

// randomImage returns a w×h image: binary (0/1, density p) or grayscale
// in [0, 1) with a few NaN pixels and values sitting exactly on 0.5.
func randomImage(rng *rand.Rand, w, h int, binary bool, p float64) *Image {
	im := NewImage(w, h)
	for i := range im.Pix {
		switch {
		case binary:
			if rng.Float64() < p {
				im.Pix[i] = 1
			}
		case rng.Intn(40) == 0:
			im.Pix[i] = math.NaN()
		case rng.Intn(40) == 0:
			im.Pix[i] = 0.5
		default:
			im.Pix[i] = rng.Float64()
		}
	}
	return im
}

func TestMorphologyMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, w := range []int{1, 63, 64, 65, 128, 130} {
		for _, h := range []int{1, 5, 9} {
			for _, kind := range []struct {
				binary bool
				p      float64
			}{{true, 0.3}, {true, 0.8}, {true, 1}, {false, 0}} {
				im := randomImage(rng, w, h, kind.binary, kind.p)
				for r := 0; r <= 3; r++ {
					if got, want := Erode(im, r), naiveErode(im, r); !sameBits(got, want) {
						t.Fatalf("Erode w=%d h=%d r=%d binary=%v differs from the naive reference", w, h, r, kind.binary)
					}
					if got, want := Dilate(im, r), naiveDilate(im, r); !sameBits(got, want) {
						t.Fatalf("Dilate w=%d h=%d r=%d binary=%v differs from the naive reference", w, h, r, kind.binary)
					}
					if got, want := Open(im, r), naiveDilate(naiveErode(im, r), r); !sameBits(got, want) {
						t.Fatalf("Open w=%d h=%d r=%d binary=%v differs from the naive reference", w, h, r, kind.binary)
					}
				}
			}
		}
	}
}

func TestMorphologyNaNConvention(t *testing.T) {
	im := NewImage(3, 3)
	im.Fill(math.NaN())
	if e := Erode(im, 1); e.At(1, 1) != 1 {
		t.Fatal("erosion reads NaN as set")
	}
	if d := Dilate(im, 1); d.At(1, 1) != 0 {
		t.Fatal("dilation reads NaN as unset")
	}
}

func TestOccupancyGridMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, w := range []int{1, 63, 64, 65, 130} {
		im := randomImage(rng, w, 23, false, 0)
		for _, c := range []struct {
			roi    Rect
			gw, gh int
		}{
			{Rect{X1: w, Y1: 23}, 16, 10},
			{Rect{X0: w / 3, Y0: 4, X1: w, Y1: 21}, 7, 3},
			{Rect{X0: -5, Y0: -5, X1: w + 5, Y1: 40}, 3, 30}, // cells thinner than a pixel
			{Rect{X0: w - 1, Y0: 22, X1: w + 9, Y1: 30}, 4, 2},
		} {
			got, err := OccupancyGrid(im, c.roi, c.gw, c.gh)
			if err != nil {
				t.Fatal(err)
			}
			if want := naiveOccupancyGrid(im, c.roi, c.gw, c.gh); !sameBits(got, want) {
				t.Fatalf("w=%d roi=%+v %dx%d: grid %v, naive %v", w, c.roi, c.gw, c.gh, got.Pix, want.Pix)
			}
		}
	}
}

// vpStream renders a seeded stream of noisy frames with a few moving
// blocks, the shape of camera input the VP module sees.
func vpStream(seed int64, w, h, n int) []*Image {
	rng := rand.New(rand.NewSource(seed))
	frames := make([]*Image, n)
	for k := range frames {
		f := NewImage(w, h)
		f.Fill(0.35)
		for b := 0; b < 3; b++ {
			x := (k*(3+b) + b*40) % w
			y := (b*h/3 + k) % h
			f.FillRect(x, y, x+9+b, y+6, 0.9-0.2*float64(b))
		}
		f.AddGaussianNoise(rng, 0.05)
		f.AddSaltPepper(rng, 0.01)
		frames[k] = f
	}
	return frames
}

func TestProcessMatchesComposedAndNaive(t *testing.T) {
	cfg := DefaultVPConfig()
	cfg.ROI = Rect{X0: 13, Y0: 7, X1: 150, Y1: 90} // 137/16 and 83/10: non-integer cells
	for _, radius := range []int{0, 1, 2} {
		cfg.OpenRadius = radius
		pre := NewPreprocessor(cfg)
		bg := NewBackgroundModel(cfg.Alpha)
		ref := &naiveVP{cfg: cfg}
		nonZero := 0
		for k, frame := range vpStream(int64(radius), 160, 96, 40) {
			got, err := pre.Process(frame)
			if err != nil {
				t.Fatal(err)
			}
			mask, err := bg.Foreground(frame, cfg.Threshold)
			if err != nil {
				t.Fatal(err)
			}
			if radius > 0 {
				mask = Open(mask, radius)
			}
			composed, err := OccupancyGrid(mask, cfg.ROI, cfg.GridW, cfg.GridH)
			if err != nil {
				t.Fatal(err)
			}
			if !sameBits(got, composed) {
				t.Fatalf("r=%d frame %d: Process %v, Foreground→Open→OccupancyGrid %v", radius, k, got.Pix, composed.Pix)
			}
			if want := ref.process(frame); !sameBits(got, want) {
				t.Fatalf("r=%d frame %d: Process %v, pre-change pipeline %v", radius, k, got.Pix, want.Pix)
			}
			for _, v := range got.Pix {
				if v != 0 {
					nonZero++
				}
			}
		}
		if nonZero == 0 {
			t.Fatalf("r=%d: every grid cell was empty; the comparison proved nothing", radius)
		}
	}
}

// A non-finite frame used to blind VP for good: its NaN entered the
// background and |v − NaN| ≥ t is never true. Process must reject it
// and leave the background untouched.
func TestProcessRejectsNonFiniteFrame(t *testing.T) {
	cfg := DefaultVPConfig()
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		pre := NewPreprocessor(cfg)
		empty := NewImage(64, 40)
		empty.Fill(0.3)
		for i := 0; i < 3; i++ {
			if _, err := pre.Process(empty); err != nil {
				t.Fatal(err)
			}
		}
		before := pre.bg.Background()
		poisoned := empty.Clone()
		poisoned.Fill(bad)
		if _, err := pre.Process(poisoned); err == nil {
			t.Fatalf("Process accepted a frame of %v", bad)
		}
		one := empty.Clone()
		one.Pix[17] = bad
		if _, err := pre.Process(one); err == nil {
			t.Fatalf("Process accepted a frame with one %v pixel", bad)
		}
		if !sameBits(pre.bg.Background(), before) {
			t.Fatalf("a rejected %v frame changed the background", bad)
		}
		vehicle := empty.Clone()
		vehicle.Fill(0.95)
		grid, err := pre.Process(vehicle)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range grid.Pix {
			if v == 0 {
				t.Fatalf("after a rejected %v frame, cell %d misses a frame-filling vehicle", bad, i)
			}
		}
	}
	fresh := NewPreprocessor(cfg)
	nan := NewImage(8, 8)
	nan.Pix[3] = math.NaN()
	if _, err := fresh.Process(nan); err == nil {
		t.Fatal("an unprimed Process must not prime on a non-finite frame")
	}
	if fresh.bg.Primed() {
		t.Fatal("a rejected frame primed the background")
	}
}

func TestBackgroundUpdateRejectsNonFinite(t *testing.T) {
	bg := NewBackgroundModel(0.1)
	if err := bg.Update(NewImage(4, 4)); err != nil {
		t.Fatal(err)
	}
	bad := NewImage(4, 4)
	bad.Pix[5] = math.Inf(1)
	if err := bg.Update(bad); err == nil {
		t.Fatal("Update accepted an Inf pixel")
	}
	if _, err := bg.Foreground(bad, 0.1); err == nil {
		t.Fatal("Foreground accepted an Inf pixel")
	}
	for _, v := range bg.Background().Pix {
		if v != 0 {
			t.Fatal("a rejected frame changed the background")
		}
	}
}

func TestFinite(t *testing.T) {
	im := NewImage(3, 2)
	im.Pix[4] = math.MaxFloat64
	if !im.Finite() {
		t.Fatal("finite image reported non-finite")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		im.Pix[2] = v
		if im.Finite() {
			t.Fatalf("image with %v reported finite", v)
		}
	}
}
