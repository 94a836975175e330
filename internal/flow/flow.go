// Package flow implements the two optical-flow baselines the paper
// compares against background subtraction in its detection study
// (Table II, Fig. 8): sparse Lucas–Kanade corner tracking and dense
// Horn–Schunck flow.
package flow

import (
	"fmt"
	"math"
	"sort"

	"safecross/internal/vision"
)

// Point is a sub-pixel image location.
type Point struct {
	X, Y float64
}

// TrackedPoint is the result of tracking one point between frames.
type TrackedPoint struct {
	// From is the original location, To the tracked location.
	From, To Point
	// Valid reports whether the local system was well-conditioned
	// enough to produce a trustworthy estimate.
	Valid bool
}

// Displacement returns the tracked motion vector (dx, dy).
func (t TrackedPoint) Displacement() (float64, float64) {
	return t.To.X - t.From.X, t.To.Y - t.From.Y
}

// gradients computes central-difference spatial gradients.
func gradients(im *vision.Image) (ix, iy []float64) {
	ix = make([]float64, im.W*im.H)
	iy = make([]float64, im.W*im.H)
	for y := 0; y < im.H; y++ {
		for x := 0; x < im.W; x++ {
			ix[y*im.W+x] = (im.At(x+1, y) - im.At(x-1, y)) / 2
			iy[y*im.W+x] = (im.At(x, y+1) - im.At(x, y-1)) / 2
		}
	}
	return ix, iy
}

// FindCorners returns up to maxCorners Shi–Tomasi corners: locations
// where the smaller eigenvalue of the local structure tensor exceeds
// quality × (the best response in the image). Corners closer than
// minDist pixels to an already selected corner are suppressed.
//
// On the noisy low-contrast surveillance frames the paper works with,
// the strongest responses come from lane markings and sensor noise
// rather than from the small far-away vehicles — which is exactly why
// sparse optical flow fails in the paper's comparison.
func FindCorners(im *vision.Image, maxCorners int, quality float64, minDist int) []Point {
	if maxCorners <= 0 {
		return nil
	}
	ix, iy := gradients(im)
	const win = 2
	type scored struct {
		x, y int
		resp float64
	}
	var cands []scored
	best := 0.0
	// The margin keeps windows away from the outermost pixel ring,
	// where out-of-bounds reads fabricate gradients.
	const margin = win + 1
	for y := margin; y < im.H-margin; y++ {
		for x := margin; x < im.W-margin; x++ {
			var sxx, syy, sxy float64
			for dy := -win; dy <= win; dy++ {
				for dx := -win; dx <= win; dx++ {
					gx := ix[(y+dy)*im.W+(x+dx)]
					gy := iy[(y+dy)*im.W+(x+dx)]
					sxx += gx * gx
					syy += gy * gy
					sxy += gx * gy
				}
			}
			// Smaller eigenvalue of [[sxx,sxy],[sxy,syy]].
			tr := sxx + syy
			det := sxx*syy - sxy*sxy
			disc := tr*tr/4 - det
			if disc < 0 {
				disc = 0
			}
			lmin := tr/2 - math.Sqrt(disc)
			if lmin > 0 {
				cands = append(cands, scored{x: x, y: y, resp: lmin})
				if lmin > best {
					best = lmin
				}
			}
		}
	}
	if best == 0 {
		return nil
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].resp > cands[j].resp })
	threshold := quality * best
	var out []Point
	for _, c := range cands {
		if c.resp < threshold || len(out) >= maxCorners {
			break
		}
		ok := true
		for _, p := range out {
			dx, dy := float64(c.x)-p.X, float64(c.y)-p.Y
			if dx*dx+dy*dy < float64(minDist*minDist) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, Point{X: float64(c.x), Y: float64(c.y)})
		}
	}
	return out
}

// LucasKanade tracks the given points from prev to cur by solving the
// windowed least-squares flow system at each point. Points whose
// structure tensor is ill-conditioned are returned with Valid=false.
func LucasKanade(prev, cur *vision.Image, pts []Point, window int) ([]TrackedPoint, error) {
	if prev.W != cur.W || prev.H != cur.H {
		return nil, fmt.Errorf("flow: frame sizes differ %dx%d vs %dx%d", prev.W, prev.H, cur.W, cur.H)
	}
	ix, iy := gradients(prev)
	out := make([]TrackedPoint, len(pts))
	for i, p := range pts {
		px, py := int(p.X), int(p.Y)
		var sxx, syy, sxy, sxt, syt float64
		for dy := -window; dy <= window; dy++ {
			for dx := -window; dx <= window; dx++ {
				x, y := px+dx, py+dy
				if x < 0 || x >= prev.W || y < 0 || y >= prev.H {
					continue
				}
				gx := ix[y*prev.W+x]
				gy := iy[y*prev.W+x]
				gt := cur.At(x, y) - prev.At(x, y)
				sxx += gx * gx
				syy += gy * gy
				sxy += gx * gy
				sxt += gx * gt
				syt += gy * gt
			}
		}
		det := sxx*syy - sxy*sxy
		tp := TrackedPoint{From: p, To: p}
		// Conditioning guard: tiny determinant means the aperture
		// problem makes the solution meaningless.
		if det > 1e-9 {
			u := (-syy*sxt + sxy*syt) / det
			v := (sxy*sxt - sxx*syt) / det
			tp.To = Point{X: p.X + u, Y: p.Y + v}
			tp.Valid = true
		}
		out[i] = tp
	}
	return out, nil
}

// DenseField is a per-pixel flow field.
type DenseField struct {
	// W and H are the field dimensions.
	W, H int
	// U and V are the horizontal and vertical flow components,
	// row-major.
	U, V []float64
}

// MagnitudeImage returns the per-pixel flow magnitude as an image,
// which the dense-flow detector thresholds to find movers.
func (f *DenseField) MagnitudeImage() *vision.Image {
	out := vision.NewImage(f.W, f.H)
	for i := range f.U {
		out.Pix[i] = math.Hypot(f.U[i], f.V[i])
	}
	return out
}

// HornSchunck computes dense optical flow between prev and cur with
// the classic Horn–Schunck iteration: alpha is the smoothness weight
// and iters the number of relaxation sweeps. Cost grows linearly with
// iters — this is what makes dense flow much slower than background
// subtraction in Table II.
func HornSchunck(prev, cur *vision.Image, alpha float64, iters int) (*DenseField, error) {
	if prev.W != cur.W || prev.H != cur.H {
		return nil, fmt.Errorf("flow: frame sizes differ %dx%d vs %dx%d", prev.W, prev.H, cur.W, cur.H)
	}
	if iters <= 0 {
		return nil, fmt.Errorf("flow: iters %d must be positive", iters)
	}
	w, h := prev.W, prev.H
	n := w * h
	ix := make([]float64, n)
	iy := make([]float64, n)
	it := make([]float64, n)
	// Horn–Schunck derivative estimates averaged over both frames.
	for y := 0; y < h; y++ {
		for x := 0; x < w; x++ {
			ix[y*w+x] = ((prev.At(x+1, y) - prev.At(x-1, y)) + (cur.At(x+1, y) - cur.At(x-1, y))) / 4
			iy[y*w+x] = ((prev.At(x, y+1) - prev.At(x, y-1)) + (cur.At(x, y+1) - cur.At(x, y-1))) / 4
			it[y*w+x] = cur.At(x, y) - prev.At(x, y)
		}
	}
	u := make([]float64, n)
	v := make([]float64, n)
	ubar := make([]float64, n)
	vbar := make([]float64, n)
	a2 := alpha * alpha
	avg := func(f []float64, x, y int) float64 {
		s, c := 0.0, 0
		for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
			nx, ny := x+d[0], y+d[1]
			if nx < 0 || nx >= w || ny < 0 || ny >= h {
				continue
			}
			s += f[ny*w+nx]
			c++
		}
		if c == 0 {
			return 0
		}
		return s / float64(c)
	}
	for k := 0; k < iters; k++ {
		for y := 0; y < h; y++ {
			row := y * w
			if y == 0 || y == h-1 || w < 3 {
				for x := 0; x < w; x++ {
					ubar[row+x], vbar[row+x] = avg(u, x, y), avg(v, x, y)
				}
				continue
			}
			ubar[row], vbar[row] = avg(u, 0, y), avg(v, 0, y)
			for i := row + 1; i < row+w-1; i++ {
				// Interior pixels have all four neighbours: the same sum,
				// in avg's order from +0, without its bounds checks.
				ubar[i] = (0 + u[i+1] + u[i-1] + u[i+w] + u[i-w]) / 4
				vbar[i] = (0 + v[i+1] + v[i-1] + v[i+w] + v[i-w]) / 4
			}
			ubar[row+w-1], vbar[row+w-1] = avg(u, w-1, y), avg(v, w-1, y)
		}
		for i := 0; i < n; i++ {
			num := ix[i]*ubar[i] + iy[i]*vbar[i] + it[i]
			den := a2 + ix[i]*ix[i] + iy[i]*iy[i]
			u[i] = ubar[i] - ix[i]*num/den
			v[i] = vbar[i] - iy[i]*num/den
		}
	}
	return &DenseField{W: w, H: h, U: u, V: v}, nil
}
