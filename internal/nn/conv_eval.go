package nn

// convEval is one eval-mode convolution computed directly, without a
// column matrix: a channel-major input [InC,N,T,H,W] and weights
// [OutC, InC*KT*KH*KW] (tap index p = ((ci*KT+kt)*KH+kh)*KW+kw) into
// the output [OutC,N,OT,OH,OW]. Conv2D runs it with T = KT = 1.
//
// For each block of up to convBlock output channels of one sample, the
// kernel walks the taps p in ascending order and adds W[o][p]·x into
// the output rows, only over the output box where that tap lands inside
// the input. Each output therefore sums from +0 in ascending p, exactly
// as the train-mode im2col + matmul does; the terms it skips are
// W[o][p]·0 = ±0, which cannot change a sum that starts at +0, so the
// result is bit-identical to Forward. The bias is added last, as there.
type convEval struct {
	out, x, w, b []float64

	inC, outC, n int
	t, h, wd     int
	kt, kh, kw   int
	st, sh, sw   int
	pt, ph, pw   int
	ot, oh, ow   int
}

// convBlock is the number of output channels one walk over the taps
// accumulates: every input value loaded feeds that many output rows.
const convBlock = 4

// convMinSplitMACs is the smallest convolution (in multiply-adds,
// padding included) the eval kernel fans out over the kernel pool.
// Below it the handoff costs more than a second core saves: every
// single-clip SlowFast layer (at most about 166k MACs) runs inline,
// while batch-8 clips and full-resolution yolite frames split.
const convMinSplitMACs = 1 << 18

// run computes the whole convolution. A work item is one sample and
// one block of output channels, and each output element belongs to
// exactly one item; the items split over the kernel pool when the layer
// is large enough to pay for the handoff.
func (k convEval) run(ws *Workspace) {
	items := k.n * ((k.outC + convBlock - 1) / convBlock)
	itemMACs := min(convBlock, k.outC) * k.inC * k.kt * k.kh * k.kw * k.ot * k.oh * k.ow
	if items*itemMACs < convMinSplitMACs {
		k.chunk(0, items)
		return
	}
	ws.kern.conv = k
	ws.parallel(items, 2*itemMACs, &ws.kern.conv)
}

// span returns the output range [lo, hi) along one axis (input length
// n, output length on, stride s, padding p) where kernel offset off
// reads inside the input: 0 <= o*s - p + off < n.
func span(n, on, s, p, off int) (lo, hi int) {
	if d := p - off; d > 0 {
		lo = (d + s - 1) / s
	}
	last := n - 1 + p - off
	if last < 0 {
		return 0, 0
	}
	hi = last/s + 1
	if hi > on {
		hi = on
	}
	return lo, hi
}

// tapBox is the output box [t0,t1)×[y0,y1)×[x0,x1) one tap reaches
// inside the input; off is the input offset of output (0,0,0) for that
// tap (it may be negative: only in-box outputs are visited).
type tapBox struct {
	t0, t1, y0, y1, x0, x1 int
	off                    int
}

// chunk computes items [lo, hi).
func (k *convEval) chunk(lo, hi int) {
	nb := (k.outC + convBlock - 1) / convBlock
	taps := k.inC * k.kt * k.kh * k.kw
	ovol := k.ot * k.oh * k.ow
	ivol := k.t * k.h * k.wd
	for item := lo; item < hi; item++ {
		ni, o0 := item/nb, item%nb*convBlock
		r := min(convBlock, k.outC-o0)
		var dst [convBlock][]float64
		for i := 0; i < r; i++ {
			at := ((o0+i)*k.n + ni) * ovol
			dst[i] = k.out[at : at+ovol]
			clear(dst[i])
		}
		for ci := 0; ci < k.inC; ci++ {
			src := k.x[(ci*k.n+ni)*ivol : (ci*k.n+ni+1)*ivol]
			for kti := 0; kti < k.kt; kti++ {
				var b tapBox
				if b.t0, b.t1 = span(k.t, k.ot, k.st, k.pt, kti); b.t0 >= b.t1 {
					continue
				}
				for ki := 0; ki < k.kh; ki++ {
					if b.y0, b.y1 = span(k.h, k.oh, k.sh, k.ph, ki); b.y0 >= b.y1 {
						continue
					}
					for kj := 0; kj < k.kw; kj++ {
						if b.x0, b.x1 = span(k.wd, k.ow, k.sw, k.pw, kj); b.x0 >= b.x1 {
							continue
						}
						b.off = ((kti-k.pt)*k.h+ki-k.ph)*k.wd + kj - k.pw
						p := ((ci*k.kt+kti)*k.kh+ki)*k.kw + kj
						var w [convBlock]float64
						for i := 0; i < r; i++ {
							w[i] = k.w[(o0+i)*taps+p]
						}
						switch r {
						case 4:
							k.tap4(&dst, &w, src, &b)
						case 3:
							k.tap3(&dst, &w, src, &b)
						case 2:
							k.tap2(&dst, &w, src, &b)
						default:
							k.tap1(&dst, &w, src, &b)
						}
					}
				}
			}
		}
		for i := 0; i < r; i++ {
			bias := k.b[o0+i]
			row := dst[i]
			for j := range row {
				row[j] += bias
			}
		}
	}
}

// The tapN functions add one tap's contribution w[i]·x to N output
// rows d[i] over the tap's box b, reading the input src.

func (k *convEval) tap4(d *[convBlock][]float64, w *[convBlock]float64, src []float64, b *tapBox) {
	w0, w1, w2, w3 := w[0], w[1], w[2], w[3]
	nx, sw := b.x1-b.x0, k.sw
	oRow, iRow, iPlane := k.ow, k.sh*k.wd, k.st*k.h*k.wd
	for oz := b.t0; oz < b.t1; oz++ {
		o := (oz*k.oh+b.y0)*oRow + b.x0
		i := oz*iPlane + b.y0*iRow + b.x0*sw + b.off
		for oy := b.y0; oy < b.y1; oy, o, i = oy+1, o+oRow, i+iRow {
			s := src[i : i+(nx-1)*sw+1]
			d0, d1, d2, d3 := d[0][o:o+nx], d[1][o:o+nx], d[2][o:o+nx], d[3][o:o+nx]
			for j := range d0 {
				v := s[j*sw]
				d0[j] += w0 * v
				d1[j] += w1 * v
				d2[j] += w2 * v
				d3[j] += w3 * v
			}
		}
	}
}

func (k *convEval) tap3(d *[convBlock][]float64, w *[convBlock]float64, src []float64, b *tapBox) {
	w0, w1, w2 := w[0], w[1], w[2]
	nx, sw := b.x1-b.x0, k.sw
	oRow, iRow, iPlane := k.ow, k.sh*k.wd, k.st*k.h*k.wd
	for oz := b.t0; oz < b.t1; oz++ {
		o := (oz*k.oh+b.y0)*oRow + b.x0
		i := oz*iPlane + b.y0*iRow + b.x0*sw + b.off
		for oy := b.y0; oy < b.y1; oy, o, i = oy+1, o+oRow, i+iRow {
			s := src[i : i+(nx-1)*sw+1]
			d0, d1, d2 := d[0][o:o+nx], d[1][o:o+nx], d[2][o:o+nx]
			for j := range d0 {
				v := s[j*sw]
				d0[j] += w0 * v
				d1[j] += w1 * v
				d2[j] += w2 * v
			}
		}
	}
}

func (k *convEval) tap2(d *[convBlock][]float64, w *[convBlock]float64, src []float64, b *tapBox) {
	w0, w1 := w[0], w[1]
	nx, sw := b.x1-b.x0, k.sw
	oRow, iRow, iPlane := k.ow, k.sh*k.wd, k.st*k.h*k.wd
	for oz := b.t0; oz < b.t1; oz++ {
		o := (oz*k.oh+b.y0)*oRow + b.x0
		i := oz*iPlane + b.y0*iRow + b.x0*sw + b.off
		for oy := b.y0; oy < b.y1; oy, o, i = oy+1, o+oRow, i+iRow {
			s := src[i : i+(nx-1)*sw+1]
			d0, d1 := d[0][o:o+nx], d[1][o:o+nx]
			for j := range d0 {
				v := s[j*sw]
				d0[j] += w0 * v
				d1[j] += w1 * v
			}
		}
	}
}

func (k *convEval) tap1(d *[convBlock][]float64, w *[convBlock]float64, src []float64, b *tapBox) {
	w0 := w[0]
	nx, sw := b.x1-b.x0, k.sw
	oRow, iRow, iPlane := k.ow, k.sh*k.wd, k.st*k.h*k.wd
	for oz := b.t0; oz < b.t1; oz++ {
		o := (oz*k.oh+b.y0)*oRow + b.x0
		i := oz*iPlane + b.y0*iRow + b.x0*sw + b.off
		for oy := b.y0; oy < b.y1; oy, o, i = oy+1, o+oRow, i+iRow {
			s := src[i : i+(nx-1)*sw+1]
			d0 := d[0][o : o+nx]
			for j := range d0 {
				d0[j] += w0 * s[j*sw]
			}
		}
	}
}
