package tensor

import "fmt"

// ConvOutSize returns the output length of a convolution along one
// axis with input size n, kernel k, stride s and symmetric padding p.
func ConvOutSize(n, k, s, p int) int {
	return (n+2*p-k)/s + 1
}

// Im2Col unrolls a [C,H,W] tensor into a [C*KH*KW, OH*OW] matrix so
// that a 2-D convolution becomes a single matrix multiply with a
// weight matrix of shape [OC, C*KH*KW]. Out-of-bounds (padding)
// positions contribute zeros. It is the T=1 case of Im2Col3D, whose
// column layout it shares.
func Im2Col(x *Tensor, kh, kw, sh, sw, ph, pw int) (*Tensor, error) {
	if x.Rank() != 3 {
		return nil, fmt.Errorf("tensor: im2col needs [C,H,W] input, got %v", x.Shape)
	}
	cols, err := Im2Col3D(x.MustReshape(x.Shape[0], 1, x.Shape[1], x.Shape[2]), 1, kh, kw, 1, sh, sw, 0, ph, pw)
	if err != nil {
		return nil, fmt.Errorf("tensor: im2col input %v kernel %dx%d: %w", x.Shape, kh, kw, err)
	}
	return cols, nil
}

// Col2Im scatters a [C*KH*KW, OH*OW] column matrix back into a
// [C,H,W] tensor, accumulating overlapping contributions. It is the
// adjoint of Im2Col and is used by convolution backward passes.
func Col2Im(cols *Tensor, c, h, w, kh, kw, sh, sw, ph, pw int) (*Tensor, error) {
	x, err := Col2Im3D(cols, c, 1, h, w, 1, kh, kw, 1, sh, sw, 0, ph, pw)
	if err != nil {
		return nil, err
	}
	return x.MustReshape(c, h, w), nil
}

// Im2Col3D unrolls a [C,T,H,W] tensor into a
// [C*KT*KH*KW, OT*OH*OW] matrix for 3-D (spatio-temporal)
// convolution; the training-mode forward of the SlowFast and C3D
// video networks multiplies it by the weights and keeps it for the
// backward pass. Only in-range positions are written: the matrix
// comes zeroed from New, so padding positions need no second clear.
// Row blocks fill in parallel on the bounded kernel pool.
func Im2Col3D(x *Tensor, kt, kh, kw, st, sh, sw, pt, ph, pw int) (*Tensor, error) {
	if x.Rank() != 4 {
		return nil, fmt.Errorf("tensor: im2col3d needs [C,T,H,W] input, got %v", x.Shape)
	}
	c, tn, h, w := x.Shape[0], x.Shape[1], x.Shape[2], x.Shape[3]
	ot := ConvOutSize(tn, kt, st, pt)
	oh := ConvOutSize(h, kh, sh, ph)
	ow := ConvOutSize(w, kw, sw, pw)
	if ot <= 0 || oh <= 0 || ow <= 0 {
		return nil, fmt.Errorf("tensor: im2col3d produces empty output for input %v kernel %dx%dx%d", x.Shape, kt, kh, kw)
	}
	rows, rowLen := c*kt*kh*kw, ot*oh*ow
	cols := New(rows, rowLen)
	ParallelFor(rows, rowLen, func(lo, hi int) {
		im2col3dRows(cols.Data, x.Data, tn, h, w, kt, kh, kw, st, sh, sw, pt, ph, pw, ot, oh, ow, lo, hi)
	})
	return cols, nil
}

// im2col3dRows fills column-matrix rows [lo, hi) — the chunk body of
// Im2Col3D. Padding positions are left as they are (zero).
func im2col3dRows(dstData, xData []float64, tn, h, w, kt, kh, kw, st, sh, sw, pt, ph, pw, ot, oh, ow, lo, hi int) {
	spat := h * w
	rowLen := ot * oh * ow
	for rowIdx := lo; rowIdx < hi; rowIdx++ {
		ci := rowIdx / (kt * kh * kw)
		kti := rowIdx / (kh * kw) % kt
		ki := rowIdx / kw % kh
		kj := rowIdx % kw
		volSrc := xData[ci*tn*spat:]
		out := dstData[rowIdx*rowLen:]
		for otz := 0; otz < ot; otz++ {
			it := otz*st - pt + kti
			if it < 0 || it >= tn {
				continue
			}
			plane := volSrc[it*spat:]
			for oy := 0; oy < oh; oy++ {
				iy := oy*sh - ph + ki
				if iy < 0 || iy >= h {
					continue
				}
				src := plane[iy*w:]
				dstRow := out[(otz*oh+oy)*ow:]
				for ox := 0; ox < ow; ox++ {
					ix := ox*sw - pw + kj
					if ix >= 0 && ix < w {
						dstRow[ox] = src[ix]
					}
				}
			}
		}
	}
}

// Col2Im3D scatters a column matrix produced by Im2Col3D back into a
// [C,T,H,W] tensor, accumulating overlaps; the adjoint of Im2Col3D.
func Col2Im3D(cols *Tensor, c, tn, h, w, kt, kh, kw, st, sh, sw, pt, ph, pw int) (*Tensor, error) {
	ot := ConvOutSize(tn, kt, st, pt)
	oh := ConvOutSize(h, kh, sh, ph)
	ow := ConvOutSize(w, kw, sw, pw)
	if cols.Rank() != 2 || cols.Shape[0] != c*kt*kh*kw || cols.Shape[1] != ot*oh*ow {
		return nil, fmt.Errorf("tensor: col2im3d shape %v incompatible with [%d,%d,%d,%d]", cols.Shape, c, tn, h, w)
	}
	x := New(c, tn, h, w)
	spat := h * w
	for ci := 0; ci < c; ci++ {
		vol := x.Data[ci*tn*spat : (ci+1)*tn*spat]
		for kti := 0; kti < kt; kti++ {
			for ki := 0; ki < kh; ki++ {
				for kj := 0; kj < kw; kj++ {
					rowIdx := ((ci*kt+kti)*kh+ki)*kw + kj
					row := cols.Data[rowIdx*ot*oh*ow:]
					for otz := 0; otz < ot; otz++ {
						it := otz*st - pt + kti
						if it < 0 || it >= tn {
							continue
						}
						plane := vol[it*spat:]
						for oy := 0; oy < oh; oy++ {
							iy := oy*sh - ph + ki
							if iy < 0 || iy >= h {
								continue
							}
							dst := plane[iy*w:]
							src := row[(otz*oh+oy)*ow:]
							for ox := 0; ox < ow; ox++ {
								ix := ox*sw - pw + kj
								if ix >= 0 && ix < w {
									dst[ix] += src[ox]
								}
							}
						}
					}
				}
			}
		}
	}
	return x, nil
}
