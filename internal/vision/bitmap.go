package vision

import "math/bits"

// bitmap is a binary image packed one bit per pixel, the working form
// of every VP kernel: row y is words[y*stride:(y+1)*stride] and pixel x
// is bit x%64 of word x/64. Bits past the image width are always zero,
// so a shift never carries a pixel in from the padding: pixels outside
// the image count as unset, as the morphology operators define.
type bitmap struct {
	w, h, stride int
	words        []uint64
}

// resize shapes b as a w×h bitmap, reusing its storage when it is large
// enough. The contents are left undefined; every writer overwrites
// whole rows.
func (b *bitmap) resize(w, h int) {
	b.w, b.h, b.stride = w, h, (w+63)/64
	if n := b.stride * h; cap(b.words) >= n {
		b.words = b.words[:n]
	} else {
		b.words = make([]uint64, n)
	}
}

// row returns the packed words of row y.
func (b *bitmap) row(y int) []uint64 { return b.words[y*b.stride : (y+1)*b.stride] }

// pack sets b to the binary form of im: a pixel is set when it is
// ≥ 0.5, and a NaN pixel is set only if nanSet is true (erosion reads
// "not below 0.5", dilation and pooling read "at least 0.5").
func (b *bitmap) pack(im *Image, nanSet bool) {
	b.resize(im.W, im.H)
	for y := 0; y < im.H; y++ {
		row := im.Pix[y*im.W : (y+1)*im.W]
		for j := range b.row(y) {
			var word uint64
			for i, v := range row[j*64 : min(len(row), j*64+64)] {
				if v >= 0.5 || (nanSet && v != v) {
					word |= 1 << uint(i)
				}
			}
			b.words[y*b.stride+j] = word
		}
	}
}

// unpack returns b as a binary Image of 0s and 1s.
func (b *bitmap) unpack() *Image {
	out := NewImage(b.w, b.h)
	for y := 0; y < b.h; y++ {
		row := out.Pix[y*b.w : (y+1)*b.w]
		for j, word := range b.row(y) {
			for ; word != 0; word &= word - 1 {
				row[j*64+bits.TrailingZeros64(word)] = 1
			}
		}
	}
	return out
}

// shifted returns word j of row moved so that bit x holds pixel x+d;
// d may be negative, and pixels outside the row read as unset. Go
// defines a shift by 64 or more as 0, which covers d%64 == 0.
func shifted(row []uint64, j, d int) uint64 {
	var lo, hi uint64
	if d >= 0 {
		q, s := j+d/64, uint(d%64)
		if q < len(row) {
			lo = row[q] >> s
		}
		if q+1 < len(row) {
			hi = row[q+1] << (64 - s)
		}
		return lo | hi
	}
	q, s := j+d/64, uint(-d%64)
	if q >= 0 {
		lo = row[q] << s
	}
	if q-1 >= 0 {
		hi = row[q-1] >> (64 - s)
	}
	return lo | hi
}

// morph erodes (AND) or dilates (OR) b in place with a (2r+1)×(2r+1)
// square, separably: a horizontal pass of word shifts into tmp, then a
// vertical pass of whole-row ANDs/ORs back into b. Both passes read
// outside pixels as unset, so the square equals the product of the two
// segments at the border too.
func (b *bitmap) morph(r int, erode bool, tmp *bitmap) {
	tmp.resize(b.w, b.h)
	tail := ^uint64(0) >> uint(b.stride*64-b.w) // the valid bits of a row's last word
	for y := 0; y < b.h; y++ {
		src, dst := b.row(y), tmp.row(y)
		for j, word := range src {
			for d := 1; d <= r; d++ {
				if erode {
					word &= shifted(src, j, d) & shifted(src, j, -d)
				} else {
					word |= shifted(src, j, d) | shifted(src, j, -d)
				}
			}
			dst[j] = word
		}
		if len(dst) > 0 {
			dst[len(dst)-1] &= tail
		}
	}
	for y := 0; y < b.h; y++ {
		dst := b.row(y)
		if erode && (y-r < 0 || y+r >= b.h) {
			clear(dst)
			continue
		}
		copy(dst, tmp.row(y))
		for yy := max(y-r, 0); yy <= min(y+r, b.h-1); yy++ {
			if yy == y {
				continue
			}
			for j, word := range tmp.row(yy) {
				if erode {
					dst[j] &= word
				} else {
					dst[j] |= word
				}
			}
		}
	}
}

// occupancy writes into out (gw×gh) the fraction of set pixels in each
// cell of roi, which must already be clipped to the bitmap. Cell edges
// are computed exactly as OccupancyGrid documents them.
func (b *bitmap) occupancy(roi Rect, out *Image) {
	gw, gh := out.W, out.H
	cellW := float64(roi.Width()) / float64(gw)
	cellH := float64(roi.Height()) / float64(gh)
	for gy := 0; gy < gh; gy++ {
		y0 := roi.Y0 + int(float64(gy)*cellH)
		y1 := roi.Y0 + int(float64(gy+1)*cellH)
		if y1 <= y0 {
			y1 = y0 + 1
		}
		y1 = min(y1, roi.Y1)
		for gx := 0; gx < gw; gx++ {
			x0 := roi.X0 + int(float64(gx)*cellW)
			x1 := roi.X0 + int(float64(gx+1)*cellW)
			if x1 <= x0 {
				x1 = x0 + 1
			}
			x1 = min(x1, roi.X1)
			v := 0.0
			if y0 < y1 && x0 < x1 {
				// Columns [x0, x1) are words j0..j1, masked at both ends.
				j0, j1 := x0/64, (x1-1)/64
				first := ^uint64(0) << uint(x0%64)
				last := ^uint64(0) >> uint(63-(x1-1)%64)
				if j0 == j1 {
					first &= last
				}
				on := 0
				for y := y0; y < y1; y++ {
					row := b.row(y)
					on += bits.OnesCount64(row[j0] & first)
					if j1 > j0 {
						for _, word := range row[j0+1 : j1] {
							on += bits.OnesCount64(word)
						}
						on += bits.OnesCount64(row[j1] & last)
					}
				}
				v = float64(on) / float64((y1-y0)*(x1-x0))
			}
			out.Pix[gy*gw+gx] = v
		}
	}
}
