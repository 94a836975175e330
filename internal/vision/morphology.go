package vision

// Morphological operators on binary images (pixels are 0 or 1) with a
// square structuring element. The paper's VP module applies opening
// (erosion then dilation) to remove camera noise while preserving
// vehicle blobs: erosion deletes structureless specks, dilation
// restores the weakened vehicle silhouettes.

// Erode returns the binary erosion of im with a (2r+1)×(2r+1) square
// structuring element: a pixel survives only if its whole
// neighbourhood is set. Pixels outside the image count as unset, so
// blobs touching the border erode there too. A pixel is read as set
// unless it is below 0.5, so NaN counts as set; a negative r acts as 0.
func Erode(im *Image, r int) *Image {
	return morphology(im, r, true, false)
}

// Dilate returns the binary dilation of im with a (2r+1)×(2r+1)
// square structuring element: a pixel is set if any neighbour is set.
// A pixel is read as set when it is at least 0.5, so NaN counts as
// unset; a negative r acts as 0.
func Dilate(im *Image, r int) *Image {
	return morphology(im, r, false, true)
}

// Open performs morphological opening: erosion followed by dilation
// with the same structuring element radius. Small specks (noise)
// vanish entirely; larger structures survive approximately unchanged.
func Open(im *Image, r int) *Image {
	return morphology(im, r, true, true)
}

// morphology runs erosion and/or dilation on the packed form of im;
// the float operators and the VP pipeline share these kernels.
func morphology(im *Image, r int, erode, dilate bool) *Image {
	var b, tmp bitmap
	b.pack(im, erode)
	if erode {
		b.morph(r, true, &tmp)
	}
	if dilate {
		b.morph(r, false, &tmp)
	}
	return b.unpack()
}

// Blob is a connected foreground region in a binary image.
type Blob struct {
	// Bounds is the tight bounding box of the region.
	Bounds Rect
	// Area is the number of set pixels in the region.
	Area int
	// CentroidX and CentroidY are the mean pixel coordinates.
	CentroidX, CentroidY float64
}

// ConnectedComponents labels 4-connected foreground regions of a
// binary image and returns one Blob per region, ordered by decreasing
// area. Regions smaller than minArea pixels are dropped.
func ConnectedComponents(im *Image, minArea int) []Blob {
	labels := make([]int32, len(im.Pix))
	var blobs []Blob
	// Iterative flood fill with an explicit stack: frames are small
	// (≈160×96) so allocation here is not a concern, and recursion
	// depth stays bounded.
	stack := make([][2]int, 0, 256)
	next := int32(0)
	for sy := 0; sy < im.H; sy++ {
		for sx := 0; sx < im.W; sx++ {
			if im.Pix[sy*im.W+sx] < 0.5 || labels[sy*im.W+sx] != 0 {
				continue
			}
			next++
			stack = append(stack[:0], [2]int{sx, sy})
			labels[sy*im.W+sx] = next
			b := Blob{Bounds: Rect{X0: sx, Y0: sy, X1: sx + 1, Y1: sy + 1}}
			sumX, sumY := 0, 0
			for len(stack) > 0 {
				p := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				x, y := p[0], p[1]
				b.Area++
				sumX += x
				sumY += y
				if x < b.Bounds.X0 {
					b.Bounds.X0 = x
				}
				if x+1 > b.Bounds.X1 {
					b.Bounds.X1 = x + 1
				}
				if y < b.Bounds.Y0 {
					b.Bounds.Y0 = y
				}
				if y+1 > b.Bounds.Y1 {
					b.Bounds.Y1 = y + 1
				}
				for _, d := range [4][2]int{{1, 0}, {-1, 0}, {0, 1}, {0, -1}} {
					nx, ny := x+d[0], y+d[1]
					if nx < 0 || nx >= im.W || ny < 0 || ny >= im.H {
						continue
					}
					idx := ny*im.W + nx
					if im.Pix[idx] >= 0.5 && labels[idx] == 0 {
						labels[idx] = next
						stack = append(stack, [2]int{nx, ny})
					}
				}
			}
			if b.Area >= minArea {
				b.CentroidX = float64(sumX) / float64(b.Area)
				b.CentroidY = float64(sumY) / float64(b.Area)
				blobs = append(blobs, b)
			}
		}
	}
	// Order by decreasing area (insertion sort: blob counts are tiny).
	for i := 1; i < len(blobs); i++ {
		for j := i; j > 0 && blobs[j].Area > blobs[j-1].Area; j-- {
			blobs[j], blobs[j-1] = blobs[j-1], blobs[j]
		}
	}
	return blobs
}
