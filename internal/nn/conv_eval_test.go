package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"safecross/internal/tensor"
)

// convCase is one convolution geometry for the eval-kernel oracle:
// a Conv3D config (a Conv2D when twoD, with KT = ST = 1, PT = 0) and the
// per-sample input extent.
type convCase struct {
	name    string
	cfg     Conv3DConfig
	twoD    bool
	t, h, w int
	batches []int
}

// treeConvCases lists every convolution layer geometry of the models
// in this tree at the input sizes they see: SlowFast and C3D at the
// 16-frame 10×16 clip, TSN on one 10×16 grid, yolite on a full
// 128×80 camera frame.
func treeConvCases() []convCase {
	all := []int{1, 3, 8}
	c3 := func(name string, in, out, kt, kh, kw, st, sh, sw, pt, ph, pw, t, h, w int) convCase {
		return convCase{name: name, cfg: Conv3DConfig{InC: in, OutC: out, KT: kt, KH: kh, KW: kw,
			ST: st, SH: sh, SW: sw, PT: pt, PH: ph, PW: pw}, t: t, h: h, w: w, batches: all}
	}
	c2 := func(name string, in, out, k, s, p, h, w int, batches []int) convCase {
		return convCase{name: name, twoD: true, cfg: Conv3DConfig{InC: in, OutC: out, KT: 1, KH: k, KW: k,
			ST: 1, SH: s, SW: s, PH: p, PW: p}, t: 1, h: h, w: w, batches: batches}
	}
	return []convCase{
		c3("slowfast/fast.conv1", 1, 3, 3, 3, 3, 1, 2, 2, 1, 1, 1, 16, 10, 16),
		c3("slowfast/fast.conv2", 3, 6, 3, 3, 3, 2, 1, 1, 1, 1, 1, 16, 5, 8),
		c3("slowfast/slow.conv1", 1, 10, 1, 3, 3, 1, 2, 2, 0, 1, 1, 2, 10, 16),
		c3("slowfast/lateral.conv", 6, 6, 3, 1, 1, 4, 1, 1, 1, 0, 0, 8, 5, 8),
		c3("slowfast/fuse.conv1", 16, 16, 3, 3, 3, 1, 2, 2, 1, 1, 1, 2, 5, 8),
		c3("c3d/conv1", 1, 6, 3, 3, 3, 1, 2, 2, 1, 1, 1, 16, 10, 16),
		c3("c3d/conv2", 6, 12, 3, 3, 3, 2, 2, 2, 1, 1, 1, 8, 5, 8),
		c2("tsn/conv1", 1, 8, 3, 2, 1, 10, 16, all),
		c2("tsn/conv2", 8, 16, 3, 2, 1, 5, 8, all),
		// A full frame is large enough to split over the kernel pool;
		// the batch-3 runs use a smaller frame to keep the test quick.
		c2("yolite/stem", 1, 32, 3, 1, 1, 80, 128, []int{1}),
		c2("yolite/conv1", 32, 56, 3, 2, 1, 80, 128, []int{1}),
		c2("yolite/conv2", 56, 56, 3, 2, 1, 40, 64, []int{1}),
		c2("yolite/head", 56, 1, 3, 1, 1, 20, 32, []int{1}),
		c2("yolite/conv1-small", 32, 56, 3, 2, 1, 12, 20, []int{3}),
	}
}

// sweepConvCases covers strides 1, 2 and 4 (temporal), pads 0 and 1,
// kernels 1–3 and in/out channel counts 1–17, so every remainder of a
// 4-row output block is hit, each at batch sizes 1, 3 and 8.
func sweepConvCases(rng *rand.Rand) []convCase {
	var cases []convCase
	for i := 0; i < 34; i++ {
		outC := 1 + i%17
		inC := 17 - (i*5)%17
		cfg := Conv3DConfig{
			InC: inC, OutC: outC,
			KT: 1 + i%3, KH: 1 + (i/3)%3, KW: 1 + (i+1)%3,
			ST: []int{1, 2, 4}[i%3], SH: 1 + i%2, SW: 1 + (i/2)%2,
			PT: i % 2, PH: (i / 2) % 2, PW: (i + 1) % 2,
		}
		c := convCase{name: fmt.Sprintf("sweep3d-%d", i), cfg: cfg, t: 3 + rng.Intn(6), h: 3 + rng.Intn(5), w: 3 + rng.Intn(6), batches: []int{1, 3, 8}}
		if i%4 == 3 {
			c.name = fmt.Sprintf("sweep2d-%d", i)
			c.twoD = true
			c.cfg.KT, c.cfg.ST, c.cfg.PT, c.t = 1, 1, 0, 1
		}
		cases = append(cases, c)
	}
	return cases
}

// newConvLayer builds the layer for c (weights and biases random, a few
// exact zeros among the weights, the way pruned or dead units look).
func newConvLayer(c convCase, rng *rand.Rand) (Layer, WorkspaceLayer) {
	var l interface {
		Layer
		WorkspaceLayer
	}
	if c.twoD {
		l = NewConv2D("t", Conv2DConfig{InC: c.cfg.InC, OutC: c.cfg.OutC, KH: c.cfg.KH, KW: c.cfg.KW,
			SH: c.cfg.SH, SW: c.cfg.SW, PH: c.cfg.PH, PW: c.cfg.PW}, rng)
	} else {
		l = NewConv3D("t", c.cfg, rng)
	}
	ps := l.Params()
	for i := range ps[0].Value.Data {
		if i%7 == 3 {
			ps[0].Value.Data[i] = 0
		}
	}
	for i := range ps[1].Value.Data {
		ps[1].Value.Data[i] = rng.NormFloat64()
	}
	return l, l
}

// reluLike draws a channel-major input whose values include exact
// zeros, as every conv input after the first layer does (ReLU output).
func reluLike(rng *rand.Rand, shape ...int) *tensor.Tensor {
	x := tensor.RandnTensor(rng, 1, shape...)
	for i, v := range x.Data {
		if v < -0.5 {
			x.Data[i] = 0
		}
	}
	return x
}

// TestConvEvalMatchesIm2ColMatMul is the oracle test of the direct eval
// convolution: Conv2D/Conv3D ForwardWS on a channel-major batch must
// equal, bit for bit, each sample's train-mode Forward — im2col, one
// MatMul with the weights, then the bias.
func TestConvEvalMatchesIm2ColMatMul(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	cases := append(treeConvCases(), sweepConvCases(rng)...)
	for _, c := range cases {
		for _, n := range c.batches {
			t.Run(fmt.Sprintf("%s/n=%d", c.name, n), func(t *testing.T) {
				ref, l := newConvLayer(c, rng)
				sample := []int{c.cfg.InC, c.t, c.h, c.w}
				batch := []int{c.cfg.InC, n, c.t, c.h, c.w}
				if c.twoD {
					sample = []int{c.cfg.InC, c.h, c.w}
					batch = []int{c.cfg.InC, n, c.h, c.w}
				}
				x := reluLike(rng, batch...)
				vol := tensor.Numel(sample[1:])
				// The second forward reuses the first one's output buffer,
				// poisoned with NaN: a position the kernel fails to write
				// shows.
				ws := NewWorkspace()
				got, err := l.ForwardWS(x, ws)
				if err != nil {
					t.Fatal(err)
				}
				got.Apply(func(float64) float64 { return math.NaN() })
				ws.Reset()
				if got, err = l.ForwardWS(x, ws); err != nil {
					t.Fatal(err)
				}
				for ni := 0; ni < n; ni++ {
					xs := tensor.New(sample...)
					for ci := 0; ci < c.cfg.InC; ci++ {
						copy(xs.Data[ci*vol:(ci+1)*vol], x.Data[(ci*n+ni)*vol:])
					}
					want, err := ref.Forward(xs)
					if err != nil {
						t.Fatal(err)
					}
					ovol := want.Len() / c.cfg.OutC
					for o := 0; o < c.cfg.OutC; o++ {
						for j := 0; j < ovol; j++ {
							g, w := got.Data[(o*n+ni)*ovol+j], want.Data[o*ovol+j]
							if math.Float64bits(g) != math.Float64bits(w) {
								t.Fatalf("sample %d channel %d pos %d: ForwardWS %v != im2col+matmul %v", ni, o, j, g, w)
							}
						}
					}
				}
			})
		}
	}
}

// TestConvEvalAllocatesNothing asserts a warm conv ForwardWS allocates
// nothing, both inline (a single clip) and split over the kernel pool
// (a batch of 8 clips, a full yolite frame).
func TestConvEvalAllocatesNothing(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tree := treeConvCases()
	yolite := tree[10] // yolite/conv1 on a quarter frame: still splits
	yolite.h, yolite.w = 20, 32
	for _, c := range []struct {
		c convCase
		n int
	}{
		{tree[4], 1}, // slowfast/fuse.conv1, inline
		{tree[1], 8}, // slowfast/fast.conv2, split
		{yolite, 1},
	} {
		_, l := newConvLayer(c.c, rng)
		x := reluLike(rng, c.c.cfg.InC, c.n, c.c.t, c.c.h, c.c.w)
		if c.c.twoD {
			x = reluLike(rng, c.c.cfg.InC, c.n, c.c.h, c.c.w)
		}
		ws := NewWorkspace()
		run := func() {
			if _, err := l.ForwardWS(x, ws); err != nil {
				t.Fatal(err)
			}
			ws.Reset()
		}
		run()
		if allocs := testing.AllocsPerRun(5, run); allocs > 0 {
			t.Errorf("%s n=%d: warm ForwardWS allocates %.0f/run, want 0", c.c.name, c.n, allocs)
		}
	}
}

// BenchmarkConv3DEval times the eval convolution of each SlowFast layer
// on one 16-frame clip, the per-frame classify path.
func BenchmarkConv3DEval(b *testing.B) {
	for _, c := range treeConvCases()[:5] {
		b.Run(c.name[len("slowfast/"):], func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			_, l := newConvLayer(c, rng)
			x := reluLike(rng, c.cfg.InC, c.t, c.h, c.w)
			ws := NewWorkspace()
			if _, err := l.ForwardWS(x, ws); err != nil {
				b.Fatal(err) // warm the workspace outside the timed loop
			}
			ws.Reset()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := l.ForwardWS(x, ws); err != nil {
					b.Fatal(err)
				}
				ws.Reset()
			}
		})
	}
}
