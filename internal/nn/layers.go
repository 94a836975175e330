package nn

import (
	"fmt"
	"math/rand"

	"safecross/internal/tensor"
)

// Linear is a fully connected layer computing y = W·x + b on rank-1
// inputs.
type Linear struct {
	// W has shape [Out, In]; B has shape [Out].
	W, B *Param

	in, out int
	cacheX  *tensor.Tensor
}

var _ Layer = (*Linear)(nil)

// NewLinear creates a fully connected layer with He-initialised
// weights drawn from rng. The name prefixes the parameter names.
func NewLinear(name string, in, out int, rng *rand.Rand) *Linear {
	w := tensor.RandnTensor(rng, tensor.KaimingStd(in), out, in)
	return &Linear{
		W:   NewParam(name+".weight", w),
		B:   NewParam(name+".bias", tensor.New(out)),
		in:  in,
		out: out,
	}
}

// Forward computes W·x + b for a rank-1 input of length In.
func (l *Linear) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if x.Len() != l.in {
		return nil, fmt.Errorf("linear %s: input length %d, want %d", l.W.Name, x.Len(), l.in)
	}
	l.cacheX = x
	y := tensor.New(l.out)
	for o := 0; o < l.out; o++ {
		row := l.W.Value.Data[o*l.in : (o+1)*l.in]
		s := l.B.Value.Data[o]
		for i, xv := range x.Data {
			s += row[i] * xv
		}
		y.Data[o] = s
	}
	return y, nil
}

// Backward accumulates dW = dout⊗x and dB = dout, and returns
// dx = Wᵀ·dout.
func (l *Linear) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if dout.Len() != l.out {
		return nil, fmt.Errorf("linear %s: grad length %d, want %d", l.W.Name, dout.Len(), l.out)
	}
	if l.cacheX == nil {
		return nil, fmt.Errorf("linear %s: Backward before Forward", l.W.Name)
	}
	dx := tensor.New(l.in)
	for o := 0; o < l.out; o++ {
		g := dout.Data[o]
		l.B.Grad.Data[o] += g
		wrow := l.W.Value.Data[o*l.in : (o+1)*l.in]
		grow := l.W.Grad.Data[o*l.in : (o+1)*l.in]
		for i, xv := range l.cacheX.Data {
			grow[i] += g * xv
			dx.Data[i] += g * wrow[i]
		}
	}
	return dx, nil
}

// ForwardWS is the eval-mode forward: the output comes from ws and no
// input cache is retained. A rank-2 [N,In] input is treated as a batch
// of N feature rows, yielding [N,Out]; each row seeds its accumulator
// with the bias and sums features in ascending order, exactly like
// Forward, so logits are bit-identical to the per-sample path.
func (l *Linear) ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error) {
	m := 1
	switch {
	case x.Rank() == 2 && x.Shape[1] == l.in:
		m = x.Shape[0]
	case x.Rank() != 2 && x.Len() == l.in:
	default:
		return nil, fmt.Errorf("linear %s: input shape %v, want [(N,)%d]", l.W.Name, x.Shape, l.in)
	}
	var out *tensor.Tensor
	if x.Rank() == 2 {
		out = ws.Get(m, l.out)
	} else {
		out = ws.Get(l.out)
	}
	ws.kern.linear = linearEval{out: out.Data, x: x.Data, w: l.W.Value.Data, b: l.B.Value.Data, in: l.in, outDim: l.out}
	ws.parallel(m, 2*l.in*l.out, &ws.kern.linear)
	return out, nil
}

// linearEval is the Linear eval kernel; an item is one feature row.
type linearEval struct {
	out, x, w, b []float64
	in, outDim   int
}

func (k *linearEval) chunk(lo, hi int) {
	in, outDim := k.in, k.outDim
	for mi := lo; mi < hi; mi++ {
		xrow := k.x[mi*in : (mi+1)*in]
		orow := k.out[mi*outDim : (mi+1)*outDim]
		for o := 0; o < outDim; o++ {
			wrow := k.w[o*in : (o+1)*in]
			s := k.b[o]
			for i, xv := range xrow {
				s += wrow[i] * xv
			}
			orow[o] = s
		}
	}
}

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// ReLU is the rectified linear activation, applied element-wise.
type ReLU struct {
	mask []bool
}

var _ Layer = (*ReLU)(nil)

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward zeroes negative elements and remembers which survived.
func (r *ReLU) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	out := tensor.New(x.Shape...)
	if cap(r.mask) < len(x.Data) {
		r.mask = make([]bool, len(x.Data))
	}
	r.mask = r.mask[:len(x.Data)]
	for i, v := range x.Data {
		pass := v > 0
		r.mask[i] = pass
		if pass {
			out.Data[i] = v
		}
	}
	return out, nil
}

// Backward passes gradients only through positions that were positive.
func (r *ReLU) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if len(dout.Data) != len(r.mask) {
		return nil, fmt.Errorf("relu: grad length %d, want %d", len(dout.Data), len(r.mask))
	}
	dx := tensor.New(dout.Shape...)
	for i, pass := range r.mask {
		if pass {
			dx.Data[i] = dout.Data[i]
		}
	}
	return dx, nil
}

// ForwardWS is the eval-mode forward: the output comes from ws and no
// backward mask is written. Shape-agnostic, so batched channel-major
// inputs pass through unchanged in layout.
func (r *ReLU) ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error) {
	out := ws.Get(x.Shape...)
	ws.kern.relu = reluEval{out: out.Data, x: x.Data}
	ws.parallel(len(x.Data), 1, &ws.kern.relu)
	return out, nil
}

// reluEval is the ReLU eval kernel; an item is one element.
type reluEval struct{ out, x []float64 }

func (k *reluEval) chunk(lo, hi int) {
	for i := lo; i < hi; i++ {
		if v := k.x[i]; v > 0 {
			k.out[i] = v
		} else {
			k.out[i] = 0
		}
	}
}

// Params returns nil; ReLU has no parameters.
func (r *ReLU) Params() []*Param { return nil }

// LeakyReLU is ReLU with a small negative-side slope, used by the
// yolite detector stem where dead units hurt its tiny capacity.
type LeakyReLU struct {
	// Alpha is the negative-side slope (e.g. 0.1).
	Alpha float64

	cacheX *tensor.Tensor
}

var _ Layer = (*LeakyReLU)(nil)

// NewLeakyReLU returns a LeakyReLU with the given negative slope.
func NewLeakyReLU(alpha float64) *LeakyReLU { return &LeakyReLU{Alpha: alpha} }

// Forward applies max(x, αx).
func (r *LeakyReLU) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	r.cacheX = x
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		if v > 0 {
			out.Data[i] = v
		} else {
			out.Data[i] = r.Alpha * v
		}
	}
	return out, nil
}

// Backward scales gradients by 1 or α depending on the cached sign.
func (r *LeakyReLU) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if r.cacheX == nil || len(dout.Data) != len(r.cacheX.Data) {
		return nil, fmt.Errorf("leakyrelu: grad/input mismatch")
	}
	dx := tensor.New(dout.Shape...)
	for i, v := range r.cacheX.Data {
		if v > 0 {
			dx.Data[i] = dout.Data[i]
		} else {
			dx.Data[i] = r.Alpha * dout.Data[i]
		}
	}
	return dx, nil
}

// Params returns nil; LeakyReLU has no parameters.
func (r *LeakyReLU) Params() []*Param { return nil }

// Flatten reshapes any input to a rank-1 vector and restores the shape
// on the way back.
type Flatten struct {
	cacheShape []int
}

var _ Layer = (*Flatten)(nil)

// NewFlatten returns a Flatten layer.
func NewFlatten() *Flatten { return &Flatten{} }

// Forward flattens x to rank 1.
func (f *Flatten) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	f.cacheShape = append(f.cacheShape[:0], x.Shape...)
	return x.Reshape(x.Len())
}

// Backward restores the original input shape.
func (f *Flatten) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	return dout.Reshape(f.cacheShape...)
}

// ForwardWS is the eval-mode forward. A rank-4 channel-major batched
// input [C,M,H,W] gathers into an [M, C*H*W] feature matrix whose
// per-sample feature order matches the single-sample flatten (channel
// index outermost). Any other rank is a single sample and flattens to
// rank 1, like Forward.
func (f *Flatten) ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error) {
	if x.Rank() != 4 {
		out := ws.Get(x.Len())
		copy(out.Data, x.Data)
		return out, nil
	}
	c, m := x.Shape[0], x.Shape[1]
	vol := x.Shape[2] * x.Shape[3]
	feat := c * vol
	out := ws.Get(m, feat)
	ws.kern.flatten = flattenEval{out: out.Data, x: x.Data, c: c, m: m, vol: vol}
	ws.parallel(m, feat, &ws.kern.flatten)
	return out, nil
}

// flattenEval de-interleaves samples from channel-major to
// sample-major, the Flatten eval kernel; an item is one sample.
type flattenEval struct {
	out, x    []float64
	c, m, vol int
}

func (k *flattenEval) chunk(lo, hi int) {
	feat := k.c * k.vol
	for mi := lo; mi < hi; mi++ {
		dst := k.out[mi*feat:]
		for ci := 0; ci < k.c; ci++ {
			copy(dst[ci*k.vol:(ci+1)*k.vol], k.x[(ci*k.m+mi)*k.vol:])
		}
	}
}

// Params returns nil; Flatten has no parameters.
func (f *Flatten) Params() []*Param { return nil }

// Dropout randomly zeroes a fraction of activations during training
// and is the identity during evaluation. Scaling uses the inverted
// dropout convention so evaluation needs no rescale.
type Dropout struct {
	// Rate is the drop probability in [0, 1).
	Rate float64

	rng   *rand.Rand
	train bool
	mask  []float64
}

var (
	_ Layer      = (*Dropout)(nil)
	_ TrainAware = (*Dropout)(nil)
)

// NewDropout creates a dropout layer with the given drop rate, using
// rng as its randomness source. It starts in training mode.
func NewDropout(rate float64, rng *rand.Rand) *Dropout {
	return &Dropout{Rate: rate, rng: rng, train: true}
}

// SetTrain toggles between training (random drops) and evaluation
// (identity) behaviour.
func (d *Dropout) SetTrain(train bool) { d.train = train }

// Forward drops activations with probability Rate during training.
func (d *Dropout) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	if !d.train || d.Rate <= 0 {
		d.mask = d.mask[:0]
		return x, nil
	}
	keep := 1 - d.Rate
	if cap(d.mask) < len(x.Data) {
		d.mask = make([]float64, len(x.Data))
	}
	d.mask = d.mask[:len(x.Data)]
	out := tensor.New(x.Shape...)
	for i, v := range x.Data {
		if d.rng.Float64() < keep {
			d.mask[i] = 1 / keep
			out.Data[i] = v / keep
		} else {
			d.mask[i] = 0
		}
	}
	return out, nil
}

// Backward applies the cached mask to the gradient.
func (d *Dropout) Backward(dout *tensor.Tensor) (*tensor.Tensor, error) {
	if len(d.mask) == 0 {
		return dout, nil
	}
	if len(dout.Data) != len(d.mask) {
		return nil, fmt.Errorf("dropout: grad length %d, want %d", len(dout.Data), len(d.mask))
	}
	dx := tensor.New(dout.Shape...)
	for i, m := range d.mask {
		dx.Data[i] = dout.Data[i] * m
	}
	return dx, nil
}

// ForwardWS is the eval-mode forward: dropout is the identity at
// inference, regardless of the training flag.
func (d *Dropout) ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error) {
	return x, nil
}

// Params returns nil; Dropout has no parameters.
func (d *Dropout) Params() []*Param { return nil }
