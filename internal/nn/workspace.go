package nn

import (
	"fmt"

	"safecross/internal/tensor"
)

// Workspace is a pool of scratch tensors for the eval-mode forward
// path. Layers obtain their column matrices and activation buffers
// from it instead of allocating, so a long-lived caller (one serving
// worker, one benchmark loop) reaches a steady state where a forward
// pass allocates nothing regardless of how many batches it runs.
//
// Ownership rules:
//
//   - A Workspace belongs to exactly one goroutine at a time. It does
//     no locking; concurrent use is a data race. The serving plane
//     gives each worker its own (see internal/serve).
//   - Buffers returned by Get stay valid until Reset. Reset recycles
//     every outstanding buffer at once, so a forward pass Gets freely
//     and its driver Resets between batches.
//   - Buffers are pooled by element count, not shape: a scratch tensor
//     is handed back reshaped to whatever was asked for, so one batch
//     size's buffers are reused verbatim and a smaller final batch
//     still hits the pool when counts coincide.
//   - Contents are arbitrary after Get. Kernels that accumulate (the
//     conv kernel) zero their destination themselves; everything else
//     overwrites fully.
type Workspace struct {
	free  map[int][]*tensor.Tensor
	inUse []*tensor.Tensor

	// kern holds the argument block of each eval kernel, and job the
	// one currently running. A kernel that splits hands the pool
	// workers a func value, which must live on the heap: runJob is
	// bound once to this workspace and reads its arguments from kern,
	// so a forward pass that splits allocates nothing either.
	kern   evalKernels
	job    chunker
	runJob func(lo, hi int)

	// Gets counts Get calls; Misses counts the ones that had to
	// allocate. After warm-up Misses stops growing — tests and the
	// serving stats use the pair to prove the pooled path is hot.
	Gets   int
	Misses int
}

// NewWorkspace returns an empty workspace.
func NewWorkspace() *Workspace {
	return &Workspace{free: make(map[int][]*tensor.Tensor)}
}

// Get returns a scratch tensor of the given shape, recycling a pooled
// buffer of the same element count when one is free. Contents are
// arbitrary.
func (w *Workspace) Get(shape ...int) *tensor.Tensor {
	w.Gets++
	n := tensor.Numel(shape)
	var t *tensor.Tensor
	if list := w.free[n]; len(list) > 0 {
		t = list[len(list)-1]
		list[len(list)-1] = nil
		w.free[n] = list[:len(list)-1]
		t.Shape = append(t.Shape[:0], shape...)
	} else {
		w.Misses++
		t = tensor.New(shape...)
	}
	w.inUse = append(w.inUse, t)
	return t
}

// Reset returns every outstanding scratch tensor to the pool. All
// buffers previously returned by Get become invalid for the caller.
func (w *Workspace) Reset() {
	for i, t := range w.inUse {
		w.free[len(t.Data)] = append(w.free[len(t.Data)], t)
		w.inUse[i] = nil
	}
	w.inUse = w.inUse[:0]
	w.kern = evalKernels{} // drop references to the caller's inputs
}

// chunker is an eval kernel: chunk computes the outputs owned by work
// items [lo, hi), and no other item writes them.
type chunker interface {
	chunk(lo, hi int)
}

// evalKernels is the per-workspace storage of each eval kernel's
// arguments; see Workspace.kern.
type evalKernels struct {
	conv    convEval
	relu    reluEval
	linear  linearEval
	flatten flattenEval
	maxPool maxPoolEval
	gap     gapEval
	tpool   tpoolEval
}

// parallel runs k over items [0, n), each costing about work scalar
// operations, inline or split over the tensor kernel pool. k must point
// into w.kern.
func (w *Workspace) parallel(n, work int, k chunker) {
	if w.runJob == nil {
		w.runJob = w.chunkJob
	}
	w.job = k
	tensor.ParallelFor(n, work, w.runJob)
	w.job = nil
}

func (w *Workspace) chunkJob(lo, hi int) { w.job.chunk(lo, hi) }

// WorkspaceLayer is implemented by layers with an allocation-
// disciplined, eval-only forward pass: scratch and output buffers come
// from ws, no training caches are written, and train-time behaviour
// (dropout) is the identity.
//
// ForwardWS additionally understands channel-major batched inputs:
// where Forward takes [C,...] a WorkspaceLayer also accepts [C,N,...]
// with the batch axis second, processing N samples in one pass (one
// kernel call per layer). Rank disambiguates; a
// single-sample input behaves exactly like Forward minus the caches.
type WorkspaceLayer interface {
	ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error)
}

// ForwardWS runs the chain like Forward, routing each layer through
// its workspace path when it has one. Layers without a ForwardWS fall
// back to Forward — correct for single-sample inputs, but batched
// inputs require every layer in the chain to be a WorkspaceLayer.
func (s *Sequential) ForwardWS(x *tensor.Tensor, ws *Workspace) (*tensor.Tensor, error) {
	var err error
	for i, l := range s.layers {
		if wl, ok := l.(WorkspaceLayer); ok {
			x, err = wl.ForwardWS(x, ws)
		} else {
			x, err = l.Forward(x)
		}
		if err != nil {
			return nil, fmt.Errorf("layer %d: %w", i, err)
		}
	}
	return x, nil
}

// ConcatChannelsWS concatenates two channel-major batched tensors
// along the channel (outermost) axis into a workspace buffer. Inputs
// must have identical shapes past the channel dim; ranks 4 ([C,T,H,W])
// and 5 ([C,N,T,H,W]) are accepted. Because channels are outermost,
// the result is the per-sample channel concatenation regardless of
// batch size.
func ConcatChannelsWS(ws *Workspace, a, b *tensor.Tensor) (*tensor.Tensor, error) {
	if a.Rank() != b.Rank() || a.Rank() < 2 {
		return nil, fmt.Errorf("nn: concat needs equal-rank inputs, got %v and %v", a.Shape, b.Shape)
	}
	for i := 1; i < a.Rank(); i++ {
		if a.Shape[i] != b.Shape[i] {
			return nil, fmt.Errorf("nn: concat dims differ at axis %d: %v vs %v", i, a.Shape, b.Shape)
		}
	}
	var buf [8]int // shape scratch: Get copies it, so it stays on the stack
	shape := append(append(buf[:0], a.Shape[0]+b.Shape[0]), a.Shape[1:]...)
	out := ws.Get(shape...)
	copy(out.Data, a.Data)
	copy(out.Data[len(a.Data):], b.Data)
	return out, nil
}
