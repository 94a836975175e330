package video

import (
	"bytes"
	"fmt"

	"safecross/internal/infer"
	"safecross/internal/nn"
	"safecross/internal/tensor"
)

// checkClips is every stack's batched-forward input check: a
// non-empty batch of [1,T,H,W] clips at the model's clip length t.
// Uniformity across the batch is the engine's job (infer.ValidateBatch).
func checkClips(model string, xs []*tensor.Tensor, t int) error {
	if len(xs) == 0 {
		return fmt.Errorf("%s: empty batch", model)
	}
	for i, x := range xs {
		if x.Rank() != 4 || x.Shape[0] != 1 || x.Shape[1] != t {
			return fmt.Errorf("%s: clip %d shape %v, want [1,%d,H,W]", model, i, x.Shape, t)
		}
	}
	return nil
}

// stackClips copies n validated [1,T,H,W] clips into one channel-major
// [1,N,T,H,W] workspace tensor. With a single input channel the stack
// is a straight concatenation: clip i occupies the i-th T·H·W block.
func stackClips(ws *nn.Workspace, clips []*tensor.Tensor) *tensor.Tensor {
	n := len(clips)
	t, h, w := clips[0].Shape[1], clips[0].Shape[2], clips[0].Shape[3]
	x := ws.Get(1, n, t, h, w)
	vol := t * h * w
	for i, c := range clips {
		copy(x.Data[i*vol:(i+1)*vol], c.Data)
	}
	return x
}

// PredictBatch classifies a batch of clips with one eval-mode model,
// returning the predicted label per clip in input order. It is
// infer.PredictBatch: malformed clips are rejected by index before any
// layer runs, scratch memory comes from ws, and a long-lived caller
// passing the same workspace reaches steady-state zero allocation
// inside the model. A nil ws is replaced by a throwaway workspace.
func PredictBatch(m Classifier, clips []*tensor.Tensor, ws *nn.Workspace) ([]int, error) {
	return infer.PredictBatch(m, clips, ws)
}

// splitLogits copies an [N,Classes] batched logit matrix into n fresh
// rank-1 tensors, one per clip, detaching the results from the
// workspace that produced them.
func splitLogits(batched *tensor.Tensor, n int) []*tensor.Tensor {
	classes := batched.Shape[1]
	out := make([]*tensor.Tensor, n)
	for i := range out {
		l := tensor.New(classes)
		copy(l.Data, batched.Data[i*classes:(i+1)*classes])
		out[i] = l
	}
	return out
}

// CloneWeights builds a fresh classifier from the builder and copies
// the source model's parameters into it. The serving layer uses it to
// give every worker a private replica of each trained scene model, so
// concurrent workers never share mutable forward-pass state.
func CloneWeights(b Builder, src Classifier) (Classifier, error) {
	dst, err := b()
	if err != nil {
		return nil, fmt.Errorf("video: clone build: %w", err)
	}
	var buf bytes.Buffer
	if err := nn.SaveState(&buf, src.Params()); err != nil {
		return nil, fmt.Errorf("video: clone save: %w", err)
	}
	if err := nn.LoadState(&buf, dst.Params()); err != nil {
		return nil, fmt.Errorf("video: clone load: %w", err)
	}
	return dst, nil
}
