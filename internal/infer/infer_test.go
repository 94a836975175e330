package infer

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"safecross/internal/nn"
	"safecross/internal/telemetry"
	"safecross/internal/tensor"
)

// argmaxModel is a native batched model: logits echo the input's first
// two elements, so labels are fully determined by the test data.
type argmaxModel struct {
	train    bool
	batches  int
	outCount int // when >0, return this many outputs regardless of n
	fail     bool
}

func (m *argmaxModel) Name() string        { return "argmax" }
func (m *argmaxModel) SetTrain(train bool) { m.train = train }

func (m *argmaxModel) ForwardBatch(xs []*tensor.Tensor, ws *nn.Workspace) ([]*tensor.Tensor, error) {
	if m.fail {
		return nil, fmt.Errorf("boom")
	}
	m.batches++
	defer ws.Reset()
	n := len(xs)
	if m.outCount > 0 {
		n = m.outCount
	}
	out := make([]*tensor.Tensor, n)
	for i := range out {
		scratch := ws.Get(2)
		copy(scratch.Data, xs[i%len(xs)].Data[:2])
		l := tensor.New(2)
		copy(l.Data, scratch.Data)
		out[i] = l
	}
	return out, nil
}

func input(a, b float64) *tensor.Tensor {
	t := tensor.New(2, 2)
	t.Data[0], t.Data[1] = a, b
	return t
}

func TestPredictBatchDecodesInOrder(t *testing.T) {
	m := &argmaxModel{train: true}
	xs := []*tensor.Tensor{input(1, 0), input(0, 1), input(3, 2)}
	labels, err := PredictBatch(m, xs, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{0, 1, 0}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("labels = %v, want %v", labels, want)
		}
	}
	if m.train {
		t.Fatal("PredictBatch must switch the model to eval mode")
	}
	if m.batches != 1 {
		t.Fatalf("batches = %d, want 1", m.batches)
	}
}

func TestPredictBatchValidation(t *testing.T) {
	m := &argmaxModel{}
	if _, err := PredictBatch(m, nil, nil); err == nil {
		t.Fatal("expected empty-batch error")
	}
	if _, err := PredictBatch(m, []*tensor.Tensor{input(1, 0), nil}, nil); err == nil {
		t.Fatal("expected nil-input error")
	}
	scalar := tensor.New()
	for name, xs := range map[string][]*tensor.Tensor{
		"extent":         {input(1, 0), tensor.New(3)},
		"rank-0 after 0": {input(1, 0), scalar},
		"rank-0 first":   {scalar, input(1, 0)},
	} {
		if _, err := PredictBatch(m, xs, nil); err == nil || !strings.Contains(err.Error(), "input 1") {
			t.Fatalf("%s: err = %v, want a shape mismatch naming input 1", name, err)
		}
	}
	m.outCount = 5
	if _, err := PredictBatch(m, []*tensor.Tensor{input(1, 0)}, nil); err == nil {
		t.Fatal("expected output-count error")
	}
	m.outCount = 0
	m.fail = true
	if _, err := PredictBatch(m, []*tensor.Tensor{input(1, 0)}, nil); err == nil {
		t.Fatal("expected forward error")
	}
}

// A NaN or ±Inf input is refused by index before the model runs, so
// it can neither yield a verdict nor poison its batch-mates'.
func TestPredictBatchRejectsNonFinite(t *testing.T) {
	for i, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := &argmaxModel{}
		xs := []*tensor.Tensor{input(1, 0), input(0, 1), input(2, 3)}
		xs[i].Data[3] = bad
		_, err := PredictBatch(m, xs, nil)
		if want := fmt.Sprintf("input %d", i); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("%v in input %d: err = %v, want a non-finite error naming %q", bad, i, err, want)
		}
		if m.batches != 0 {
			t.Fatalf("%v in input %d: the model ran on a non-finite batch", bad, i)
		}
	}
}

func TestPoolReusesWorkspaces(t *testing.T) {
	p := NewPool()
	ws1 := p.Get()
	ws1.Get(16)
	p.Put(ws1)
	ws2 := p.Get()
	if ws2 != ws1 {
		t.Fatal("second Get must reuse the returned workspace")
	}
	ws2.Get(16)
	if ws2.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (the pooled buffer must be reused across Put/Get)", ws2.Misses)
	}
	ws3 := p.Get()
	if ws3 == ws2 {
		t.Fatal("a checked-out workspace must not be handed out twice")
	}
	p.Put(ws2)
	p.Put(ws3)
	p.Put(nil) // no-op
}

func TestPoolExportsWorkspaceCounters(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(WithMetrics(reg))

	ws := p.Get()
	ws.Get(8)
	ws.Get(8)
	p.Put(ws) // 2 gets, 2 misses → 0 hits, 2 misses

	ws = p.Get()
	ws.Get(8)
	ws.Reset()
	ws.Get(8)
	p.Put(ws) // 2 gets, 0 misses → 2 hits

	snap := reg.Snapshot()
	if hits := snap.Int("infer_workspace_hits_total"); hits != 2 {
		t.Fatalf("hits = %d, want 2", hits)
	}
	if misses := snap.Int("infer_workspace_misses_total"); misses != 2 {
		t.Fatalf("misses = %d, want 2", misses)
	}
	if size := snap.Int("infer_pool_workspaces"); size != 1 {
		t.Fatalf("pool workspaces = %d, want 1", size)
	}
}

func TestPoolAdoptsForeignWorkspaceWithoutHistory(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(WithMetrics(reg))
	ws := nn.NewWorkspace()
	ws.Get(4) // pre-pool history: must not be exported
	p.Put(ws)
	snap := reg.Snapshot()
	if n := snap.Int("infer_workspace_misses_total"); n != 0 {
		t.Fatalf("adopted workspace exported pre-pool history: misses = %d", n)
	}
	if p.Get() != ws {
		t.Fatal("adopted workspace must become available")
	}
}

// statelessModel carries no mutable state, so concurrent goroutines
// can share one instance while the race detector watches the pool.
type statelessModel struct{}

func (statelessModel) Name() string  { return "stateless" }
func (statelessModel) SetTrain(bool) {}

func (statelessModel) ForwardBatch(xs []*tensor.Tensor, ws *nn.Workspace) ([]*tensor.Tensor, error) {
	defer ws.Reset()
	out := make([]*tensor.Tensor, len(xs))
	for i, x := range xs {
		scratch := ws.Get(2)
		copy(scratch.Data, x.Data[:2])
		l := tensor.New(2)
		copy(l.Data, scratch.Data)
		out[i] = l
	}
	return out, nil
}

// TestPoolConcurrentCheckout exercises the pool the way serve workers
// do — concurrent Get/forward/Put cycles — under the race detector.
func TestPoolConcurrentCheckout(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := NewPool(WithMetrics(reg))
	m := statelessModel{}
	const workers, rounds = 8, 50
	var wg sync.WaitGroup
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				ws := p.Get()
				if _, err := PredictBatch(m, []*tensor.Tensor{input(1, 0)}, ws); err != nil {
					t.Error(err)
				}
				p.Put(ws)
			}
		}()
	}
	wg.Wait()
	if p.created > workers {
		t.Fatalf("pool built %d workspaces for %d workers", p.created, workers)
	}
	snap := reg.Snapshot()
	total := snap.Int("infer_workspace_hits_total") + snap.Int("infer_workspace_misses_total")
	if want := workers * rounds; total != want {
		t.Fatalf("hits+misses = %d, want %d (one Get per round)", total, want)
	}
}
