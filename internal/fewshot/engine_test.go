package fewshot

// Engine-contract coverage for MAML-adapted models: an adapted
// classifier's pooled batch eval must be bit-identical (==) to its
// allocating per-clip Forward, and EvalTask — the episode runner that
// rides the unified engine — must reproduce the adapt-then-Evaluate
// composition exactly.

import (
	"testing"

	"safecross/internal/nn"
	"safecross/internal/sim"
	"safecross/internal/tensor"
	"safecross/internal/video"
)

func TestAdaptedForwardBatchBitIdentical(t *testing.T) {
	m, err := New(smallBuilder(21))
	if err != nil {
		t.Fatal(err)
	}
	support := makeClips(t, 4, sim.Rain, 300)
	adapted, err := m.Adapt(support, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	query := makeClips(t, 5, sim.Rain, 400)

	adapted.SetTrain(false)
	xs := make([]*tensor.Tensor, len(query))
	refs := make([]*tensor.Tensor, len(query))
	for i, c := range query {
		xs[i] = c.Input
		ref, err := adapted.Forward(c.Input)
		if err != nil {
			t.Fatal(err)
		}
		refs[i] = ref
	}

	got, err := adapted.ForwardBatch(xs, nn.NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(refs) {
		t.Fatalf("ForwardBatch returned %d logit sets for %d clips", len(got), len(refs))
	}
	for i := range got {
		if len(got[i].Data) != len(refs[i].Data) {
			t.Fatalf("clip %d: shape %v vs %v", i, got[i].Shape, refs[i].Shape)
		}
		for j := range got[i].Data {
			if got[i].Data[j] != refs[i].Data[j] {
				t.Fatalf("clip %d logit %d: ForwardBatch %v != Forward %v",
					i, j, got[i].Data[j], refs[i].Data[j])
			}
		}
	}
}

func TestEvalTaskMatchesAdaptThenEvaluate(t *testing.T) {
	m, err := New(smallBuilder(22))
	if err != nil {
		t.Fatal(err)
	}
	task := Task{
		Support: makeClips(t, 4, sim.Rain, 500),
		Query:   makeClips(t, 6, sim.Rain, 600),
	}

	adapted, cm, err := m.EvalTask(task, 2, 0.05, nn.NewWorkspace())
	if err != nil {
		t.Fatal(err)
	}
	if adapted == nil {
		t.Fatal("EvalTask returned no adapted model")
	}
	if cm.Total() != len(task.Query) {
		t.Fatalf("confusion matrix covers %d clips, want %d", cm.Total(), len(task.Query))
	}

	// The inner loop is deterministic, so adapting again and running
	// the plain evaluator must land on the identical matrix.
	ref, err := m.Adapt(task.Support, 2, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	want, err := video.Evaluate(ref, task.Query, nil)
	if err != nil {
		t.Fatal(err)
	}
	for truth := 0; truth < 2; truth++ {
		for pred := 0; pred < 2; pred++ {
			if cm.Count(truth, pred) != want.Count(truth, pred) {
				t.Fatalf("cell (%d,%d): EvalTask %d != adapt+Evaluate %d",
					truth, pred, cm.Count(truth, pred), want.Count(truth, pred))
			}
		}
	}

	if _, _, err := m.EvalTask(Task{}, 2, 0.05, nil); err == nil {
		t.Fatal("expected error for an empty task")
	}
}
