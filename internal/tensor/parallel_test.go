package tensor

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestParallelForCoversRangeExactlyOnce(t *testing.T) {
	for _, n := range []int{0, 1, 7, 100, 10000} {
		var hits sync.Map
		var total atomic.Int64
		ParallelFor(n, parMinWork, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				if _, dup := hits.LoadOrStore(i, true); dup {
					t.Errorf("n=%d: index %d visited twice", n, i)
				}
				total.Add(1)
			}
		})
		if got := total.Load(); got != int64(n) {
			t.Fatalf("n=%d: visited %d indices", n, got)
		}
	}
}

func TestParallelForSmallWorkRunsInline(t *testing.T) {
	// Below the work threshold the callback must run once over the
	// whole range — no goroutines, no chunking.
	calls := 0
	ParallelFor(100, 1, func(lo, hi int) {
		calls++
		if lo != 0 || hi != 100 {
			t.Fatalf("inline chunk [%d,%d), want [0,100)", lo, hi)
		}
	})
	if calls != 1 {
		t.Fatalf("callback ran %d times, want 1", calls)
	}
}

func TestMatMulIntoMatchesMatMulBitwise(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	// Large enough that the parallel path engages; results must still
	// be bit-identical because chunks own whole output rows.
	a := RandnTensor(rng, 1, 60, 50)
	b := RandnTensor(rng, 1, 50, 70)
	want, err := MatMul(a, b)
	if err != nil {
		t.Fatal(err)
	}
	got := New(60, 70)
	got.Apply(func(float64) float64 { return 99 }) // dirty, must be overwritten
	if err := MatMulInto(got, a, b); err != nil {
		t.Fatal(err)
	}
	for i := range want.Data {
		if got.Data[i] != want.Data[i] {
			t.Fatalf("element %d: into %v != alloc %v", i, got.Data[i], want.Data[i])
		}
	}
	if err := MatMulInto(New(60, 69), a, b); err == nil {
		t.Fatal("wrong out shape must error")
	}
}

// A channel-major batch of 2-D frames [C,M,H,W] unrolled by Im2Col3D
// with a 1-frame temporal kernel gives each sample's Im2Col columns
// side by side: row r, sample mi lives at [r, mi*OH*OW : (mi+1)*OH*OW].
func TestIm2ColBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const c, m, h, w = 2, 3, 6, 5
	const kh, kw, sh, sw, ph, pw = 3, 3, 2, 2, 1, 1
	// Channel-major batch [C,M,H,W] and its per-sample [C,H,W] views.
	batch := RandnTensor(rng, 1, c, m, h, w)
	samples := make([]*Tensor, m)
	for mi := range samples {
		s := New(c, h, w)
		for ci := 0; ci < c; ci++ {
			copy(s.Data[ci*h*w:(ci+1)*h*w], batch.Data[(ci*m+mi)*h*w:])
		}
		samples[mi] = s
	}
	oh := ConvOutSize(h, kh, sh, ph)
	ow := ConvOutSize(w, kw, sw, pw)
	dst, err := Im2Col3D(batch, 1, kh, kw, 1, sh, sw, 0, ph, pw)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Shape[0] != c*kh*kw || dst.Shape[1] != m*oh*ow {
		t.Fatalf("batch columns shape %v, want [%d %d]", dst.Shape, c*kh*kw, m*oh*ow)
	}
	for mi, s := range samples {
		cols, err := Im2Col(s, kh, kw, sh, sw, ph, pw)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < c*kh*kw; r++ {
			for j := 0; j < oh*ow; j++ {
				got := dst.Data[r*m*oh*ow+mi*oh*ow+j]
				want := cols.Data[r*oh*ow+j]
				if got != want {
					t.Fatalf("sample %d row %d col %d: batch %v != single %v", mi, r, j, got, want)
				}
			}
		}
	}
}

// A channel-major batch of clips [C,N,T,H,W] viewed as C*N channels
// unrolls each (channel, sample) pair independently: its row block in
// the batch columns equals that channel's rows in the sample's own
// Im2Col3D columns.
func TestIm2Col3DBatchMatchesPerSample(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const c, n, tn, h, w = 2, 3, 4, 5, 4
	const kt, kh, kw = 3, 3, 3
	const st, sh, sw = 1, 2, 2
	const pt, ph, pw = 1, 1, 1
	batch := RandnTensor(rng, 1, c, n, tn, h, w)
	vol := tn * h * w
	samples := make([]*Tensor, n)
	for ni := range samples {
		s := New(c, tn, h, w)
		for ci := 0; ci < c; ci++ {
			copy(s.Data[ci*vol:(ci+1)*vol], batch.Data[(ci*n+ni)*vol:])
		}
		samples[ni] = s
	}
	ot := ConvOutSize(tn, kt, st, pt)
	oh := ConvOutSize(h, kh, sh, ph)
	ow := ConvOutSize(w, kw, sw, pw)
	ovol := ot * oh * ow
	taps := kt * kh * kw
	dst, err := Im2Col3D(batch.MustReshape(c*n, tn, h, w), kt, kh, kw, st, sh, sw, pt, ph, pw)
	if err != nil {
		t.Fatal(err)
	}
	if dst.Shape[0] != c*n*taps || dst.Shape[1] != ovol {
		t.Fatalf("batch columns shape %v, want [%d %d]", dst.Shape, c*n*taps, ovol)
	}
	for ni, s := range samples {
		cols, err := Im2Col3D(s, kt, kh, kw, st, sh, sw, pt, ph, pw)
		if err != nil {
			t.Fatal(err)
		}
		for ci := 0; ci < c; ci++ {
			for k := 0; k < taps; k++ {
				for j := 0; j < ovol; j++ {
					got := dst.Data[((ci*n+ni)*taps+k)*ovol+j]
					want := cols.Data[(ci*taps+k)*ovol+j]
					if got != want {
						t.Fatalf("sample %d channel %d tap %d col %d: batch %v != single %v", ni, ci, k, j, got, want)
					}
				}
			}
		}
	}
}
