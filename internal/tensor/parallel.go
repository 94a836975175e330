package tensor

import (
	"runtime"
	"sync"
)

// The numeric kernels fan work out over a small, bounded pool of
// resident goroutines rather than spawning per call: inference batches
// arrive continuously on the serving hot path. The completion group a
// split waits on is recycled, so ParallelFor itself allocates nothing;
// a caller that passes a func value it already holds (rather than a
// fresh capturing closure) splits without allocating at all.
//
// Parallelism never changes results: every chunk computes a disjoint,
// self-contained slice of the output (whole matmul rows, whole im2col
// rows), so the floating-point accumulation order per element is
// identical to the sequential kernel.

// kernelProcs bounds the pool. Eight workers saturate the matmul sizes
// this stack produces; beyond that, memory bandwidth dominates.
var kernelProcs = defaultKernelProcs()

func defaultKernelProcs() int {
	p := runtime.GOMAXPROCS(0)
	if p > 8 {
		p = 8
	}
	if p < 1 {
		p = 1
	}
	return p
}

// parMinWork is the minimum number of scalar operations a chunk must
// carry before splitting is worth a handoff to the pool.
const parMinWork = 1 << 14

// chunkTask is one [lo,hi) slice of a ParallelFor.
type chunkTask struct {
	fn     func(lo, hi int)
	lo, hi int
	wg     *sync.WaitGroup
}

var (
	kernelOnce  sync.Once
	kernelTasks chan chunkTask
	// taskGroups recycles the WaitGroup a split waits on. A WaitGroup
	// handed to pool workers escapes to the heap, so a fresh one per
	// call would cost an allocation per split; a channel free list,
	// unlike a sync.Pool, is not emptied by the garbage collector. One
	// group is out per goroutine inside a split; 64 spare ones cover
	// every serving worker a host runs, and any beyond are dropped.
	taskGroups = make(chan *sync.WaitGroup, 64)
)

// startKernelPool lazily starts the resident workers. The submitting
// goroutine always executes one chunk itself, so kernelProcs-1 workers
// give kernelProcs-way parallelism.
func startKernelPool() {
	kernelTasks = make(chan chunkTask, 4*kernelProcs)
	for i := 0; i < kernelProcs-1; i++ {
		go func() {
			for t := range kernelTasks {
				t.fn(t.lo, t.hi)
				t.wg.Done()
			}
		}()
	}
}

// parallelChunks reports how many chunks ParallelFor splits [0, n)
// into for the given per-item work: 0 for an empty range, 1 when the
// job runs inline, kernelProcs at most.
func parallelChunks(n, workPerItem int) int {
	if n <= 0 {
		return 0
	}
	if workPerItem < 1 {
		workPerItem = 1
	}
	chunks := kernelProcs
	if c := n * workPerItem / parMinWork; c < chunks {
		chunks = c
	}
	if chunks > n {
		chunks = n
	}
	if chunks < 1 {
		chunks = 1
	}
	return chunks
}

// ParallelFor runs fn over [0, n) split into at most kernelProcs
// contiguous chunks. workPerItem is the approximate number of scalar
// operations one index costs; small jobs run inline. fn must write
// only state owned by its own [lo, hi) range — chunks run concurrently
// on the shared kernel pool. If the pool is saturated (e.g. several
// serving workers inside kernels at once) chunks degrade to inline
// execution instead of queueing, so ParallelFor never deadlocks and
// never blocks behind another caller's work.
//
// ParallelFor allocates nothing itself, but fn escapes to the heap: a
// caller on an allocation-free path passes a func value it already
// holds (see nn.Workspace) rather than a fresh capturing closure.
func ParallelFor(n, workPerItem int, fn func(lo, hi int)) {
	chunks := parallelChunks(n, workPerItem)
	if chunks == 0 {
		return
	}
	if chunks == 1 {
		fn(0, n)
		return
	}
	kernelOnce.Do(startKernelPool)
	var wg *sync.WaitGroup
	select {
	case wg = <-taskGroups:
	default:
		wg = new(sync.WaitGroup)
	}
	size := (n + chunks - 1) / chunks
	for lo := size; lo < n; lo += size {
		hi := lo + size
		if hi > n {
			hi = n
		}
		wg.Add(1)
		select {
		case kernelTasks <- chunkTask{fn: fn, lo: lo, hi: hi, wg: wg}:
		default:
			fn(lo, hi)
			wg.Done()
		}
	}
	fn(0, size)
	wg.Wait()
	select {
	case taskGroups <- wg:
	default:
	}
}
