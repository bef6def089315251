package tensor

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The worker pool runs the thousands of small Parallel regions a training
// round issues without paying goroutine spawn/join cost per region. It is
// started lazily on the first dispatched region, sized to GOMAXPROCS at
// that moment, and lives for the life of the process.
//
// Determinism contract: Parallel(n, fn) calls fn on ranges that partition
// [0,n), each exactly once. WHERE the ranges are cut is not part of the
// contract — it depends on GOMAXPROCS and on how busy the machine is at
// the call (see the inline rule below) — so fn may only write state owned
// by its [lo,hi) range, and no floating-point sum may be cut at a range
// boundary: wherever partial sums are merged, the partition is a constant
// of the data (DESIGN §8.2). Under those two rules results are bitwise
// independent of the cuts and of which goroutine runs a range.
//
// Inline rule: poolBusy counts the goroutines currently inside region
// bodies. A region started while that count is at least GOMAXPROCS has no
// idle core to help it, so it runs on its caller as fn(0,n): no job, no
// channel send, no wake-up, no allocation. That is the state of a
// federated round — fl.ParallelClients keeps every core inside a client's
// training step, and the ~90 regions a step nests are then plain calls.
// When a core is idle (a round's tail, one model training alone,
// evaluation) regions are dispatched to the pool.
//
// Offers: a dispatched region publishes its job in poolOpen for as long as
// it runs and takes it back when it returns, and sends one kick per helper
// it could use; a worker answers a kick by running whatever is open at
// that moment. So a helper that wakes late joins the region its caller is
// in now, nothing finished is ever waiting to be looked at, and an offer
// cannot be lost to what earlier regions left behind — a buffered queue of
// jobs fills with finished ones whenever a run of short regions passes
// faster than a worker's thread wakes, and the offer dropped on that full
// queue was, for fl.ParallelClients, a whole round on one core.
//
// Deadlock freedom: the caller always participates in its own job, so a
// job completes even when every pool worker is busy (including the nested
// case where fn itself calls Parallel).

// poolJob is one Parallel invocation: a chunked index range claimed via an
// atomic cursor by the caller and any workers that find the job open.
type poolJob struct {
	fn    func(lo, hi int)
	n     int
	chunk int
	next  atomic.Int64
	wg    sync.WaitGroup
}

// run claims and executes chunks until none remain. Safe to call from any
// number of goroutines; each chunk is executed exactly once. A goroutine
// that finds nothing left to claim was never inside the region body and is
// not counted busy.
func (j *poolJob) run() {
	lo := (int(j.next.Add(1)) - 1) * j.chunk
	if lo >= j.n {
		return
	}
	poolBusy.Add(1)
	defer poolBusy.Add(-1)
	for ; lo < j.n; lo = (int(j.next.Add(1)) - 1) * j.chunk {
		j.fn(lo, min(lo+j.chunk, j.n))
		j.wg.Done()
	}
}

var (
	poolOnce  sync.Once
	poolOpen  []atomic.Pointer[poolJob] // regions running now that offered chunks
	poolKicks chan struct{}             // one per helper wanted; a worker scans poolOpen per kick

	// Pool instrumentation: bumped on the dispatch path with plain
	// atomics (no registry lookups) and exported by BindPoolMetrics as
	// func gauges evaluated only at snapshot time — the hot path never
	// pays for an unread metric.
	poolWorkers  atomic.Int64 // workers started (0 until first pooled job)
	poolJobCount atomic.Int64 // Parallel calls dispatched to the pool
	poolInline   atomic.Int64 // Parallel calls run entirely on their caller
	poolChunks   atomic.Int64 // chunks executed across all jobs
	poolBusy     atomic.Int64 // goroutines inside region bodies right now
)

// ensurePool starts the persistent workers. Every open slot belongs to a
// region whose caller is running it, so finding none free means the
// machine is busy and the region keeps its chunks; a full kick buffer
// means every worker already has a scan ahead of it that will see what
// was just opened.
func ensurePool() {
	poolOnce.Do(func() {
		nw := max(runtime.GOMAXPROCS(0), 1)
		poolOpen = make([]atomic.Pointer[poolJob], 4*nw)
		poolKicks = make(chan struct{}, nw)
		poolWorkers.Store(int64(nw))
		for i := 0; i < nw; i++ {
			go func() {
				for range poolKicks {
					for i := range poolOpen {
						if j := poolOpen[i].Load(); j != nil {
							j.run()
						}
					}
				}
			}()
		}
	})
}

// Parallel runs fn over ranges that partition [0,n), each exactly once:
// one contiguous chunk per available worker on the persistent pool, or
// fn(0,n) on the caller when n or GOMAXPROCS is 1 or when every core is
// already inside a region body. fn must write only what its range owns
// and must not let a floating-point sum depend on where the range ends;
// it may call Parallel recursively.
func Parallel(n int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	procs := runtime.GOMAXPROCS(0)
	workers := min(procs, n)
	if workers <= 1 || poolBusy.Load() >= int64(procs) {
		poolInline.Add(1)
		fn(0, n)
		return
	}
	ensurePool()
	chunk := (n + workers - 1) / workers
	nchunks := (n + chunk - 1) / chunk
	poolJobCount.Add(1)
	poolChunks.Add(int64(nchunks))
	j := &poolJob{fn: fn, n: n, chunk: chunk}
	j.wg.Add(nchunks)
	// Open the job to nchunks-1 helpers; the caller handles the rest itself.
	slot := 0
	for slot < len(poolOpen) && !poolOpen[slot].CompareAndSwap(nil, j) {
		slot++
	}
	if slot < len(poolOpen) {
		defer poolOpen[slot].Store(nil)
		for i := 1; i < nchunks; i++ {
			select {
			case poolKicks <- struct{}{}:
			default:
			}
		}
	}
	j.run()
	j.wg.Wait()
}
