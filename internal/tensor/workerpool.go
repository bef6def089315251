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
// Offers: a dispatched region holds one of a fixed set of job slots while
// it runs and sends one kick per helper it could use; a worker answers a
// kick by running whatever the slots hold then. So a late helper joins the
// region its caller is in now, and no offer is lost to what earlier regions
// left behind. A slot's chunks are claimed only by CAS on its live claim
// word, which carries the region's chunk count, and the region's fields are
// read only after a claim, while the owner waits for that chunk: a late
// helper claims a real chunk of the region in the slot now, or none.
//
// Deadlock freedom: the caller always participates in its own job, so a
// job completes even when every pool worker is busy (including the nested
// case where fn itself calls Parallel).

// poolJob is a job slot: while owned, one region's chunked index range.
type poolJob struct {
	claim atomic.Uint64 // nchunks<<32 | next chunk to claim; 0 when idle
	owned atomic.Bool
	fn    func(lo, hi int)
	n     int
	chunk int
	wg    sync.WaitGroup
}

// take claims the next chunk of the region in the slot now, -1 if none.
func (j *poolJob) take() int {
	for w := j.claim.Load(); w&(1<<32-1) < w>>32; w = j.claim.Load() {
		if j.claim.CompareAndSwap(w, w+1) {
			return int(w & (1<<32 - 1))
		}
	}
	return -1
}

// run claims and executes chunks until none remain, each exactly once
// whatever goroutines call it. A goroutine that finds nothing left to
// claim was never inside the region body and is not counted busy.
func (j *poolJob) run() {
	c := j.take()
	if c >= 0 {
		poolBusy.Add(1)
		defer poolBusy.Add(-1)
	}
	for ; c >= 0; c = j.take() {
		lo := c * j.chunk
		j.fn(lo, min(lo+j.chunk, j.n))
		j.wg.Done()
	}
}

var (
	poolOnce  sync.Once
	poolSlots []poolJob     // the regions running now that offered chunks, and idle slots
	poolKicks chan struct{} // one per helper wanted; a worker scans poolSlots per kick

	// Pool instrumentation: plain atomics bumped on the dispatch path and
	// exported by BindPoolMetrics as func gauges read only at snapshot
	// time, so the hot path never pays for an unread metric.
	poolWorkers  atomic.Int64 // workers started (0 until first pooled job)
	poolJobCount atomic.Int64 // Parallel calls dispatched to the pool
	poolInline   atomic.Int64 // Parallel calls run entirely on their caller
	poolChunks   atomic.Int64 // chunks executed across all jobs
	poolBusy     atomic.Int64 // goroutines inside region bodies right now
)

// ensurePool makes the job slots and starts the persistent workers. A full
// kick buffer means every worker already has a scan ahead of it that will
// see what was just opened.
func ensurePool() {
	poolOnce.Do(func() {
		nw := max(runtime.GOMAXPROCS(0), 1)
		poolSlots = make([]poolJob, 4*nw)
		poolKicks = make(chan struct{}, nw)
		poolWorkers.Store(int64(nw))
		for i := 0; i < nw; i++ {
			go func() {
				for range poolKicks {
					for i := range poolSlots {
						poolSlots[i].run()
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
	slot := 0
	for slot < len(poolSlots) && !poolSlots[slot].owned.CompareAndSwap(false, true) {
		slot++
	}
	if slot == len(poolSlots) { // every slot's caller is inside its region: the machine is busy
		poolBusy.Add(1)
		defer poolBusy.Add(-1)
		fn(0, n)
		return
	}
	j := &poolSlots[slot]
	j.fn, j.n, j.chunk = fn, n, chunk
	j.wg.Add(nchunks)
	j.claim.Store(uint64(nchunks) << 32)
	for i := 1; i < nchunks; i++ { // kick nchunks-1 helpers; the caller runs the rest
		select {
		case poolKicks <- struct{}{}:
		default:
		}
	}
	j.run()
	j.wg.Wait()
	j.claim.Store(0)
	j.fn = nil // an idle slot keeps nothing of the region alive
	j.owned.Store(false)
}
