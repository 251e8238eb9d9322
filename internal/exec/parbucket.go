//lint:hot parallel map-side bucketing runs per row per task
package exec

// Parallel map-side shuffle bucketing.
//
// A map task splits its partition into NumOut buckets (and runs the
// optional map-side combine per bucket) through one entry,
// bucketAndCombineBatch. The two-pass exact-size scheme
// (rdd.BucketIndexRange + rdd.ScatterRange) is chunkable: per-chunk
// bucket counts roll up into global prefix offsets, giving every
// (chunk, bucket) pair its own disjoint destination segment, so the
// chunked fill produces the same flat layout as the serial fill for ANY
// chunk count — rows of one bucket appear in original row order because
// chunks are in row order. That invariance is what keeps the output
// byte-identical whether zero, one or seven helper goroutines join in
// (TestParallelBucketsMatchesSerial pins it per chunk count).
//
// Helpers are opportunistic: the engine's dispatch rounds already fan
// tasks across Config.Workers goroutines, so a task only recruits help
// for its bucketing when pool capacity is otherwise idle — a buffered
// semaphore sized workers-1 is try-acquired, never waited on. Under a
// full round the semaphore is contended and bucketing runs inline, same
// as before; in narrow rounds (few large map tasks, the common detbench
// shape at 10-100x scale) the idle workers absorb the scatter and the
// per-bucket combine. Workers=1 never parallelizes: the legacy serial
// engine stays exactly serial.

import (
	"sync"
	"sync/atomic"

	"flint/internal/rdd"
)

const (
	// parBucketMinRows is the partition size below which recruiting
	// helpers isn't worth the fan-out overhead.
	parBucketMinRows = 1 << 13
	// parBucketChunk is the minimum rows each participant should own.
	parBucketChunk = 1 << 12
)

// recruitHelpers try-acquires idle worker-pool slots for an n-row
// bucketing, returning how many joined (0 under a full round or for
// small partitions). Every recruit must be paired with releaseHelpers.
func (e *Engine) recruitHelpers(n int) int {
	helpers := 0
	if n >= parBucketMinRows {
		max := n/parBucketChunk - 1
		for helpers < max {
			select {
			case e.scatterSem <- struct{}{}:
				helpers++
			default:
				max = helpers // semaphore exhausted
			}
		}
	}
	return helpers
}

// releaseHelpers returns recruited slots to the pool.
func (e *Engine) releaseHelpers(helpers int) {
	for i := 0; i < helpers; i++ {
		<-e.scatterSem
	}
}

// bucketAndCombineBatch buckets one map task's output batch and applies
// the map-side combine, recruiting idle pool capacity for large
// partitions. A Columnar dependency gets column buckets: a typed batch
// scatters its columns directly (parbucketcol.go), a tail-only one is
// bucketed as rows and each bucket columnized. Any other dependency —
// or one with a custom Partitioner, which sees boxed rows — gets
// tail-only buckets combined via Combine. Either way bucket b holds the
// values dep.BucketRows plus a per-bucket Combine over the boxed rows
// would produce.
func (e *Engine) bucketAndCombineBatch(dep *rdd.ShuffleDep, b *rdd.ColBatch) []*rdd.ColBatch {
	helpers := e.recruitHelpers(b.Len())
	defer e.releaseHelpers(helpers)
	parts := helpers + 1
	if columnar(dep) && b.HasCols() {
		buckets := parallelBucketBatch(dep, b, parts)
		finishBuckets(dep, buckets, buckets, parts, columnize)
		return buckets
	}
	rows := parallelBuckets(dep, b.Rows(), parts)
	buckets := make([]*rdd.ColBatch, len(rows))
	finishBuckets(dep, rows, buckets, parts, combineRows)
	return buckets
}

// columnar reports whether dep's map outputs travel as column buckets.
func columnar(dep *rdd.ShuffleDep) bool { return dep.Columnar && dep.Partitioner == nil }

// combineRows finishes one bucket of boxed rows, wrapping it exactly
// once: columnized for a Columnar dependency (the ingress point where
// rows become columns), else combined via Combine and wrapped tail-only.
func combineRows(dep *rdd.ShuffleDep, rows []rdd.Row) *rdd.ColBatch {
	if columnar(dep) {
		return columnize(dep, rdd.WrapRows(rows))
	}
	if len(rows) > 0 && dep.Combine != nil {
		rows = dep.Combine(rows)
	}
	return rdd.WrapRows(rows)
}

// columnize finishes one bucket of a Columnar dependency: the batch
// combine (CombineCol) for reduce deps; for deps without a combine, key
// extraction (values keep their boxes) so grouping and joining
// downstream probe typed keys. Empty buckets pass through untouched.
func columnize(dep *rdd.ShuffleDep, bk *rdd.ColBatch) *rdd.ColBatch {
	switch {
	case bk.Len() == 0:
	case dep.CombineCol != nil:
		return dep.CombineCol(bk)
	case !bk.HasCols():
		return rdd.ExtractBatch(bk.Rows(), false)
	}
	return bk
}

// finishBuckets sets out[i] = finish(dep, in[i]) for every bucket,
// fanning buckets across parts goroutines that take indexes from a
// shared cursor. finish is pure per bucket and buckets are disjoint, so
// any schedule produces the serial result. finish is a plain function,
// not a closure, so the serial path allocates nothing.
func finishBuckets[T any](dep *rdd.ShuffleDep, in []T, out []*rdd.ColBatch, parts int, finish func(*rdd.ShuffleDep, T) *rdd.ColBatch) {
	if parts > len(in) {
		parts = len(in)
	}
	if parts <= 1 {
		for i, bk := range in {
			out[i] = finish(dep, bk)
		}
		return
	}
	var cursor atomic.Int64
	runChunks(parts, func(int) {
		for {
			i := int(cursor.Add(1)) - 1
			if i >= len(in) {
				return
			}
			out[i] = finish(dep, in[i])
		}
	})
}

// parallelBuckets is dep.BucketRows chunked across parts goroutines
// (parts >= 1; parts == 1 degenerates to the serial composition). Pure
// apart from its own allocations: dep and rows are only read, per the
// package purity contract, so chunk workers share them safely.
func parallelBuckets(dep *rdd.ShuffleDep, rows []rdd.Row, parts int) [][]rdd.Row {
	n := len(rows)
	if parts > n {
		parts = n
	}
	if parts <= 1 {
		return dep.BucketRows(rows)
	}
	// Chunk bounds: even split, remainder spread over the first chunks.
	lo := make([]int, parts+1)
	for c := 0; c <= parts; c++ {
		lo[c] = c * n / parts
	}
	// Pass 1 (parallel): per-chunk bucket index + private counts.
	idx := make([]int32, n)
	counts := make([][]int, parts)
	runChunks(parts, func(c int) {
		counts[c] = make([]int, dep.NumOut)
		dep.BucketIndexRange(rows, lo[c], lo[c+1], idx, counts[c])
	})
	// Roll-up (serial, cheap): global per-bucket counts, then per-chunk
	// write cursors — chunk c writes bucket b starting where chunks
	// 0..c-1 left off within b's segment.
	total := make([]int, dep.NumOut)
	for c := 0; c < parts; c++ {
		for b, k := range counts[c] {
			total[b] += k
		}
	}
	buckets, start, flat := rdd.CarveBuckets(total, n)
	next := make([][]int, parts)
	for c := 0; c < parts; c++ {
		next[c] = make([]int, dep.NumOut)
		copy(next[c], start)
		for b, k := range counts[c] {
			start[b] += k
		}
	}
	// Pass 2 (parallel): scatter into disjoint (chunk, bucket) segments.
	runChunks(parts, func(c int) {
		rdd.ScatterRange(rows, lo[c], lo[c+1], idx, next[c], flat)
	})
	return buckets
}

// runChunks runs fn(0..parts-1) across parts goroutines and waits.
func runChunks(parts int, fn func(c int)) {
	var wg sync.WaitGroup
	wg.Add(parts - 1)
	for c := 1; c < parts; c++ {
		go func(c int) {
			defer wg.Done()
			fn(c)
		}(c)
	}
	fn(0)
	wg.Wait()
}
