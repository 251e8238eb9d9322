//lint:hot column-batch bucketing runs per cell per task
package exec

// Column-batch map-side bucketing: the typed-batch half of
// bucketAndCombineBatch (parbucket.go).
//
// When a shuffle dependency is Columnar, a map task's output buckets are
// ColBatches: typed batches scatter their key/value columns directly
// (rdd.BucketBatch and its range primitives, chunked here across idle
// workers exactly like parallelBuckets), and every bucket is then
// finalized — batch combine (CombineCol) for reduce deps, keys-only
// extraction for group/join/partition deps — so what enters the shuffle
// tracker is columns. Bucket b holds the same rows in the same order as
// the row plane's bucket b for any helper count (the chunk roll-up
// argument in parbucket.go applies unchanged); the combine/extract step
// preserves row values, so detbench FNVs are identical whichever plane
// ran.

import "flint/internal/rdd"

// parallelBucketBatch is dep.BucketBatch chunked across parts goroutines
// (parts >= 1; parts == 1 degenerates to the serial composition). Same
// roll-up scheme as parallelBuckets: per-chunk counts become per-chunk
// write cursors into disjoint (chunk, bucket) column segments. The tail
// pass runs serially — tails are short by construction.
func parallelBucketBatch(dep *rdd.ShuffleDep, b *rdd.ColBatch, parts int) []*rdd.ColBatch {
	n := b.TypedLen()
	if parts > n {
		parts = n
	}
	if parts <= 1 {
		return dep.BucketBatch(b)
	}
	lo := make([]int, parts+1)
	for c := 0; c <= parts; c++ {
		lo[c] = c * n / parts
	}
	idx := make([]int32, n)
	counts := make([][]int, parts)
	runChunks(parts, func(c int) {
		counts[c] = make([]int, dep.NumOut)
		dep.BucketBatchIndexRange(b, lo[c], lo[c+1], idx, counts[c])
	})
	total := make([]int, dep.NumOut)
	for c := 0; c < parts; c++ {
		for bk, k := range counts[c] {
			total[bk] += k
		}
	}
	carve, start := rdd.CarveBatchBuckets(b, total)
	next := make([][]int, parts)
	for c := 0; c < parts; c++ {
		next[c] = make([]int, dep.NumOut)
		copy(next[c], start)
		for bk, k := range counts[c] {
			start[bk] += k
		}
	}
	runChunks(parts, func(c int) {
		carve.ScatterRange(b, lo[c], lo[c+1], idx, next[c])
	})
	buckets := carve.Buckets()
	dep.ScatterBatchTail(b, buckets)
	return buckets
}
