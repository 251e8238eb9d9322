package main

import (
	"flint/internal/dfs"
	"flint/internal/obs"
	"flint/internal/rdd"
	"flint/internal/simclock"
)

// What happens inside exec between the closure calls — the map-side
// scatter, the reduce-side fetch/concat, egress boxing, the event queue,
// trace emits, store puts — cannot be spanned from outside. It is
// estimated instead: the public functions exec calls for that work are
// replayed here on captured data (or no-op payloads) for a unit cost,
// and the unit cost is multiplied by the exact count the traced sample
// observed. These are replays, not measurements of the run itself; the
// metrics they feed carry the _est suffix.

// unitCosts are the replayed per-item costs, in nanoseconds.
type unitCosts struct {
	scatterNsPerRow float64
	concatNsPerRow  float64
	egressNsPerRow  float64
	nsPerEvent      float64
	nsPerEmit       float64
	nsPerPut        float64
}

// minReplayRows is how many rows each captured partition is replayed
// over at least, so a 160-row kmeans partition still yields a usable
// per-row figure.
const minReplayRows = 20_000

// replayShuffle re-runs, for every captured map-output partition, the
// scatter exec's map task performs (bucketAndCombineBatch minus the
// combine closures, which have their own spans), then concatenates the
// partition's bucket segments the way a reduce-side fetch does, then
// boxes the result the way egress does.
func replayShuffle(captures []capture) (scatter, concat, egress float64) {
	var scatterS, concatS, egressS float64
	var scatterRows, concatRows, egressRows int
	for _, c := range captures {
		n := c.batch.Len()
		for reps := (minReplayRows + n - 1) / n; reps > 0; reps-- {
			start := wallClock()
			buckets := scatterOnce(c)
			scatterS += wallClock() - start
			scatterRows += n

			segs := buckets[:0]
			total := 0
			for _, bk := range buckets {
				if bk.Len() == 0 {
					continue
				}
				bk = c.combineBucket(bk)
				segs = append(segs, bk)
				total += bk.Len()
			}
			start = wallClock()
			joined := rdd.ConcatBatches(segs, total)
			concatS += wallClock() - start
			concatRows += total

			if joined.HasCols() {
				start = wallClock()
				rows := joined.Rows()
				egressS += wallClock() - start
				egressRows += len(rows)
			}
		}
	}
	return perItemNs(scatterS, scatterRows), perItemNs(concatS, concatRows), perItemNs(egressS, egressRows)
}

// rowPlane mirrors exec's test for bucketing a dependency as boxed rows.
func (c capture) rowPlane() bool {
	return !c.dep.Columnar || c.dep.Partitioner != nil || !rdd.ColumnCarryEnabled()
}

// scatterOnce buckets the captured partition with the same public rdd
// calls exec.bucketAndCombineBatch makes at one worker.
func scatterOnce(c capture) []*rdd.ColBatch {
	if !c.rowPlane() && c.batch.HasCols() {
		return c.dep.BucketBatch(c.batch)
	}
	rowBuckets := c.dep.BucketRows(c.batch.Rows())
	buckets := make([]*rdd.ColBatch, len(rowBuckets))
	for i, rb := range rowBuckets {
		buckets[i] = rdd.WrapRows(rb)
		// Ingress extraction: a columnar dependency without a combine
		// columnizes each bucket's keys.
		if !c.rowPlane() && c.combineCol == nil && len(rb) > 0 {
			buckets[i] = rdd.ExtractBatch(rb, false)
		}
	}
	return buckets
}

// combineBucket applies the dependency's original map-side combine, so
// the concat replay sees segments of the size a real fetch sees.
func (c capture) combineBucket(bk *rdd.ColBatch) *rdd.ColBatch {
	switch {
	case !c.rowPlane() && c.combineCol != nil:
		return c.combineCol(bk)
	case c.rowPlane() && c.combine != nil:
		return rdd.WrapRows(c.combine(bk.Rows()))
	}
	return bk
}

func perItemNs(seconds float64, items int) float64 {
	if items == 0 {
		return 0
	}
	return seconds / float64(items) * 1e9
}

const unitCostReps = 200_000

// clockUnitCost times Clock.After + Clock.Step on a no-op payload, with
// a standing queue about as deep as a full cluster's in-flight tasks.
func clockUnitCost() float64 {
	clk := simclock.New()
	nop := func() {}
	const depth = 2 * benchParts
	for i := 0; i < depth; i++ {
		clk.After(float64(i), nop)
	}
	start := wallClock()
	for i := 0; i < unitCostReps; i++ {
		clk.After(depth, nop)
		clk.Step()
	}
	return perItemNs(wallClock()-start, unitCostReps)
}

// emitUnitCost times Tracer.Emit into a ring of the samples' capacity.
func emitUnitCost() float64 {
	tr := obs.NewTracer(ringCapacity)
	start := wallClock()
	for i := 0; i < unitCostReps; i++ {
		tr.Emit(obs.Event{Type: obs.EvTaskDone, Time: float64(i), Dur: 1, Task: i, Part: i % benchParts})
	}
	return perItemNs(wallClock()-start, unitCostReps)
}

// putUnitCost times Store.Put of a payload-free object, key formatting
// included (exec builds the key at every call site).
func putUnitCost() float64 {
	st := dfs.New(dfs.Config{})
	start := wallClock()
	for i := 0; i < unitCostReps; i++ {
		st.Put(dfs.Key(i%512, i%benchParts), nil, 1<<20, float64(i))
	}
	return perItemNs(wallClock()-start, unitCostReps)
}
