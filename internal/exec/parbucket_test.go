package exec

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"flint/internal/rdd"
)

// parallelBuckets must reproduce the serial BucketRows layout exactly
// for every chunk count: same buckets, same row order within each
// bucket. This is the invariance that lets the engine recruit any number
// of idle workers without touching the determinism contract.
func TestParallelBucketsMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eedbcc7))
	mixed := func(i int) rdd.Row {
		switch i % 3 {
		case 0:
			return rdd.KV{K: rng.Intn(500), V: i}
		case 1:
			return rdd.KV{K: fmt.Sprintf("w%03d", rng.Intn(500)), V: i}
		default:
			return rdd.KV{K: int64(rng.Intn(500)), V: i}
		}
	}
	cases := []struct {
		name string
		gen  func(i int) rdd.Row
		n    int
	}{
		{"int", func(i int) rdd.Row { return rdd.KV{K: rng.Intn(1000), V: i} }, 10000},
		{"string", func(i int) rdd.Row { return rdd.KV{K: fmt.Sprintf("key-%04d", rng.Intn(1000)), V: i} }, 10000},
		{"mixed-types", mixed, 9999},
		{"tiny", func(i int) rdd.Row { return rdd.KV{K: i, V: i} }, 7},
		{"empty", nil, 0},
	}
	for _, tc := range cases {
		for _, numOut := range []int{1, 7, 20, 64} {
			rows := make([]rdd.Row, tc.n)
			for i := range rows {
				rows[i] = tc.gen(i)
			}
			dep := &rdd.ShuffleDep{NumOut: numOut}
			want := dep.BucketRows(rows)
			for parts := 1; parts <= 9; parts++ {
				got := parallelBuckets(dep, rows, parts)
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("%s numOut=%d parts=%d: chunked layout differs from serial", tc.name, numOut, parts)
				}
			}
		}
	}
}

// A custom Partitioner must keep working through the chunked path.
func TestParallelBucketsCustomPartitioner(t *testing.T) {
	rows := make([]rdd.Row, 5000)
	for i := range rows {
		rows[i] = rdd.KV{K: i, V: i * 3}
	}
	dep := &rdd.ShuffleDep{
		NumOut:      8,
		Partitioner: func(r rdd.Row, numOut int) int { return r.(rdd.KV).V.(int) % numOut },
	}
	want := dep.BucketRows(rows)
	for parts := 1; parts <= 5; parts++ {
		if got := parallelBuckets(dep, rows, parts); !reflect.DeepEqual(got, want) {
			t.Fatalf("parts=%d: custom-partitioner layout differs from serial", parts)
		}
	}
}

// bucketAndCombineBatch must equal dep.BucketRows plus a per-bucket
// Combine over the boxed rows, with or without helpers, on every plane:
// typed and tail-only batches into Columnar deps (with and without a
// batch combine), a typed batch into a row-plane dep, and a custom
// Partitioner, which keeps a Columnar dep on the row plane. Row-plane
// buckets must stay tail-only.
func TestCombineBucketsMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eedcb01))
	rows := make([]rdd.Row, parBucketMinRows*3)
	for i := range rows {
		rows[i] = rdd.KV{K: rng.Intn(4096), V: rng.Intn(100)}
	}
	c := rdd.NewContext(4)
	src := c.Parallelize("src", 1, 16, func(int) []rdd.Row { return rows })
	shuffleOf := func(r *rdd.RDD) *rdd.ShuffleDep { return r.Deps[0].(*rdd.ShuffleDep) }
	sumInt := func(a, b int) int { return a + b }
	reduceInt := shuffleOf(src.ReduceByKeyInt("ri", 32, sumInt))
	group := shuffleOf(src.GroupByKey("g", 32))
	generic := shuffleOf(src.ReduceByKey("r", 32, func(a, b rdd.Row) rdd.Row { return a.(int) + b.(int) }))
	custom := *reduceInt
	custom.Partitioner = func(r rdd.Row, numOut int) int { return r.(rdd.KV).V.(int) % numOut }

	typed := rdd.ExtractBatch(rows, true)
	tail := rdd.WrapRows(rows)
	cases := []struct {
		name     string
		dep      *rdd.ShuffleDep
		in       *rdd.ColBatch
		rowPlane bool
	}{
		{"typed-into-columnar-combine", reduceInt, typed, false},
		{"typed-into-columnar", group, typed, false},
		{"tail-into-columnar-combine", reduceInt, tail, false},
		{"tail-into-columnar", group, tail, false},
		{"typed-into-row-combine", generic, typed, true},
		{"custom-partitioner", &custom, typed, true},
	}
	for _, tc := range cases {
		want := tc.dep.BucketRows(rows)
		for b, rs := range want {
			if len(rs) > 0 && tc.dep.Combine != nil {
				want[b] = tc.dep.Combine(rs)
			}
		}
		for _, helpers := range []int{0, 7} {
			e := &Engine{workers: helpers + 1, scatterSem: make(chan struct{}, helpers)}
			got := e.bucketAndCombineBatch(tc.dep, tc.in)
			if len(got) != len(want) {
				t.Fatalf("%s helpers=%d: %d buckets, want %d", tc.name, helpers, len(got), len(want))
			}
			for b, bk := range got {
				if !reflect.DeepEqual(bk.Rows(), want[b]) {
					t.Fatalf("%s helpers=%d: bucket %d differs from BucketRows + Combine", tc.name, helpers, b)
				}
				if tc.rowPlane && bk.HasCols() {
					t.Fatalf("%s helpers=%d: row-plane bucket %d carries columns", tc.name, helpers, b)
				}
			}
			if len(e.scatterSem) != 0 {
				t.Fatalf("%s helpers=%d: %d helper tokens leaked", tc.name, helpers, len(e.scatterSem))
			}
		}
	}
}

// bucketAndCombineBatch through an engine wide enough to hand out
// helpers must equal the serial reference round after round (exercises
// the semaphore path, and under -race the goroutine discipline of both
// passes).
func TestBucketAndCombineWithHelpers(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eedbc02))
	rows := make([]rdd.Row, parBucketMinRows*3)
	for i := range rows {
		rows[i] = rdd.KV{K: rng.Intn(4096), V: i}
	}
	dep := &rdd.ShuffleDep{NumOut: 20, Combine: func(rs []rdd.Row) []rdd.Row {
		out := make([]rdd.Row, len(rs))
		copy(out, rs)
		return out
	}}
	want := dep.BucketRows(rows)
	e := &Engine{workers: 8, scatterSem: make(chan struct{}, 7)}
	for round := 0; round < 4; round++ {
		got := e.bucketAndCombineBatch(dep, rdd.WrapRows(rows))
		for b, bk := range got {
			if !reflect.DeepEqual(bk.Rows(), want[b]) {
				t.Fatalf("round %d: helper-assisted bucket %d differs from serial", round, b)
			}
		}
		if len(e.scatterSem) != 0 {
			t.Fatalf("round %d: %d helper tokens leaked", round, len(e.scatterSem))
		}
	}
}
