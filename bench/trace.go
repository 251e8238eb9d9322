package main

import (
	"bufio"
	"errors"
	"fmt"

	"flint/internal/exec"
	"flint/internal/rdd"
	"flint/internal/stats"
)

// The traced phase measures every layer from outside the program: it
// replaces the lineage's public closure fields (RDD.Gen/Fn/ColFn,
// ShuffleDep.Combine/CombineCol) with timing wrappers and drives the
// virtual clock itself, one span per Engine.Submit or Clock.Step. With
// Workers = 1 everything runs on the caller's goroutine, so spans nest
// strictly and the tree tiles the sample: a span's self time is its
// duration minus its children's, and the self times sum to the root's
// duration by construction.

type spanKind uint8

const (
	spanSample  spanKind = iota // root: one traced sample
	spanBuild                   // exec.NewTestbed + rdd.NewContext (+ ckpt.NewManager)
	spanDriver                  // the workload's driver code (lineage building, result handling)
	spanStep                    // one Engine.Submit or Clock.Step call
	spanGen                     // RDD.Gen
	spanNarrow                  // RDD.Fn/ColFn of an RDD with only narrow deps
	spanCombine                 // ShuffleDep.Combine/CombineCol (map-side combine)
	spanReduce                  // RDD.Fn/ColFn of an RDD with a shuffle dep
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"sample", "exec.testbed_build", "workload.driver", "exec.step",
	"workload.gen", "rdd.narrow", "rdd.combine", "rdd.reduce",
}

// span is one timed interval on the wallClock timeline. parent indexes
// the enclosing span in the same slice (-1 for a root).
type span struct {
	kind   spanKind
	sample int32
	parent int32
	start  float64
	end    float64
}

// capture is one map-output partition of a shuffle dependency, held back
// so the scatter/concat/egress replays have real data to run on.
type capture struct {
	dep   *rdd.ShuffleDep
	batch *rdd.ColBatch
	combiners
}

// combiners are a dependency's original (unwrapped) map-side combine
// closures, which the replays call so they record no spans.
type combiners struct {
	combine    func([]rdd.Row) []rdd.Row
	combineCol func(*rdd.ColBatch) *rdd.ColBatch
}

// tracer collects spans and the row counts seen at the wrapped
// boundaries. A nil *tracer is the untraced phases' no-op.
type tracer struct {
	spans  []span
	open   int32 // innermost open span, -1 at top level
	sample int32

	// Row and call counts of the current sample, reset by nextSample.
	genCalls, narrowCalls, reduceCalls     int64
	narrowRows, reduceRowsIn, rowsShuffled int64
	combineRowsIn, combineRowsOut, events  int64
	scatterRows                            int64

	// Map-output capture, first traced sample only: wantCapture lists,
	// per map-side RDD, the dependencies still waiting for a partition.
	capturing   bool
	wantCapture map[*rdd.RDD][]*rdd.ShuffleDep
	orig        map[*rdd.ShuffleDep]combiners
	captures    []capture
}

// newTracer preallocates room for spanCap spans, so recording one never
// allocates inside a sample. The caller sizes it from the event count of
// the untraced samples: a buffer far larger than needed would raise the
// live heap, space out the collector's cycles, and make traced samples
// faster than untraced ones.
func newTracer(spanCap int) *tracer {
	return &tracer{
		spans:       make([]span, 0, spanCap),
		open:        -1,
		capturing:   true,
		wantCapture: make(map[*rdd.RDD][]*rdd.ShuffleDep),
		orig:        make(map[*rdd.ShuffleDep]combiners),
	}
}

// nextSample starts a new traced sample: counts restart, and map-output
// capture (done once, in the first sample) stops.
func (t *tracer) nextSample() {
	t.sample++
	t.capturing = false
	t.wantCapture, t.orig = nil, nil
	t.genCalls, t.narrowCalls, t.reduceCalls = 0, 0, 0
	t.narrowRows, t.reduceRowsIn, t.rowsShuffled = 0, 0, 0
	t.combineRowsIn, t.combineRowsOut, t.events, t.scatterRows = 0, 0, 0, 0
}

func (t *tracer) begin(k spanKind) int32 {
	if t == nil {
		return -1
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{kind: k, sample: t.sample, parent: t.open, start: wallClock()})
	t.open = i
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].end = wallClock()
	t.open = t.spans[i].parent
}

// wrap replaces r's closures, and those of its shuffle dependencies,
// with timing wrappers. Each RDD is wrapped exactly once, before the
// first job that can reach it is submitted.
func (t *tracer) wrap(r *rdd.RDD) {
	kind := spanNarrow
	if r.IsShuffle() {
		kind = spanReduce
	}
	if gen := r.Gen; gen != nil {
		r.Gen = func(part int) []rdd.Row {
			s := t.begin(spanGen)
			out := gen(part)
			t.end(s)
			t.genCalls++
			if t.wants(r) {
				t.offer(r, rdd.WrapRows(out))
			}
			return out
		}
	}
	if fn := r.Fn; fn != nil {
		r.Fn = func(part int, inputs [][]rdd.Row) []rdd.Row {
			s := t.begin(kind)
			out := fn(part, inputs)
			t.end(s)
			t.countCall(kind)
			for i, in := range inputs {
				t.countRows(r, kind, i, len(in))
			}
			if t.wants(r) {
				t.offer(r, rdd.WrapRows(out))
			}
			return out
		}
	}
	if colFn := r.ColFn; colFn != nil {
		r.ColFn = func(part int, inputs []*rdd.ColBatch) *rdd.ColBatch {
			s := t.begin(kind)
			out := colFn(part, inputs)
			t.end(s)
			t.countCall(kind)
			for i, in := range inputs {
				if in != nil {
					t.countRows(r, kind, i, in.Len())
				}
			}
			if t.wants(r) {
				t.offer(r, out)
			}
			return out
		}
	}
	for _, d := range r.Deps {
		dep, ok := d.(*rdd.ShuffleDep)
		if !ok {
			continue
		}
		if t.capturing {
			t.wantCapture[dep.P] = append(t.wantCapture[dep.P], dep)
			t.orig[dep] = combiners{dep.Combine, dep.CombineCol}
		}
		if combine := dep.Combine; combine != nil {
			dep.Combine = func(rows []rdd.Row) []rdd.Row {
				s := t.begin(spanCombine)
				out := combine(rows)
				t.end(s)
				t.combineRowsIn += int64(len(rows))
				t.combineRowsOut += int64(len(out))
				return out
			}
		}
		if combineCol := dep.CombineCol; combineCol != nil {
			dep.CombineCol = func(b *rdd.ColBatch) *rdd.ColBatch {
				s := t.begin(spanCombine)
				out := combineCol(b)
				t.end(s)
				t.combineRowsIn += int64(b.Len())
				t.combineRowsOut += int64(out.Len())
				return out
			}
		}
	}
}

func (t *tracer) countCall(kind spanKind) {
	if kind == spanNarrow {
		t.narrowCalls++
	} else {
		t.reduceCalls++
	}
}

// countRows books the n rows dependency i delivered to one Fn/ColFn
// call of r.
func (t *tracer) countRows(r *rdd.RDD, kind spanKind, i, n int) {
	if kind == spanNarrow {
		t.narrowRows += int64(n)
		return
	}
	t.reduceRowsIn += int64(n)
	if dep, ok := r.Deps[i].(*rdd.ShuffleDep); ok {
		t.rowsShuffled += int64(n)
		// A dependency without a map-side combine scatters exactly the
		// rows its reducers receive; combining ones are counted at the
		// combine closure, before the fold.
		if dep.Combine == nil && dep.CombineCol == nil {
			t.scatterRows += int64(n)
		}
	}
}

// wants reports whether a shuffle dependency mapping from r still lacks
// a captured partition.
func (t *tracer) wants(r *rdd.RDD) bool {
	return t.capturing && len(t.wantCapture[r]) > 0
}

// offer hands a freshly computed partition of r to every shuffle
// dependency that maps from r and has no captured partition yet.
func (t *tracer) offer(r *rdd.RDD, out *rdd.ColBatch) {
	if out.Len() == 0 {
		return
	}
	for _, dep := range t.wantCapture[r] {
		t.captures = append(t.captures, capture{dep: dep, batch: out, combiners: t.orig[dep]})
	}
	delete(t.wantCapture, r)
}

// stepRunner is the traced phase's workload.Runner: Engine.RunJob taken
// apart — Submit, then Clock.Step until the job's callback fires — with
// a span around each call and new lineage wrapped before submission.
// The samples' shared fingerprint proves it schedules exactly what
// Engine.RunJob does.
type stepRunner struct {
	bed     *bed
	tr      *tracer
	wrapped int // RDDs of bed.ctx.All() already wrapped
}

func (r *stepRunner) RunJob(target *rdd.RDD, action exec.Action) (*exec.Result, error) {
	all := r.bed.ctx.All()
	for _, x := range all[r.wrapped:] {
		r.tr.wrap(x)
	}
	r.wrapped = len(all)

	var res *exec.Result
	s := r.tr.begin(spanStep)
	r.bed.tb.Engine.Submit(target, action, func(x *exec.Result) { res = x })
	r.tr.end(s)
	for res == nil {
		s := r.tr.begin(spanStep)
		ok := r.bed.tb.Clock.Step()
		r.tr.end(s)
		if !ok {
			return nil, fmt.Errorf("job on %s deadlocked: no pending events", target)
		}
		r.tr.events++
	}
	return res, nil
}

// selfTimes returns, per sample, the self time of each span kind in
// seconds, plus each sample's root duration.
func (t *tracer) selfTimes() (self [][numSpanKinds]float64, root []float64) {
	n := int(t.sample) + 1
	self = make([][numSpanKinds]float64, n)
	root = make([]float64, n)
	for _, s := range t.spans {
		d := s.end - s.start
		self[s.sample][s.kind] += d
		if s.parent >= 0 {
			self[s.sample][t.spans[s.parent].kind] -= d
		} else {
			root[s.sample] += d
		}
	}
	return self, root
}

// stepP99 returns the 99th-percentile Submit/Step span of one sample, in
// seconds (0 if it has none).
func (t *tracer) stepP99(sample int32) float64 {
	var d []float64
	for _, s := range t.spans {
		if s.kind == spanStep && s.sample == sample {
			d = append(d, s.end-s.start)
		}
	}
	p99, _ := stats.Percentile(d, 99) // the error is the empty sample's: 0 stands
	return p99
}

// checkSpans verifies the span tree is well formed: every span closed,
// every parent an earlier span of the same sample that encloses it.
func (t *tracer) checkSpans() error {
	for i, s := range t.spans {
		if s.end < s.start {
			return fmt.Errorf("span %d (%s) never closed", i, spanNames[s.kind])
		}
		if s.parent < 0 {
			if s.kind != spanSample {
				return fmt.Errorf("span %d (%s) has no parent", i, spanNames[s.kind])
			}
			continue
		}
		p := t.spans[s.parent]
		if int(s.parent) >= i || p.sample != s.sample || p.start > s.start || p.end < s.end {
			return fmt.Errorf("span %d (%s) is not enclosed by its parent %d (%s)", i, spanNames[s.kind], s.parent, spanNames[p.kind])
		}
	}
	if t.open != -1 {
		return errors.New("a span is still open")
	}
	return nil
}

// writeSpans appends the workload's spans to w as JSON lines (format in
// bench/README.md).
func (t *tracer) writeSpans(w *bufio.Writer, workload string) {
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"workload":%q,"sample":%d,"id":%d,"parent":%d,"name":%q,"start":%.9f,"end":%.9f}`+"\n",
			workload, s.sample, i, s.parent, spanNames[s.kind], s.start, s.end)
	}
}
