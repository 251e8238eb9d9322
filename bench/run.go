package main

import (
	"fmt"
	"io"
	"runtime"

	"flint/internal/exec"
	"flint/internal/rdd"
)

// shape is how many times each phase of a workload's run executes. The
// benchmark fixes it (fullShape); only the smoke test uses another.
type shape struct {
	setups        int // set-up passes; setup_s is their median
	serial        int // serial samples: GOMAXPROCS(1), Workers 1
	serialFloor   int // never cut below this many, whatever -seconds says
	parallel      int // parallel samples: GOMAXPROCS = Workers = P
	parallelFloor int
	traced        int // traced samples: Workers 1, closures wrapped, clock stepped by hand
}

var fullShape = shape{setups: 3, serial: 9, serialFloor: 7, parallel: 5, parallelFloor: 3, traced: 3}

// serialShare is the share of -seconds after which the serial phase
// stops early (at its floor at the latest); the parallel phase has what
// remains.
const serialShare = 0.7

// options are a benchmark run's inputs.
type options struct {
	seed    int64
	seconds float64 // wall budget of one workload's timed phases
	p       int     // parallel width: min(nproc, 4)
	// trace selects the phases and the metrics reported: 0 end-to-end
	// only, 1 the traced phase's per-layer metrics, -1 both.
	trace    int
	small    bool // smoke-test size; results are not comparable
	shape    shape
	out      string    // JSON record file, "" for none
	traceOut string    // span file, "" for none
	rev      string    // revision label for the record
	log      io.Writer // failures and errors
}

// measurement is one metric's value with its spread.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	N     int     `json:"n"`
}

// workloadRecord is everything one workload's run produced.
type workloadRecord struct {
	Name      string `json:"name"`
	Rows      int64  `json:"rows"`
	Attempted int    `json:"attempted"`
	Failed    int    `json:"failed"`
	// Fingerprint is what all samples shared (the first sample's, when
	// some disagreed); ReferenceFNV is the CollectLocal oracle's outcome.
	Fingerprint  fingerprint            `json:"fingerprint"`
	ReferenceFNV uint64                 `json:"reference_fnv"`
	RunS         float64                `json:"run_s"` // whole run, set-up included
	EndToEnd     map[string]measurement `json:"end_to_end"`
	PerLayer     map[string]measurement `json:"per_layer,omitempty"`
}

// localRunner is the reference oracle: a workload.Runner over
// rdd.CollectLocal — no engine, no cluster, no cache, no lineage
// recovery. Every sample's canonical outcome must hash to what the
// workload produces on it.
type localRunner struct{}

func (localRunner) RunJob(target *rdd.RDD, action exec.Action) (*exec.Result, error) {
	rows := rdd.CollectLocal(target)
	res := &exec.Result{}
	switch action {
	case exec.ActionCollect:
		res.Rows = rows
	case exec.ActionCount:
		res.Count = int64(len(rows))
	}
	return res, nil
}

// verdicts counts operations and checks each sample against the
// reference outcome and against the first sample's fingerprint.
type verdicts struct {
	name      string
	log       io.Writer
	reference uint64
	first     *fingerprint
	attempted int
	failed    int
}

func (v *verdicts) check(phase string, i int, s sample) {
	v.attempted++
	if s.err == nil && v.first == nil {
		fp := s.fp
		v.first = &fp
	}
	var why string
	switch {
	case s.err != nil:
		why = s.err.Error()
	case s.fp.OutcomeFNV != v.reference:
		why = fmt.Sprintf("outcome fnv %016x differs from the CollectLocal reference %016x", s.fp.OutcomeFNV, v.reference)
	case s.fp != *v.first:
		why = fmt.Sprintf("fingerprint %+v differs from the first sample's %+v", s.fp, *v.first)
	}
	if why != "" {
		v.failed++
		fmt.Fprintf(v.log, "bench: %s: %s sample %d failed: %s\n", v.name, phase, i, why)
	}
}

// runWorkload executes one workload's whole run — set-up passes, serial
// samples, parallel samples and, with o.trace, the traced phase — and
// reduces it to a record. The returned tracer (nil untraced) still holds
// the spans for -trace-out.
func runWorkload(def workloadDef, o options) (workloadRecord, *tracer, error) {
	runStart := wallClock()
	rec := workloadRecord{Name: def.name}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))

	// Set-up: inputs from the seed, the reference outcome, one discarded
	// warm-up sample. Repeated so setup_s is a median; the last pass's
	// inputs serve the samples.
	var prep *prepared
	var setupS []float64
	var evalLocalS float64
	v := &verdicts{name: def.name, log: o.log}
	for i := 0; i < o.shape.setups; i++ {
		start := wallClock()
		prep = def.prepare(o.seed, o.small)
		refStart := wallClock()
		outcome, _, err := prep.run(localRunner{}, rdd.NewContext(benchParts))
		if err != nil {
			return rec, nil, fmt.Errorf("%s: reference evaluation: %w", def.name, err)
		}
		evalLocalS = wallClock() - refStart
		v.reference = fnvString(outcome())
		if warm := runSample(prep, 1, nil); warm.err != nil {
			return rec, nil, fmt.Errorf("%s: warm-up sample: %w", def.name, warm.err)
		}
		setupS = append(setupS, wallClock()-start)
	}
	rec.Rows, rec.ReferenceFNV = prep.rows, v.reference

	timedStart := wallClock()
	phase := func(name string, workers, n, floor int, budget float64) []sample {
		if runtime.GOMAXPROCS(workers) != workers {
			// The first sample at a new width pays for it once — fresh
			// per-P caches, first-touch page faults on the extra heap two
			// concurrent tasks need (1.7x on scan) — so it is discarded
			// like the set-up's warm-up.
			runSample(prep, workers, nil)
		}
		var out []sample
		for i := 0; i < n && (i < floor || wallClock()-timedStart < budget); i++ {
			s := runSample(prep, workers, nil)
			v.check(name, i, s)
			if s.err == nil {
				out = append(out, s)
			}
		}
		return out
	}
	serial := phase("serial", 1, o.shape.serial, o.shape.serialFloor, o.seconds*serialShare)
	parallel := phase("parallel", o.p, o.shape.parallel, o.shape.parallelFloor, o.seconds)
	if len(serial) == 0 || len(parallel) == 0 {
		return rec, nil, fmt.Errorf("%s: no sample completed", def.name)
	}

	rows := float64(prep.rows)
	pick := func(samples []sample, f func(sample) float64) []float64 {
		out := make([]float64, len(samples))
		for i, s := range samples {
			out[i] = f(s)
		}
		return out
	}
	serialWall := pick(serial, func(s sample) float64 { return s.wall })
	parallelWall := pick(parallel, func(s sample) float64 { return s.wall })
	e2e := map[string][]float64{
		"rows_per_s":          pick(serial, func(s sample) float64 { return rows / s.wall }),
		"rows_per_s_par":      pick(parallel, func(s sample) float64 { return rows / s.wall }),
		"allocs_per_row":      pick(serial, func(s sample) float64 { return float64(s.mallocs) / rows }),
		"alloc_bytes_per_row": pick(serial, func(s sample) float64 { return float64(s.allocBytes) / rows }),
		"retained_heap_mb":    pick(serial, func(s sample) float64 { return s.retained / (1 << 20) }),
		"virtual_makespan_s":  one(v.first.VirtualS),
		"virtual_cost_usd":    one(v.first.CostUSD),
		"setup_s":             setupS,
	}
	rec.EndToEnd = measure(endToEnd, e2e)

	var tr *tracer
	if o.trace != 0 {
		runtime.GOMAXPROCS(1)
		// A sample records at most one step span per clock event plus a
		// few closure spans per task; twice the trace-event count covers
		// both on every workload.
		tr = newTracer(o.shape.traced * 2 * (int(v.first.Events) + 64))
		var traced []sample
		var u unitCosts
		for i := 0; i < o.shape.traced; i++ {
			if i > 0 {
				tr.nextSample()
			}
			s := runSample(prep, 1, tr)
			v.check("traced", i, s)
			if s.err != nil {
				return rec, nil, fmt.Errorf("%s: traced sample %d: %w", def.name, i, s.err)
			}
			traced = append(traced, s)
			if i == 0 {
				// Replay on the captured partitions now and let them go:
				// kept alive they pin the heap spans they sit in and slow
				// the remaining traced samples (6 % on wordcount).
				u.scatterNsPerRow, u.concatNsPerRow, u.egressNsPerRow = replayShuffle(tr.captures)
				tr.captures = nil
			}
		}
		u.nsPerEvent, u.nsPerEmit, u.nsPerPut = clockUnitCost(), emitUnitCost(), putUnitCost()
		layers := layerMetrics(tr, traced, parallel, o.p, u)
		layers["rdd.evallocal_s"] = one(evalLocalS)
		layers["exec.par_speedup"] = one(median(serialWall) / median(parallelWall))
		layers["trace.overhead_frac"] = one(median(pick(traced, func(s sample) float64 { return s.wall }))/median(serialWall) - 1)
		rec.PerLayer = measure(perLayer, layers)
	}

	rec.Attempted, rec.Failed = v.attempted, v.failed
	rec.Fingerprint = *v.first
	rec.RunS = wallClock() - runStart
	return rec, tr, nil
}

// one is a metric that has a single value per run: a count, a ratio of
// medians, a virtual-clock reading.
func one(x float64) []float64 { return []float64{x} }

// measure reduces each metric's samples to a measurement, in the order
// and with the units of defs. A metric without samples is a bug in the
// benchmark, caught by the smoke test's name-set comparison.
func measure(defs []metricDef, samples map[string][]float64) map[string]measurement {
	out := make(map[string]measurement, len(defs))
	for _, d := range defs {
		vals, ok := samples[d.Name]
		if !ok {
			continue
		}
		s := summarize(vals)
		out[d.Name] = measurement{Value: s.Median, Unit: d.Unit, Q1: s.Q1, Q3: s.Q3, N: s.N}
	}
	return out
}

// layerMetrics assembles the per-layer metrics from the traced samples'
// spans and counts, the replayed unit costs, and the parallel samples'
// worker-pool histograms.
func layerMetrics(tr *tracer, traced, parallel []sample, p int, u unitCosts) map[string][]float64 {
	m := make(map[string][]float64)
	// Counts read off the bed repeat exactly; the first traced sample's
	// stand for all.
	for name, x := range traced[0].layers {
		m[name] = one(x)
	}

	self, _ := tr.selfTimes()
	kind := func(k spanKind) []float64 {
		out := make([]float64, len(self))
		for i := range self {
			out[i] = self[i][k]
		}
		return out
	}
	m["workload.gen_s"] = kind(spanGen)
	// The root span's own time is harness glue around the driver
	// (scheduling the revocation, reading the clock); it is booked with
	// the driver so the seven *_s layers sum to the traced wall.
	m["workload.driver_s"] = kind(spanDriver)
	for i, x := range kind(spanSample) {
		m["workload.driver_s"][i] += x
	}
	m["rdd.narrow_s"] = kind(spanNarrow)
	m["rdd.combine_s"] = kind(spanCombine)
	m["rdd.reduce_s"] = kind(spanReduce)
	m["exec.step_self_s"] = kind(spanStep)
	m["exec.testbed_build_s"] = kind(spanBuild)
	stepSelf := median(m["exec.step_self_s"])

	// Counts at the wrapped boundaries, as left by the last traced
	// sample (they too repeat exactly).
	m["workload.gen_calls"] = one(float64(tr.genCalls))
	m["rdd.narrow_rows"] = one(float64(tr.narrowRows))
	m["rdd.combine_rows_in"] = one(float64(tr.combineRowsIn))
	m["rdd.combine_rows_out"] = one(float64(tr.combineRowsOut))
	m["rdd.combine_ratio"] = one(ratio(float64(tr.combineRowsOut), float64(tr.combineRowsIn)))
	m["rdd.reduce_rows_in"] = one(float64(tr.reduceRowsIn))
	m["rdd.rows_shuffled"] = one(float64(tr.rowsShuffled))
	m["simclock.events"] = one(float64(tr.events))
	m["simclock.step_p99_us"] = one(tr.stepP99(tr.sample) * 1e6)
	m["trace.spans"] = one(float64(len(tr.spans)) / float64(tr.sample+1))

	tasks := traced[0].layers["exec.tasks"]
	m["exec.us_per_task"] = one(ratio(stepSelf*1e6, tasks))
	m["exec.recompute_frac"] = one(ratio(traced[0].layers["exec.recomputed_parts"], float64(tr.genCalls+tr.narrowCalls+tr.reduceCalls)))

	// Replays: unit cost × exact count.
	scatterS := u.scatterNsPerRow * float64(tr.combineRowsIn+tr.scatterRows) / 1e9
	concatS := u.concatNsPerRow * float64(tr.rowsShuffled) / 1e9
	queueS := u.nsPerEvent * float64(tr.events) / 1e9
	emitS := u.nsPerEmit * traced[0].layers["obs.trace_events"] / 1e9
	putS := u.nsPerPut * traced[0].layers["dfs.puts"] / 1e9
	m["rdd.egress_ns_per_row"] = one(u.egressNsPerRow)
	m["rdd.scatter_ns_per_row"] = one(u.scatterNsPerRow)
	m["rdd.scatter_s_est"] = one(scatterS)
	m["rdd.concat_ns_per_row"] = one(u.concatNsPerRow)
	m["rdd.concat_s_est"] = one(concatS)
	m["simclock.ns_per_event"] = one(u.nsPerEvent)
	m["simclock.queue_s_est"] = one(queueS)
	m["obs.ns_per_emit"] = one(u.nsPerEmit)
	m["obs.emit_s_est"] = one(emitS)
	m["dfs.ns_per_put"] = one(u.nsPerPut)
	// What remains of the sim thread's self time once every estimate is
	// taken out: scheduling proper (pump, trySubmit, dispatch, commit,
	// onTaskDone) — a residual, not a measurement.
	m["exec.sched_residual_s"] = one(stepSelf - scatterS - concatS - queueS - emitS - putS)

	// Worker pool: the parallel samples' flint_exec_ histograms.
	for _, name := range []string{"exec.rounds", "exec.round_wall_s", "exec.worker_busy_s"} {
		m[name] = make([]float64, len(parallel))
		for i, s := range parallel {
			m[name][i] = s.layers[name]
		}
	}
	m["exec.pool_util"] = make([]float64, len(parallel))
	for i, s := range parallel {
		m["exec.pool_util"][i] = ratio(s.layers["exec.worker_busy_s"], s.layers["exec.round_wall_s"]*float64(p))
	}
	return m
}
