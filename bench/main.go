// Command bench is the repository's benchmark: five workloads, each run
// as whole timed executions ("samples") of the engine on a fresh
// testbed, measured on two clocks — the virtual clock (makespan,
// dollars, counts: pure functions of the schedule that must repeat
// exactly) and the wall clock (how fast the engine itself chews rows:
// medians with quartiles) — and, in a separate traced phase, split into
// a per-layer budget measured entirely from outside the program.
//
//	go run ./bench                          every workload, every metric
//	go run ./bench -workload scan -trace 0  one workload, end-to-end only
//	go run ./bench -out new.json            also write the JSON record
//	go run ./bench -compare old.json new.json
//
// BENCHMARK.json at the repository root declares the contract this
// program implements; bench/README.md documents every metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// runSeconds is the wall budget of one workload's timed phases, the
// run_seconds BENCHMARK.json declares. At the sizes in workloads.go the
// fixed shape (9 serial + 5 parallel samples) fits inside it on the
// 2-core sandbox; on a slower machine the phases stop early, never
// below their floors.
const runSeconds = 18

// record is the JSON document -out writes and -compare reads.
type record struct {
	Rev   string `json:"rev"`
	Seed  int64  `json:"seed"`
	P     int    `json:"p"`     // parallel width used: min(nproc, 4)
	NProc int    `json:"nproc"` // runtime.NumCPU()
	Go    string `json:"go"`
	// Comparable is false for reduced-size runs (the smoke test), whose
	// numbers must never be compared with a full run's.
	Comparable bool             `json:"comparable"`
	Workloads  []workloadRecord `json:"workloads"`
}

// result is the object the last line of standard output carries.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]resultValue `json:"metrics"`
}

type resultValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "run only this workload (default: all of "+strings.Join(workloadNames(), ", ")+")")
	seed := fs.Int64("seed", 1, "input seed: the only input knob; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", runSeconds, "wall budget of one workload's timed phases; below it the fixed shape is cut, never under 7 serial samples")
	trace := fs.Int("trace", -1, "0: end-to-end metrics only; 1: run the traced phase and report the per-layer metrics; default: both")
	out := fs.String("out", "", "write the JSON record to this file")
	traceOut := fs.String("trace-out", "", "write the traced phase's spans to this file as JSON lines")
	rev := fs.String("rev", "worktree", "revision label stored in the record")
	compare := fs.Bool("compare", false, "compare two records: bench -compare old.json new.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare takes two record files: old.json new.json")
			return 2
		}
		return compareRecords(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() != 0 {
		fmt.Fprintf(stderr, "bench: unexpected argument %q\n", fs.Arg(0))
		return 2
	}

	defs := workloads
	if *workload != "" {
		defs = nil
		for _, d := range workloads {
			if d.name == *workload {
				defs = []workloadDef{d}
			}
		}
		if defs == nil {
			fmt.Fprintf(stderr, "bench: unknown workload %q (have %s)\n", *workload, strings.Join(workloadNames(), ", "))
			return 2
		}
	}
	// Never more than P runnable threads, and no goroutines of the
	// benchmark's own: only the engine's worker pool fans out.
	p := runtime.NumCPU()
	if p > 4 {
		p = 4
	}
	runtime.GOMAXPROCS(p)
	return benchmark(defs, options{
		seed: *seed, seconds: *seconds, p: p, trace: *trace, shape: fullShape,
		out: *out, traceOut: *traceOut, rev: *rev, log: stderr,
	}, stdout)
}

// benchmark runs the given workloads, prints every metric, writes the
// record and span files if asked, and ends standard output with the
// result line. It returns the process exit code: non-zero when any
// operation failed.
func benchmark(defs []workloadDef, o options, stdout io.Writer) int {
	var spans *bufio.Writer
	if o.traceOut != "" && o.trace != 0 {
		f, err := os.Create(o.traceOut)
		if err != nil {
			fmt.Fprintf(o.log, "bench: %v\n", err)
			return 1
		}
		defer f.Close()
		spans = bufio.NewWriter(f)
	}

	rec := record{Rev: o.rev, Seed: o.seed, P: o.p, NProc: runtime.NumCPU(), Go: runtime.Version(), Comparable: !o.small}
	if o.small {
		fmt.Fprintln(stdout, "reduced size: these numbers are NOT comparable with a full run's")
	}
	final := result{Metrics: make(map[string]resultValue)}
	spansOK := true
	for _, def := range defs {
		wr, tr, err := runWorkload(def, o)
		if err != nil {
			fmt.Fprintf(o.log, "bench: %v\n", err)
			return 1
		}
		rec.Workloads = append(rec.Workloads, wr)
		printWorkload(stdout, wr, rec, o.trace)
		if tr != nil {
			if err := tr.checkSpans(); err != nil {
				fmt.Fprintf(o.log, "bench: %s: span tree: %v\n", def.name, err)
				spansOK = false
			}
			if spans != nil {
				tr.writeSpans(spans, def.name)
			}
		}
		final.Attempted += wr.Attempted
		final.Failed += wr.Failed
		final.add(wr, o.trace, len(defs) > 1)
	}
	if spans != nil {
		if err := spans.Flush(); err != nil {
			fmt.Fprintf(o.log, "bench: writing %s: %v\n", o.traceOut, err)
			return 1
		}
	}
	if o.out != "" {
		if err := writeRecord(o.out, rec); err != nil {
			fmt.Fprintf(o.log, "bench: %v\n", err)
			return 1
		}
	}
	final.Correct = final.Failed == 0 && spansOK
	line, err := json.Marshal(final)
	if err != nil {
		fmt.Fprintf(o.log, "bench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	if !final.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, d := range workloads {
		names[i] = d.name
	}
	return names
}

// add copies a workload's metrics into the final result line: the
// end-to-end ones unless -trace 1, the per-layer ones unless -trace 0.
// With several workloads in one run, names are prefixed "workload/".
func (r *result) add(wr workloadRecord, trace int, prefix bool) {
	put := func(ms map[string]measurement) {
		for name, m := range ms {
			if prefix {
				name = wr.Name + "/" + name
			}
			r.Metrics[name] = resultValue{Value: m.Value, Unit: m.Unit}
		}
	}
	if trace != 1 {
		put(wr.EndToEnd)
	}
	if trace != 0 {
		put(wr.PerLayer)
	}
}

// printWorkload prints every metric of one workload by name, with its
// unit, quartiles and sample count.
func printWorkload(w io.Writer, wr workloadRecord, rec record, trace int) {
	fmt.Fprintf(w, "== %s  seed=%d P=%d nproc=%d rows=%d  operations: %d attempted, %d failed  run %.1fs\n",
		wr.Name, rec.Seed, rec.P, rec.NProc, wr.Rows, wr.Attempted, wr.Failed, wr.RunS)
	fmt.Fprintf(w, "   reference_fnv=%016x outcome_fnv=%016x trace_fnv=%016x events=%d\n",
		wr.ReferenceFNV, wr.Fingerprint.OutcomeFNV, wr.Fingerprint.TraceFNV, wr.Fingerprint.Events)
	table := func(title string, defs []metricDef, ms map[string]measurement) {
		fmt.Fprintf(w, "   %-28s %16s %-10s %16s %16s %3s\n", title, "median", "unit", "q1", "q3", "n")
		for _, d := range defs {
			m, ok := ms[d.Name]
			if !ok {
				continue
			}
			fmt.Fprintf(w, "   %-28s %16.6g %-10s %16.6g %16.6g %3d\n", d.Name, m.Value, m.Unit, m.Q1, m.Q3, m.N)
		}
	}
	if trace != 1 {
		table("end-to-end", endToEnd, wr.EndToEnd)
	}
	if trace != 0 {
		table("per-layer (traced phase)", perLayer, wr.PerLayer)
	}
}

func writeRecord(path string, rec record) error {
	data, err := json.MarshalIndent(rec, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readRecord(path string) (record, error) {
	var rec record
	data, err := os.ReadFile(path)
	if err != nil {
		return rec, err
	}
	if err := json.Unmarshal(data, &rec); err != nil {
		return rec, fmt.Errorf("%s: %w", path, err)
	}
	if len(rec.Workloads) == 0 {
		return rec, errors.New(path + ": record holds no workloads")
	}
	return rec, nil
}
