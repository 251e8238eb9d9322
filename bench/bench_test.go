package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"sort"
	"testing"
)

// smokeShape runs each phase just often enough to exercise it.
var smokeShape = shape{setups: 1, serial: 2, serialFloor: 2, parallel: 2, parallelFloor: 2, traced: 2}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// TestDeclarationMatchesProgram fails on any drift, either way, between
// BENCHMARK.json and the tables the program prints from.
func TestDeclarationMatchesProgram(t *testing.T) {
	b := readBenchmarkJSON(t)
	if b.RunSeconds != runSeconds {
		t.Errorf("run_seconds = %d, program's runSeconds = %d", b.RunSeconds, runSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, w.Name, workloads[i].name)
		}
	}
	plain := func(defs []metricDef) []metricDef {
		out := make([]metricDef, len(defs))
		for i, d := range defs {
			out[i] = metricDef{Name: d.Name, Unit: d.Unit, Better: d.Better, Bound: d.Bound}
		}
		return out
	}
	if got, want := b.EndToEnd, plain(endToEnd); !reflect.DeepEqual(got, want) {
		t.Errorf("end_to_end differs:\n BENCHMARK.json %+v\n program        %+v", got, want)
	}
	if got, want := b.PerLayer, plain(perLayer); !reflect.DeepEqual(got, want) {
		t.Errorf("per_layer differs:\n BENCHMARK.json %+v\n program        %+v", got, want)
	}
}

// TestSmoke runs every workload at a reduced size: zero failed
// operations, every declared metric reported and none undeclared, and a
// span tree that is well formed and tiles each traced sample.
func TestSmoke(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			var log bytes.Buffer
			o := options{seed: 11, seconds: runSeconds, p: 2, trace: 1, small: true, shape: smokeShape, log: &log}
			rec, tr, err := runWorkload(def, o)
			if err != nil {
				t.Fatalf("%v\n%s", err, log.String())
			}
			want := smokeShape.serial + smokeShape.parallel + smokeShape.traced
			if rec.Attempted != want || rec.Failed != 0 {
				t.Errorf("operations: %d attempted, %d failed; want %d and 0\n%s", rec.Attempted, rec.Failed, want, log.String())
			}
			if rec.Fingerprint.OutcomeFNV != rec.ReferenceFNV {
				t.Errorf("outcome fnv %016x, reference %016x", rec.Fingerprint.OutcomeFNV, rec.ReferenceFNV)
			}
			checkNames(t, "end_to_end", endToEnd, rec.EndToEnd)
			checkNames(t, "per_layer", perLayer, rec.PerLayer)
			for name, m := range rec.EndToEnd {
				if !(m.Value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}

			if err := tr.checkSpans(); err != nil {
				t.Errorf("span tree: %v", err)
			}
			self, root := tr.selfTimes()
			for i := range self {
				sum := 0.0
				for _, x := range self[i] {
					sum += x
				}
				if math.Abs(sum-root[i]) > 0.01*root[i] {
					t.Errorf("traced sample %d: self times sum to %.6fs, the sample took %.6fs", i, sum, root[i])
				}
			}
			// The seven *_s layers are those self times under their
			// metric names, so they must tile the traced wall too.
			layerSum := 0.0
			for _, name := range []string{"workload.gen_s", "workload.driver_s", "rdd.narrow_s", "rdd.combine_s", "rdd.reduce_s", "exec.step_self_s", "exec.testbed_build_s"} {
				layerSum += rec.PerLayer[name].Value
			}
			if med := median(root); math.Abs(layerSum-med) > 0.05*med {
				t.Errorf("layer medians sum to %.6fs, the median traced sample took %.6fs", layerSum, med)
			}
		})
	}
}

func checkNames(t *testing.T, table string, defs []metricDef, got map[string]measurement) {
	t.Helper()
	var want, have []string
	for _, d := range defs {
		want = append(want, d.Name)
	}
	for name := range got {
		have = append(have, name)
	}
	sort.Strings(want)
	sort.Strings(have)
	if !reflect.DeepEqual(want, have) {
		t.Errorf("%s names differ:\n declared %v\n reported %v", table, want, have)
	}
}

// TestResultLine checks the last line of standard output against the
// driver's contract for both -trace values, and that a reduced-size
// record is flagged non-comparable.
func TestResultLine(t *testing.T) {
	for _, trace := range []int{0, 1} {
		var stdout bytes.Buffer
		out := t.TempDir() + "/record.json"
		o := options{seed: 3, seconds: 1, p: 2, trace: trace, small: true, shape: smokeShape, out: out, log: io.Discard}
		if code := benchmark(workloads[:1], o, &stdout); code != 0 {
			t.Fatalf("-trace %d: exit code %d", trace, code)
		}
		lines := bytes.Split(bytes.TrimSpace(stdout.Bytes()), []byte("\n"))
		var res result
		dec := json.NewDecoder(bytes.NewReader(lines[len(lines)-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&res); err != nil {
			t.Fatalf("-trace %d: last line is not the result object: %v", trace, err)
		}
		defs := endToEnd
		if trace == 1 {
			defs = perLayer
		}
		if !res.Correct || res.Attempted < 1 || res.Failed != 0 || len(res.Metrics) != len(defs) {
			t.Errorf("-trace %d: correct=%v attempted=%d failed=%d, %d metrics (want %d)", trace, res.Correct, res.Attempted, res.Failed, len(res.Metrics), len(defs))
		}
		for _, d := range defs {
			if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
				t.Errorf("-trace %d: metric %s missing or unit %q != %q", trace, d.Name, m.Unit, d.Unit)
			}
		}
		rec, err := readRecord(out)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Comparable {
			t.Errorf("-trace %d: a reduced-size record is marked comparable", trace)
		}
	}
}

func TestCompare(t *testing.T) {
	m := func(v, q1, q3 float64) measurement { return measurement{Value: v, Q1: q1, Q3: q3, N: 9} }
	base := map[string]measurement{}
	for _, d := range endToEnd {
		base[d.Name] = m(100, 99.5, 100.5)
	}
	with := func(name string, x measurement) map[string]measurement {
		out := map[string]measurement{}
		for k, v := range base {
			out[k] = v
		}
		out[name] = x
		return out
	}
	rec := func(seed int64, e2e map[string]measurement) record {
		return record{Seed: seed, Comparable: true, Workloads: []workloadRecord{{Name: "scan", Attempted: 14, EndToEnd: e2e}}}
	}
	cases := []struct {
		name    string
		new     record
		verdict string
		code    int
	}{
		{"identical", rec(1, base), "ok", 0},
		{"slower beyond bound", rec(1, with("rows_per_s", m(88, 87.5, 88.5))), "regressed", 1},
		{"slower within bound", rec(1, with("rows_per_s", m(95, 94.5, 95.5))), "ok", 0},
		{"noisy", rec(1, with("rows_per_s", m(88, 78, 98))), "unresolved", 0},
		{"virtual time moved, same seed", rec(1, with("virtual_makespan_s", m(100.001, 100.001, 100.001))), "regressed", 1},
		{"virtual time moved, other seed", rec(2, with("virtual_makespan_s", m(100.001, 100.001, 100.001))), "ok", 0},
	}
	for _, c := range cases {
		var out bytes.Buffer
		code := printComparison(rec(1, base), c.new, &out)
		if code != c.code {
			t.Errorf("%s: exit code %d, want %d\n%s", c.name, code, c.code, out.String())
		}
		if c.verdict != "ok" && !bytes.Contains(out.Bytes(), []byte("  "+c.verdict+"\n")) {
			t.Errorf("%s: no %q row\n%s", c.name, c.verdict, out.String())
		}
	}
}
