package main

import (
	"encoding/csv"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"flint/internal/experiments"
)

func TestNamesCoverAllExperiments(t *testing.T) {
	want := []string{"fig2", "fig3", "fig4", "fig6", "fig7", "fig8", "fig9", "fig10", "fig11", "portfolio", "ablations", "detbench", "chaosbench", "serverless"}
	got := names()
	if len(got) != len(want) {
		t.Fatalf("names = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names = %v", got)
		}
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run(io.Discard, "fig99", 1, 0, 8, 16, "", experiments.ChaosbenchOpts{})
	if err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("err = %v", err)
	}
}

func TestRunFastExperiments(t *testing.T) {
	for _, name := range []string{"fig2", "fig4"} {
		if err := run(io.Discard, name, 1, 2, 6, 16, "", experiments.ChaosbenchOpts{}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestRunWithCSVExport(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, "fig2", 1, 2, 6, 16, dir, experiments.ChaosbenchOpts{}); err != nil {
		t.Fatal(err)
	}
}

// TestRunDetbench exercises the determinism scenarios end to end at a
// small scale: the diffable CSV (one row per scenario, no wall-clock
// columns) and one filtered Prometheus dump per CSV row.
func TestRunDetbench(t *testing.T) {
	dir := t.TempDir()
	if err := run(io.Discard, "detbench", 0.2, 0, 8, 16, dir, experiments.ChaosbenchOpts{}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(filepath.Join(dir, "detbench.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) < 2 {
		t.Fatalf("detbench.csv has no scenario rows: %v", recs)
	}
	for _, col := range recs[0] {
		if strings.Contains(col, "wall") {
			t.Fatalf("detbench.csv must not carry wall-clock columns: %v", recs[0])
		}
	}
	for _, row := range recs[1:] {
		if v, err := strconv.ParseFloat(row[1], 64); err != nil || v <= 0 {
			t.Fatalf("scenario %s: virtual_s = %q", row[0], row[1])
		}
		p := filepath.Join(dir, "detbench_"+row[0]+"_metrics.prom")
		text, err := os.ReadFile(p)
		if err != nil {
			t.Fatalf("scenario %s has no prom dump: %v", row[0], err)
		}
		if strings.Contains(string(text), "flint_exec_") {
			t.Fatalf("%s leaks nondeterministic flint_exec_ metrics", p)
		}
	}
	proms, err := filepath.Glob(filepath.Join(dir, "detbench_*_metrics.prom"))
	if err != nil || len(proms) != len(recs)-1 {
		t.Fatalf("prom dumps = %v (err %v), want one per CSV row", proms, err)
	}
}

// TestRunChaosbench exercises the chaos matrix through the CLI
// dispatcher at a tiny scale: a clean cell succeeds and exports CSV.
func TestRunChaosbench(t *testing.T) {
	dir := t.TempDir()
	opts := experiments.ChaosbenchOpts{Seeds: []int64{1}, Profiles: []string{"straggler"}}
	if err := run(io.Discard, "chaosbench", 0.15, 0, 8, 16, dir, opts); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "chaosbench.csv")); err != nil {
		t.Fatalf("chaosbench.csv not exported: %v", err)
	}
}
