package experiments

import (
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestDetbenchGolden pins every diffable detbench field at scale 1 —
// virtual makespan to 17 significant digits, task/kill/recompute counts,
// outcome and trace FNVs — against the committed testdata/detbench.csv.
// Any change to a kernel's output, a scheduler decision or a virtual-time
// charge moves at least one field. A deliberate change pastes the fresh
// CSV printed on failure into the testdata file.
func TestDetbenchGolden(t *testing.T) {
	res, err := Detbench(io.Discard, 1)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := res.WriteCSV(dir); err != nil {
		t.Fatal(err)
	}
	fresh, err := os.ReadFile(filepath.Join(dir, "detbench.csv"))
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "detbench.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if string(fresh) != string(golden) {
		t.Errorf("detbench.csv differs from testdata/detbench.csv\nfresh:\n%s\ngolden:\n%s", fresh, golden)
	}
}
