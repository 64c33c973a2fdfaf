package main

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// productPackages are the packages the benchmark may time. Everything
// else it imports must be the standard library.
var productPackages = map[string]bool{
	"armbarrier/barrier":              true,
	"armbarrier/omp":                  true,
	"armbarrier/obs":                  true,
	"armbarrier/fabric":               true,
	"armbarrier/hostlat":              true,
	"armbarrier/sim/algo":             true,
	"armbarrier/topology":             true,
	"armbarrier/internal/experiments": true,
	"armbarrier/internal/table":       true,
	"armbarrier/internal/pad":         true,
}

// fabricHarness names the fabric package's own benchmark harness, which
// the benchmark must not depend on.
var fabricHarness = map[string]bool{"RunBench": true, "BenchConfig": true, "BenchPoint": true}

// TestImportBoundary parses the benchmark's sources and checks that it
// reaches the repository only through product packages: never epcc,
// cmd/* or examples/*, and never the fabric package's own harness.
func TestImportBoundary(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no sources: %v", err)
	}
	fset := token.NewFileSet()
	for _, name := range files {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		fabricName := ""
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			first := strings.Split(path, "/")[0]
			switch {
			case path == "armbarrier/fabric":
				fabricName = "fabric"
				if imp.Name != nil {
					fabricName = imp.Name.Name
				}
			case first == "armbarrier" && !productPackages[path]:
				t.Errorf("%s imports %s, which is not a product package", name, path)
			case first != "armbarrier" && strings.Contains(first, "."):
				t.Errorf("%s imports %s from outside the repository", name, path)
			}
		}
		if fabricName == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == fabricName && fabricHarness[sel.Sel.Name] {
				t.Errorf("%s: uses fabric.%s", fset.Position(sel.Pos()), sel.Sel.Name)
			}
			return true
		})
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the metrics
// the program prints in step.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(workloadNames, ",") {
		t.Errorf("workloads %v, program has %v", names, workloadNames)
	}
	for _, c := range []struct {
		kind string
		spec []struct{ Name, Unit string }
		prog []metric
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.prog) {
			t.Errorf("%s: %d metrics in BENCHMARK.json, %d in the program", c.kind, len(c.spec), len(c.prog))
			continue
		}
		for i, m := range c.prog {
			if c.spec[i].Name != m.name || c.spec[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.kind, i, c.spec[i].Name, c.spec[i].Unit, m.name, m.unit)
			}
		}
	}
}

// TestWorkloadsReportEveryMetric runs each workload briefly, untraced
// and traced, and checks the outputs pass their oracles and every
// declared metric is reported.
func TestWorkloadsReportEveryMetric(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, _, err := run(w, 7, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := endToEnd
			if traced {
				want = perLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w, traced, len(res.Metrics), len(want))
			}
			if !traced {
				for name, v := range res.Metrics {
					if v.Value <= 0 {
						t.Errorf("%s: end-to-end %s = %v, want > 0", w, name, v.Value)
					}
				}
			}
		}
	}
}

func TestRodPassMatchesSerialReference(t *testing.T) {
	b, err := newBSP(3, true)
	if err != nil {
		t.Fatal(err)
	}
	defer b.close()
	ph, err := b.measure(int64(time.Millisecond), false)
	if err != nil {
		t.Fatal(err)
	}
	if ph.attempted != passSteps || ph.failed != 0 {
		t.Fatalf("attempted %d failed %d, want %d and 0", ph.attempted, ph.failed, passSteps)
	}
	// A corrupted reference must be caught.
	b.rod.want[len(b.rod.want)/2] += 1e-9
	ph, err = b.measure(int64(time.Millisecond), false)
	if err != nil {
		t.Fatal(err)
	}
	if ph.failed != passSteps {
		t.Fatalf("corrupted reference: failed %d, want %d", ph.failed, passSteps)
	}
}

func TestDiffCellsCountsEveryDifference(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	want := g["tab4"]
	cells, bad := diffCells(want, want)
	if bad != 0 || cells == 0 {
		t.Fatalf("identical tables: cells %d bad %d", cells, bad)
	}
	got := make([]goldenTable, len(want))
	copy(got, want)
	rows := make([][]string, len(want[0].Rows))
	for i, r := range want[0].Rows {
		rows[i] = append([]string(nil), r...)
	}
	rows[0][1] += "0"
	got[0].Rows = rows[:len(rows)-1] // one changed cell, one missing row
	_, bad = diffCells(want, got)
	if wantBad := 1 + len(want[0].Rows[len(rows)-1]); bad != wantBad {
		t.Fatalf("bad cells %d, want %d", bad, wantBad)
	}
}
