package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"armbarrier/internal/experiments"
	"armbarrier/internal/table"
	"armbarrier/sim/algo"
	"armbarrier/topology"
)

// paper-sim regenerates three of the paper's artifacts on the cache
// simulator at the default options and compares every cell with the
// golden tables, then runs fixed 64-thread probes whose operation
// counts must repeat exactly. The simulator is deterministic: the seed
// changes nothing here and is only recorded.
var paperArtifacts = []string{"fig7", "fig12", "tab4"}

var probeAlgos = []string{"gcc", "llvm", "optimized"}

const probeThreads = 64

//go:embed golden/paper.json
var goldenJSON []byte

// goldenTable is the comparable part of a table: title, header, cells.
type goldenTable struct {
	Title   string     `json:"title"`
	Columns []string   `json:"columns"`
	Rows    [][]string `json:"rows"`
}

func toGolden(tbs []*table.Table) []goldenTable {
	out := make([]goldenTable, len(tbs))
	for i, tb := range tbs {
		out[i] = goldenTable{Title: tb.Title, Columns: tb.Columns, Rows: tb.Rows}
	}
	return out
}

func loadGolden() (map[string][]goldenTable, error) {
	var g map[string][]goldenTable
	if err := json.Unmarshal(goldenJSON, &g); err != nil {
		return nil, fmt.Errorf("paper-sim: golden tables: %w", err)
	}
	for _, id := range paperArtifacts {
		if len(g[id]) == 0 {
			return nil, fmt.Errorf("paper-sim: golden tables lack %s", id)
		}
	}
	return g, nil
}

// writeGolden regenerates the golden tables from the current simulator.
func writeGolden(path string) error {
	g := map[string][]goldenTable{}
	for _, id := range paperArtifacts {
		e, err := experiments.ByID(id)
		if err != nil {
			return err
		}
		g[id] = toGolden(e.Run(experiments.Options{}))
	}
	data, err := json.MarshalIndent(g, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// diffCells counts the cells of got that differ from want, counting
// every cell of a missing or extra row, and the header and title as
// one cell each.
func diffCells(want, got []goldenTable) (cells, bad int) {
	for i := 0; i < max(len(want), len(got)); i++ {
		var w, g goldenTable
		if i < len(want) {
			w = want[i]
		}
		if i < len(got) {
			g = got[i]
		}
		cells += 2
		if w.Title != g.Title {
			bad++
		}
		if fmt.Sprint(w.Columns) != fmt.Sprint(g.Columns) {
			bad++
		}
		for r := 0; r < max(len(w.Rows), len(g.Rows)); r++ {
			var wr, gr []string
			if r < len(w.Rows) {
				wr = w.Rows[r]
			}
			if r < len(g.Rows) {
				gr = g.Rows[r]
			}
			for c := 0; c < max(len(wr), len(gr)); c++ {
				cells++
				if c >= len(wr) || c >= len(gr) || wr[c] != gr[c] {
					bad++
				}
			}
		}
	}
	return cells, bad
}

type probe struct {
	m       *topology.Machine
	name    string
	factory algo.Factory
}

type paperBench struct {
	golden map[string][]goldenTable
	runs   map[string]func(experiments.Options) []*table.Table
	probes []probe
	// memOps is the probes' operation count of the first pass; every
	// later pass must reproduce it.
	memOps uint64
}

func newPaperBench() (*paperBench, error) {
	g, err := loadGolden()
	if err != nil {
		return nil, err
	}
	b := &paperBench{golden: g, runs: map[string]func(experiments.Options) []*table.Table{}}
	for _, id := range paperArtifacts {
		e, err := experiments.ByID(id)
		if err != nil {
			return nil, err
		}
		b.runs[id] = e.Run
	}
	for _, m := range topology.ARMMachines() {
		for _, name := range probeAlgos {
			f, err := algo.ByName(name)
			if err != nil {
				return nil, err
			}
			b.probes = append(b.probes, probe{m: m, name: name, factory: f})
		}
	}
	return b, nil
}

func (b *paperBench) close() {}

func (b *paperBench) measure(d int64, traced bool) (phase, error) {
	var ph phase
	var steps, releases, passes, roundRates, opRates []float64
	perArtifact := map[string][]float64{}
	start := now()
	for now()-start < d || len(passes) == 0 {
		p0 := now()
		for _, id := range paperArtifacts {
			a := now()
			got := toGolden(b.runs[id](experiments.Options{}))
			t := now()
			cells, bad := diffCells(b.golden[id], got)
			ph.attempted += cells
			ph.failed += bad
			steps = append(steps, float64(t-a)/1e3)
			releases = append(releases, float64(t-p0)/1e3)
			perArtifact[id] = append(perArtifact[id], float64(t-a)/1e6)
		}
		passes = append(passes, float64(now()-p0)/1e9)

		q0 := now()
		var ops uint64
		var rounds int
		for _, pr := range b.probes {
			m, err := algo.MeasureDetailed(pr.m, probeThreads, pr.factory, algo.MeasureOptions{})
			if err != nil {
				return phase{}, fmt.Errorf("paper-sim: probe %s on %s: %w", pr.name, pr.m.Name, err)
			}
			ops += m.Stats.Loads + m.Stats.Stores + m.Stats.Atomics
			rounds += m.Episodes + m.Warmup
		}
		sec := float64(now()-q0) / 1e9
		ph.attempted++
		if b.memOps == 0 {
			b.memOps = ops
		} else if ops != b.memOps {
			ph.failed++
		}
		roundRates = append(roundRates, float64(rounds)/sec)
		opRates = append(opRates, float64(ops)/sec)
	}
	ph.e2e = map[string]float64{
		"step_p50_us":    quantileF(steps, 0.5),
		"step_p90_us":    quantileF(steps, 0.9),
		"release_p50_us": quantileF(releases, 0.5),
		"release_p90_us": quantileF(releases, 0.9),
		"rounds_per_s":   medianF(roundRates),
		"regen_s":        medianF(passes),
	}
	ph.primary = ph.e2e["regen_s"]
	if traced {
		ph.layer = map[string]float64{
			"sim.experiment_ms.fig7":  medianF(perArtifact["fig7"]),
			"sim.experiment_ms.fig12": medianF(perArtifact["fig12"]),
			"sim.experiment_ms.tab4":  medianF(perArtifact["tab4"]),
			"sim.mem_ops_per_s":       medianF(opRates),
			"sim.mem_ops":             float64(b.memOps),
		}
	}
	return ph, nil
}
