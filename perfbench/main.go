// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output against an oracle,
// and prints the end-to-end metrics (untraced run) or the per-layer
// metrics (traced run) as the last line of standard output:
//
//	go run . --workload bsp-fine --seed 1 --seconds 10 --trace 0
//
// It times calls into the public functions of barrier, omp, obs,
// fabric, hostlat, sim/algo and internal/experiments from outside;
// see README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"

	"armbarrier/hostlat"
)

// metric is one reported quantity with its unit.
type metric struct{ name, unit string }

// endToEnd lists the untraced run's metrics; every workload reports
// every one (README.md says what each means per workload).
var endToEnd = []metric{
	{"setup_s", "s"},
	{"mem_mb", "MB"},
	{"step_p50_us", "us"},
	{"step_p90_us", "us"},
	{"release_p50_us", "us"},
	{"release_p90_us", "us"},
	{"rounds_per_s", "1/s"},
	{"regen_s", "s"},
}

// perLayer lists the traced run's metrics. A layer a workload does not
// call reports 0.
var perLayer = []metric{
	{"failed_frac", "ratio"},
	{"trace_overhead_pct", "%"},
	{"hostlat.hop_ns", "ns"},
	{"hostlat.local_ns", "ns"},
	{"barrier.wait_p50_ns", "ns"},
	{"barrier.wait_p90_ns", "ns"},
	{"barrier.release_ns", "ns"},
	{"barrier.allreduce_ns", "ns"},
	{"barrier.polls_per_wait", "count"},
	{"barrier.yields_per_wait", "count"},
	{"barrier.parks_per_wait", "count"},
	{"barrier.wakes_per_wait", "count"},
	{"barrier.arrival_skew_ns", "ns"},
	{"omp.for_ns", "ns"},
	{"omp.region_overhead_ns", "ns"},
	{"omp.fork_ns", "ns"},
	{"omp.reduce_ns", "ns"},
	{"omp.body_ns", "ns"},
	{"obs.rotate_ns", "ns"},
	{"obs.scrape_ns", "ns"},
	{"obs.scrape_bytes", "bytes"},
	{"fabric.arrive_ns", "ns"},
	{"fabric.last_arrive_ns", "ns"},
	{"fabric.release_ns", "ns"},
	{"fabric.resize_ns", "ns"},
	{"fabric.snapshot_ns", "ns"},
	{"fabric.group_ns", "ns"},
	{"fabric.backlog_max", "count"},
	{"fabric.gen_late_p99_us", "us"},
	{"sim.experiment_ms.fig7", "ms"},
	{"sim.experiment_ms.fig12", "ms"},
	{"sim.experiment_ms.tab4", "ms"},
	{"sim.mem_ops_per_s", "1/s"},
	{"sim.mem_ops", "count"},
}

var workloadNames = []string{"bsp-fine", "bsp-skewed", "fabric-open", "paper-sim"}

// bench is one workload instance, built during set-up.
type bench interface {
	// measure runs the workload for d nanoseconds, traced or not.
	measure(d int64, traced bool) (phase, error)
	close()
}

// phase is what one measured interval produced.
type phase struct {
	e2e, layer        map[string]float64
	attempted, failed int
	// primary is the workload's headline latency, compared between the
	// untraced and traced halves of a traced run.
	primary float64
}

func build(workload string, seed int64) (bench, error) {
	switch workload {
	case "bsp-fine":
		return newBSP(seed, false)
	case "bsp-skewed":
		return newBSP(seed, true)
	case "fabric-open":
		return newFabricBench(seed)
	case "paper-sim":
		return newPaperBench()
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", workload, workloadNames)
}

// setupRepeats is how many times a run builds its workload; setup_s is
// the median, and only the last build is measured.
const setupRepeats = 25

type hostProbe struct{ hopNs, localNs float64 }

// probeHost prices the L0 layer: one cross-core hop and one
// L1-resident load. It is sized to a millisecond or so, so set-up time
// stays mostly the workload's own construction.
func probeHost() (hostProbe, error) {
	hop, err := hostlat.PingPong(5000)
	if err != nil {
		return hostProbe{}, err
	}
	return hostProbe{hopNs: hop, localNs: hostlat.LocalAccess(1 << 16)}, nil
}

// setUp builds the workload setupRepeats times, each time with a fresh
// host-latency probe, and keeps the last build.
func setUp(workload string, seed int64) (bench, hostProbe, float64, error) {
	var secs, hops, locals []float64
	var b bench
	for i := 0; i < setupRepeats; i++ {
		if b != nil {
			b.close()
		}
		t0 := now()
		hp, err := probeHost()
		if err != nil {
			return nil, hostProbe{}, 0, err
		}
		if b, err = build(workload, seed); err != nil {
			return nil, hostProbe{}, 0, err
		}
		secs = append(secs, float64(now()-t0)/1e9)
		hops, locals = append(hops, hp.hopNs), append(locals, hp.localNs)
	}
	return b, hostProbe{hopNs: medianF(hops), localNs: medianF(locals)}, medianF(secs), nil
}

type result struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]valueWithUnit `json:"metrics"`
}

type valueWithUnit struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func memMB() float64 {
	s := []metrics.Sample{{Name: "/memory/classes/total:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

func run(workload string, seed int64, seconds int, traced bool) (result, map[string]any, error) {
	host := map[string]any{
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"seed": seed, "workload": workload, "seconds": seconds, "trace": traced,
	}
	if runtime.GOMAXPROCS(0) < 2 {
		return result{}, host, errors.New("GOMAXPROCS < 2: single-P numbers are not evidence for a parallel barrier")
	}
	b, hp, setupS, err := setUp(workload, seed)
	if err != nil {
		return result{}, host, err
	}
	defer b.close()
	host["hostlat.hop_ns"], host["hostlat.local_ns"] = hp.hopNs, hp.localNs

	d := int64(seconds) * int64(time.Second)
	vals := map[string]float64{}
	var attempted, failed int
	if !traced {
		ph, err := b.measure(d, false)
		if err != nil {
			return result{}, host, err
		}
		attempted, failed = ph.attempted, ph.failed
		for k, v := range ph.e2e {
			vals[k] = v
		}
		vals["setup_s"] = setupS
		vals["mem_mb"] = memMB()
	} else {
		// The untraced half is the baseline the tracing overhead is
		// measured against; the traced half gives the layer numbers.
		base, err := b.measure(d/2, false)
		if err != nil {
			return result{}, host, err
		}
		ph, err := b.measure(d/2, true)
		if err != nil {
			return result{}, host, err
		}
		attempted, failed = base.attempted+ph.attempted, base.failed+ph.failed
		for k, v := range ph.layer {
			vals[k] = v
		}
		vals["hostlat.hop_ns"], vals["hostlat.local_ns"] = hp.hopNs, hp.localNs
		vals["failed_frac"] = float64(failed) / float64(max(attempted, 1))
		if base.primary > 0 {
			vals["trace_overhead_pct"] = 100 * (ph.primary/base.primary - 1)
		}
	}
	list := endToEnd
	if traced {
		list = perLayer
	}
	res := result{Attempted: attempted, Failed: failed, Correct: failed == 0 && attempted > 0,
		Metrics: map[string]valueWithUnit{}}
	for _, m := range list {
		res.Metrics[m.name] = valueWithUnit{Value: vals[m.name], Unit: m.unit}
		delete(vals, m.name)
	}
	if len(vals) > 0 {
		extra := make([]string, 0, len(vals))
		for k := range vals {
			extra = append(extra, k)
		}
		sort.Strings(extra)
		return result{}, host, fmt.Errorf("workload reported undeclared metrics %v", extra)
	}
	return res, host, nil
}

func main() {
	workload := flag.String("workload", "", "workload: bsp-fine, bsp-skewed, fabric-open or paper-sim")
	seed := flag.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := flag.Int("seconds", 10, "how long to measure")
	trace := flag.Int("trace", 0, "1 for the traced run (per-layer metrics), 0 for end-to-end metrics")
	goldenOut := flag.String("write-golden", "", "regenerate paper-sim's golden tables into this file and exit")
	flag.Parse()
	if *goldenOut != "" {
		if err := writeGolden(*goldenOut); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	res, host, err := run(*workload, *seed, *seconds, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(map[string]any{"host": host}); err != nil {
		os.Exit(1)
	}
	if err := enc.Encode(res); err != nil {
		os.Exit(1)
	}
}
