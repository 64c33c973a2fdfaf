package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"

	"armbarrier/fabric"
)

// fabric-open: one fabric holding fixedGroups groups of groupP plus one
// elastic group per elasticEvery fixed ones, resized between its
// rounds. One generator cycles over the groups in a seeded order and
// issues each round's arrivals at one scheduled instant: at a fixed
// offered rate (the open loop), and back to back with at most window
// rounds in flight (the saturation loop), in turns.
const (
	fixedGroups  = 1024
	groupP       = 4
	elasticEvery = 8
	minElastic   = 2
	maxElastic   = 6
	// offeredRate is in rounds per second, well under what one
	// generator saturates at on the reference host, so the open loop
	// measures latency without a growing backlog.
	offeredRate = 50_000
	window      = 256
	// snapshotEvery is the rounds between the generator's
	// Fabric.Snapshot calls, a dashboard scrape every third of a second
	// at the offered rate. A scrape stalls the generator for about a
	// millisecond, so it lands in the latency tail of the window it
	// falls in.
	snapshotEvery = 16384
	// A run alternates the open loop and the saturation loop slices
	// times, spending openShare of each slice in the open loop. On a
	// shared host the speed of the virtual CPUs drifts over seconds, and
	// a loop that ran in one stretch would report whatever state the
	// host was in then; spread over the whole run, each loop sees the
	// same mix of states as the other.
	slices    = 5
	openShare = 0.55
)

type fabricBench struct {
	f       *fabric.Fabric
	groups  []*fabric.Group
	elastic []bool
	order   []int    // seeded round-robin order over groups
	rounds  []uint64 // next round index per group (generator only)
	sizes   *rand.Rand
	cursor  int
	issued  uint64 // rounds issued so far
	groupNs *samples
}

func newFabricBench(seed int64) (*fabricBench, error) {
	rng := rand.New(rand.NewSource(seed))
	b := &fabricBench{f: fabric.New(fabric.Config{}), groupNs: newSamples(4096)}
	total := fixedGroups + fixedGroups/elasticEvery
	for i := 0; i < total; i++ {
		elastic := i >= fixedGroups
		t0 := now()
		g, err := b.f.Group(fmt.Sprintf("g%05d", i), fabric.GroupConfig{Participants: groupP, Elastic: elastic})
		b.groupNs.add(now() - t0)
		if err != nil {
			b.f.Close()
			return nil, err
		}
		b.groups = append(b.groups, g)
		b.elastic = append(b.elastic, elastic)
	}
	b.order = rng.Perm(total)
	b.rounds = make([]uint64, total)
	b.sizes = rand.New(rand.NewSource(rng.Int63()))
	return b, nil
}

func (b *fabricBench) close() { b.f.Close() }

// fabricRun is the generator-side state of one measured interval.
type fabricRun struct {
	b                    *fabricBench
	traced               bool
	failed               int
	steps                *samples // generator time to issue one round
	arriveNs, lastNs     *samples
	resizeNs, snapshotNs *samples
	sweepStart           []int64
}

func (r *fabricRun) issue(t *ticket) {
	b := r.b
	idx := b.order[b.cursor%len(b.order)]
	if b.cursor%len(b.order) == 0 {
		r.sweepStart = append(r.sweepStart, t.issued)
	}
	b.cursor++
	g := b.groups[idx]
	t.n = groupP
	if b.elastic[idx] {
		t.n = minElastic + b.sizes.Intn(maxElastic-minElastic+1)
		a := now()
		if err := g.Resize(t.n); err != nil {
			r.failed++
		}
		if r.traced {
			r.resizeNs.add(now() - a)
		}
	}
	t.round = b.rounds[idx]
	b.rounds[idx]++
	ctx := context.Background()
	for k := 0; k < t.n; k++ {
		a := now()
		t.outs[k] = g.Arrive(ctx)
		if r.traced {
			if k == t.n-1 {
				r.lastNs.add(now() - a)
			} else {
				r.arriveNs.add(now() - a)
			}
		}
	}
	t.lastRet = now()
	r.steps.add(t.lastRet - t.issued)
	b.issued++
	if b.issued%snapshotEvery == 0 {
		a := now()
		b.f.Snapshot(false)
		if r.traced {
			r.snapshotNs.add(now() - a)
		}
	}
}

func check(t *ticket, o fabric.Outcome) bool { return o.Err == nil && o.Round == t.round }

func (b *fabricBench) measure(d int64, traced bool) (phase, error) {
	r := &fabricRun{b: b, traced: traced, steps: newSamples(1 << 19)}
	for _, s := range []**samples{&r.arriveNs, &r.lastNs, &r.resizeNs, &r.snapshotNs} {
		*s = newSamples(layerSamples)
	}
	receivers := max(1, runtime.GOMAXPROCS(0)-1)
	openSteps, satSteps := r.steps, newSamples(1<<16)
	var open loopStats
	var sweeps []float64
	var satOutcomes, satBad int
	start := now()
	for i := int64(0); i < slices; i++ {
		from, to := start+d*i/slices, start+d*(i+1)/slices
		r.steps = openSteps
		open.fold(runLoop(loopConfig{interval: int64(1e9 / offeredRate), receivers: receivers,
			deadline: from + int64(float64(to-from)*openShare)}, r.issue, check))
		r.steps, r.sweepStart = satSteps, nil
		sat := runLoop(loopConfig{window: window, receivers: receivers, deadline: to}, r.issue, check)
		satOutcomes, satBad = satOutcomes+sat.outcomes, satBad+sat.bad
		for j := 1; j < len(r.sweepStart); j++ {
			sweeps = append(sweeps, float64(r.sweepStart[j]-r.sweepStart[j-1])/1e9)
		}
	}

	ph := phase{attempted: open.outcomes + satOutcomes, failed: open.bad + satBad + r.failed}
	if got := b.f.Snapshot(false).TotalRounds; got != b.issued {
		ph.failed += int(max(got, b.issued) - min(got, b.issued))
	}
	if len(sweeps) == 0 {
		return phase{}, fmt.Errorf("fabric: saturation loop completed no sweep of the %d groups", len(b.groups))
	}
	// A sweep already spans 1152 rounds and a stall overlaps few of the
	// thousands a run makes, so the median sweep is steady as it is.
	sweep := medianF(sweeps)
	relP50, relP90 := open.windows.quantilesUs(quietQuantile)
	ph.e2e = map[string]float64{
		"step_p50_us":    openSteps.quantile(0.5) / 1e3,
		"step_p90_us":    openSteps.quantile(0.9) / 1e3,
		"release_p50_us": relP50,
		"release_p90_us": relP90,
		"rounds_per_s":   float64(len(b.groups)) / sweep,
		"regen_s":        sweep,
	}
	ph.primary = ph.e2e["release_p50_us"]
	if traced {
		ph.layer = map[string]float64{
			"fabric.arrive_ns":       r.arriveNs.median(),
			"fabric.last_arrive_ns":  r.lastNs.median(),
			"fabric.release_ns":      open.stage.median(),
			"fabric.resize_ns":       r.resizeNs.median(),
			"fabric.snapshot_ns":     r.snapshotNs.median(),
			"fabric.group_ns":        b.groupNs.median(),
			"fabric.backlog_max":     float64(open.backlogMax),
			"fabric.gen_late_p99_us": open.late.quantile(0.99) / 1e3,
		}
	}
	return ph, nil
}
