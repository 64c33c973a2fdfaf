package main

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"

	"armbarrier/barrier"
	"armbarrier/internal/pad"
	"armbarrier/obs"
	"armbarrier/omp"
)

// The bsp workloads relax a seeded 1-D rod with Jacobi steps on an
// omp team of P = GOMAXPROCS workers, one block of cells per worker
// per step. A pass runs passSteps steps from the seeded field; its
// final field must equal a serial Jacobi of the same rod bit for bit,
// and every fused residual must equal the serial sum up to float
// reassociation.
const (
	// cellsPerWorker is about one microsecond of relaxation per worker
	// per step on the reference host, so barrier and region costs are a
	// large share of a step, as in the EPCC regime the paper targets.
	cellsPerWorker = 1024
	passSteps      = 2048
	reduceEvery    = 16
	rotateEvery    = 256
	scrapeEvery    = 1024
	// skewNs is how long the straggler busy-waits on bsp-skewed after
	// relaxing its block: long enough that the master exhausts
	// SpinParkWait's spin budget (7 to 10 µs on the reference host,
	// depending on how long its scheduler yields take) and parks on
	// every step, short enough that it stays parked for only a few
	// wake-up latencies. It is a span of the clock rather than extra
	// relaxations, so the imbalance does not move with the host's speed.
	skewNs = 16_000
	// residualTol bounds the relative difference between the fused
	// residual (tree-combined) and the serial sum (left to right).
	residualTol = 1e-12
)

// rod is one seeded input field and its serial reference results.
type rod struct {
	init      []float64
	want      []float64 // field after passSteps serial steps
	residuals []float64 // serial residual of every reduceEvery-th step
	straggler []int     // bsp-skewed: which block lags on each step
}

func newRod(seed int64, p int) *rod {
	rng := rand.New(rand.NewSource(seed))
	n := cellsPerWorker * p
	r := &rod{init: make([]float64, n)}
	for i := range r.init {
		r.init[i] = rng.Float64()
	}
	// Rotating straggler: a seeded permutation of the workers' blocks,
	// cycled. Block 0 is the master's and never lags, so every step has
	// one shape (the master waits out the straggler at the join) and the
	// step quantiles do not straddle two.
	perm := rng.Perm(p - 1)
	r.straggler = make([]int, passSteps)
	for s := range r.straggler {
		r.straggler[s] = 1 + perm[s%(p-1)]
	}
	cur := append([]float64(nil), r.init...)
	next := make([]float64, n)
	for s := 0; s < passSteps; s++ {
		relax(next, cur, 0, n)
		if (s+1)%reduceEvery == 0 {
			r.residuals = append(r.residuals, residual(next, cur, 0, n))
		}
		cur, next = next, cur
	}
	r.want = cur
	return r
}

// relax computes cells [lo, hi) of one explicit heat-equation step;
// the two end cells of the rod are held fixed.
func relax(dst, src []float64, lo, hi int) {
	n := len(src)
	if lo == 0 {
		dst[0] = src[0]
		lo = 1
	}
	if hi == n {
		dst[n-1] = src[n-1]
		hi = n - 1
	}
	if lo >= hi {
		return
	}
	l, c, r, d := src[lo-1:hi-1], src[lo:hi], src[lo+1:hi+1], dst[lo:hi]
	for i := range d {
		d[i] = c[i] + 0.25*(l[i]-2*c[i]+r[i])
	}
}

func residual(dst, src []float64, lo, hi int) float64 {
	var sum float64
	for i := lo; i < hi; i++ {
		d := dst[i] - src[i]
		sum += d * d
	}
	return sum
}

func blockOf(n, p, c int) (lo, hi int) { return c * n / p, (c + 1) * n / p }

type blockStamp struct{ start, end int64 }

// bspStack is one team and the barrier stack under it.
type bspStack struct {
	team   *omp.Team
	ins    *obs.Instrumented // nil on bsp-skewed
	stream *obs.Stream
	timed  *timedBarrier // traced runs only
}

func newBSPStack(p int, skewed, traced bool) (*bspStack, error) {
	var opts []barrier.Option
	if skewed {
		opts = append(opts, barrier.WithWaitPolicy(barrier.SpinParkWait()))
	}
	st := &bspStack{}
	var b barrier.Barrier = barrier.New(p, opts...)
	if traced {
		tb, err := newTimed(b)
		if err != nil {
			return nil, err
		}
		if skewed {
			tb.EnableSpinCounts() // obs turns them on for bsp-fine
		}
		st.timed, b = tb, tb
	}
	if !skewed {
		st.ins = obs.Instrument(b, obs.Options{})
		st.stream = obs.NewStream(st.ins, obs.StreamOptions{})
		b = st.ins.Collective()
	}
	team, err := omp.NewTeam(p, b)
	if err != nil {
		return nil, err
	}
	st.team = team
	return st, nil
}

func (st *bspStack) close() { st.team.Close() }

type bspBench struct {
	skewed bool
	p      int
	rod    *rod
	stack  *bspStack // the untraced stack built during set-up
}

func newBSP(seed int64, skewed bool) (*bspBench, error) {
	p := runtime.GOMAXPROCS(0)
	stack, err := newBSPStack(p, skewed, false)
	if err != nil {
		return nil, err
	}
	return &bspBench{skewed: skewed, p: p, rod: newRod(seed, p), stack: stack}, nil
}

func (b *bspBench) close() { b.stack.close() }

// bspRun is the state of one measured interval.
type bspRun struct {
	b      *bspBench
	st     *bspStack
	traced bool

	cur, next []float64
	step      int
	stamps    []pad.Padded[blockStamp]
	forBody   func(c, tid int)
	redBody   func(c int) float64

	steps, releases   windowed // one window per pass
	passSec           []float64
	attempted, failed int

	// traced only
	forNs, reduceNs, overheadNs, forkNs, bodyNs *samples
	relNs, skewNs                               *samples
	rotateNs, scrapeNs, scrapeBytes             *samples
	episodesDone                                uint64
}

func (b *bspBench) measure(d int64, traced bool) (phase, error) {
	st := b.stack
	if traced {
		var err error
		if st, err = newBSPStack(b.p, b.skewed, true); err != nil {
			return phase{}, err
		}
		defer st.close()
	}
	n := len(b.rod.init)
	r := &bspRun{b: b, st: st, traced: traced,
		cur: append([]float64(nil), b.rod.init...), next: make([]float64, n),
		stamps: make([]pad.Padded[blockStamp], b.p),
	}
	if traced {
		for _, s := range []**samples{&r.forNs, &r.reduceNs, &r.overheadNs, &r.forkNs, &r.bodyNs,
			&r.relNs, &r.skewNs, &r.rotateNs, &r.scrapeNs, &r.scrapeBytes} {
			*s = newSamples(layerSamples)
		}
	}
	r.forBody = func(c, _ int) { r.block(c) }
	r.redBody = func(c int) float64 {
		lo, hi := r.block(c)
		return residual(r.next, r.cur, lo, hi)
	}
	var sp0, y0, pk0, w0 uint64
	if traced {
		sp0, y0, pk0, w0 = st.timed.counts()
	}
	var prom bytes.Buffer
	start := now()
	for now()-start < d {
		p0 := now()
		for r.step = 0; r.step < passSteps; r.step++ {
			r.oneStep(&prom)
		}
		r.passSec = append(r.passSec, float64(now()-p0)/1e9)
		r.steps.summarize()
		r.releases.summarize()
		r.attempted += passSteps
		if !sameBits(r.cur, b.rod.want) {
			r.failed += passSteps
		}
		copy(r.cur, b.rod.init)
	}
	ph := phase{attempted: r.attempted, failed: r.failed}
	pass := quietF(r.passSec)
	stepP50, stepP90 := r.steps.quantilesUs(quietQuantile)
	relP50, relP90 := r.releases.quantilesUs(b.releaseAcross())
	ph.e2e = map[string]float64{
		"step_p50_us":    stepP50,
		"step_p90_us":    stepP90,
		"release_p50_us": relP50,
		"release_p90_us": relP90,
		"rounds_per_s":   passSteps / pass,
		"regen_s":        pass,
	}
	ph.primary = ph.e2e["step_p50_us"]
	if !traced {
		return ph, nil
	}
	episodes := st.timed.masterEpisodes()
	st.close() // orders every worker's recorded durations before the reads below
	sp, y, pk, w := st.timed.counts()
	waits, allreduces := st.timed.results()
	calls := float64(episodes) * float64(b.p)
	ph.layer = map[string]float64{
		"barrier.wait_p50_ns":     waits.quantile(0.5),
		"barrier.wait_p90_ns":     waits.quantile(0.9),
		"barrier.release_ns":      r.relNs.median(),
		"barrier.allreduce_ns":    allreduces.median(),
		"barrier.polls_per_wait":  float64(sp-sp0) / calls,
		"barrier.yields_per_wait": float64(y-y0) / calls,
		"barrier.parks_per_wait":  float64(pk-pk0) / calls,
		"barrier.wakes_per_wait":  float64(w-w0) / calls,
		"barrier.arrival_skew_ns": r.skewNs.median(),
		"omp.for_ns":              r.forNs.median(),
		"omp.region_overhead_ns":  r.overheadNs.median(),
		"omp.fork_ns":             r.forkNs.median(),
		"omp.reduce_ns":           r.reduceNs.median(),
		"omp.body_ns":             r.bodyNs.median(),
		"obs.rotate_ns":           r.rotateNs.median(),
		"obs.scrape_ns":           r.scrapeNs.median(),
		"obs.scrape_bytes":        r.scrapeBytes.median(),
	}
	return ph, nil
}

// releaseAcross picks the release window a run reports. On bsp-skewed
// the release is the parked master's wake-up, which has a fast mode at
// about half the usual hand-off time. Some runs spend a tenth or more
// of their windows in it and others none, so the quiet tenth would
// report whichever mode a run happened to get; bsp-skewed reports the
// median window instead.
func (b *bspBench) releaseAcross() float64 {
	if b.skewed {
		return 0.5
	}
	return quietQuantile
}

// block relaxes block c of the current step, plus the straggler's
// extra work on bsp-skewed, and stamps its start and end.
func (r *bspRun) block(c int) (lo, hi int) {
	s := &r.stamps[c].V
	if r.traced {
		s.start = now()
	}
	lo, hi = blockOf(len(r.cur), r.b.p, c)
	relax(r.next, r.cur, lo, hi)
	if r.b.skewed && r.b.rod.straggler[r.step] == c {
		for until := now() + skewNs; now() < until; {
		}
	}
	s.end = now()
	return lo, hi
}

// oneStep runs step r.step from the master: the obs rotation and
// scrape when due, then one region. Its span is the step time.
func (r *bspRun) oneStep(prom *bytes.Buffer) {
	st := r.st
	t0 := now()
	if st.ins != nil {
		if r.step%rotateEvery == rotateEvery-1 {
			a := now()
			st.stream.Rotate()
			if r.traced {
				r.rotateNs.add(now() - a)
			}
		}
		if r.step%scrapeEvery == scrapeEvery-1 {
			a := now()
			prom.Reset()
			if err := obs.WritePrometheus(prom, st.ins.Snapshot()); err != nil {
				r.failed++
			}
			if r.traced {
				r.scrapeNs.add(now() - a)
				r.scrapeBytes.add(int64(prom.Len()))
			}
		}
	}
	call := now()
	reduce := (r.step+1)%reduceEvery == 0
	if reduce {
		got := st.team.ReduceFloat64(r.b.p, 0, r.redBody)
		want := r.b.rod.residuals[r.step/reduceEvery]
		if math.Abs(got-want) > residualTol*math.Max(want, 1e-300) {
			r.failed++
		}
	} else {
		st.team.For(r.b.p, r.forBody)
	}
	t1 := now()
	r.steps.add(t1 - t0)
	// Per step, the fork is the latest body start and the body the
	// slowest: the parts of the region the master had to wait for.
	var lastEnd, maxBody, maxFork int64
	for c := range r.stamps {
		s := r.stamps[c].V
		lastEnd = max(lastEnd, s.end)
		maxBody = max(maxBody, s.end-s.start)
		maxFork = max(maxFork, s.start-call)
	}
	r.releases.add(t1 - lastEnd)
	r.cur, r.next = r.next, r.cur
	if !r.traced {
		return
	}
	r.forkNs.add(maxFork)
	r.bodyNs.add(maxBody)
	if reduce {
		r.reduceNs.add(t1 - call)
	} else {
		r.forNs.add(t1 - call)
		r.overheadNs.add(t1 - call - maxBody)
	}
	// Each region is a fork episode (even) and a join episode (odd);
	// release and skew are the join's, where the imbalance lands.
	tb := st.timed
	for last := tb.masterEpisodes() - 1; r.episodesDone < last; r.episodesDone++ {
		if r.episodesDone%2 == 1 {
			rel, skew := tb.episodeSpan(r.episodesDone)
			r.relNs.add(rel)
			r.skewNs.add(skew)
		}
	}
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}
