// Flight recorder for real barrier episodes. Where Instrumented keeps
// aggregates (histograms, skew), Tracer additionally captures the full
// per-participant timeline — an (arrive_ns, release_ns) pair per
// participant — of *interesting* rounds: a trigger policy promotes a
// round to a kept Episode only when its arrival skew or worst wait
// crosses a threshold (absolute, or a trailing quantile of the skew
// histogram). Steady state therefore pays only two extra atomic stores
// per sampled Wait into a single-writer ring, staying inside the same
// <10% overhead envelope obs/overhead_test.go enforces for Instrument.
//
// Captured episodes export as text Gantt charts (Episode.Gantt, the
// same renderer the simulator uses), Chrome trace-event JSON for
// Perfetto/chrome://tracing (WriteChromeTrace), a live HTTP endpoint
// (EpisodesHandler), and a straggler-attribution report (Stragglers).
// With TraceOptions.RuntimeTrace the sampled Waits also emit
// runtime/trace regions so episodes line up with Go execution traces.
package obs

import (
	"context"
	"math"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"armbarrier/barrier"
	"armbarrier/internal/lanes"
)

// DefaultSkewQuantile is the trigger armed when TraceOptions sets no
// threshold at all: capture rounds whose arrival skew exceeds the
// trailing 99th percentile.
const DefaultSkewQuantile = 0.99

// DefaultMaxEpisodes bounds the kept episodes when TraceOptions does
// not: the worst episodes by SeverityNs are retained.
const DefaultMaxEpisodes = 16

const (
	// ringRounds is the per-participant ring capacity in sampled
	// rounds, a power of two so a round maps to its slot by masking.
	// It keeps the promotion read (one round after the stamps) far
	// ahead of ring reuse even at SampleEvery 1.
	ringRounds = 64
	ringMask   = ringRounds - 1
	// quantileMinRounds is the warm-up before the trailing-quantile
	// trigger arms: too few skew rounds make the quantile meaningless.
	quantileMinRounds = 32
	// quantileRecalcEvery is how many new skew rounds elapse between
	// recomputations of the cached quantile threshold.
	quantileRecalcEvery = 16
)

// TraceOptions configures Trace. The zero value samples like
// Instrument, arms the DefaultSkewQuantile trigger, and keeps
// DefaultMaxEpisodes episodes.
type TraceOptions struct {
	Options

	// SkewThresholdNs captures any round whose arrival skew
	// (last minus first arrival) is at least this. 0 disables.
	SkewThresholdNs int64
	// SkewQuantile captures rounds whose arrival skew exceeds this
	// trailing quantile (in (0,1)) of the skew histogram so far; it
	// arms after quantileMinRounds sampled rounds. 0 disables. When no
	// trigger field is set at all, DefaultSkewQuantile is armed.
	SkewQuantile float64
	// MaxWaitThresholdNs captures any round where some participant's
	// Wait latency is at least this. 0 disables.
	MaxWaitThresholdNs int64
	// MaxEpisodes bounds the kept episodes (default DefaultMaxEpisodes);
	// when full, a new capture evicts the least severe kept episode.
	MaxEpisodes int
	// RuntimeTrace emits a runtime/trace region around each sampled
	// Wait (under a task named after the barrier) whenever a Go
	// execution trace is being collected, so captured episodes line up
	// with `go tool trace` timelines.
	RuntimeTrace bool
}

// traceSlot is one sampled round's stamps for one participant. Written
// only by the owning participant; read by participant 0 one round
// later, after the barrier has ordered the writes before the read.
// marks is allocated only with Options.Phases and carries the round's
// phase probe events under the same single-writer discipline.
type traceSlot struct {
	arrive  atomic.Int64
	release atomic.Int64
	nmarks  atomic.Uint32
	marks   []traceMark
}

// traceMark is one phase probe event in a ring slot: timestamp plus
// phase and level packed into meta (phase<<16 | level). Atomics for
// the same race-detector cleanliness as the arrive/release stamps.
type traceMark struct {
	at   atomic.Int64
	meta atomic.Uint32
}

// traceRegion lets Instrumented.wait end a runtime/trace region
// without caring whether one was started.
type traceRegion struct{ r *trace.Region }

func (tr traceRegion) end() {
	if tr.r != nil {
		tr.r.End()
	}
}

// Tracer is an Instrumented barrier with a triggered flight recorder
// attached. It implements barrier.Barrier; all Instrumented methods
// (Snapshot, MetricsHandler, ...) are promoted. Use exactly like the
// wrapped barrier, then read Episodes.
type Tracer struct {
	*Instrumented

	// rings[id] is participant id's single-writer ring, one slot per
	// sampled round. Each participant's slots are a separate allocation
	// (multiple cachelines long), so writers never share a line.
	rings [][]traceSlot

	skewThreshNs int64
	maxWaitNs    int64
	quantile     float64
	maxEpisodes  int
	runtimeTrace bool

	// ctx carries the pprof "barrier" label and, with RuntimeTrace, the
	// runtime/trace task the Wait regions attach to.
	ctx  context.Context
	task *trace.Task

	// Evaluation state, owned by participant 0 (promotion runs inside
	// its Wait) or by Flush when no participant is waiting.
	nextEval      uint64 // next sampled-round index to evaluate
	quantThreshNs int64
	quantAt       uint64 // skew rounds when quantThreshNs was computed
	quantHist     []uint64
	scratch       []EpisodeParticipant

	triggered atomic.Uint64

	mu       sync.Mutex
	episodes []Episode
}

// Trace wraps b with instrumentation plus the flight recorder. Like
// Instrument, it must be called before any participant uses b.
func Trace(b barrier.Barrier, opts TraceOptions) *Tracer {
	in := Instrument(b, opts.Options)
	t := &Tracer{
		Instrumented: in,
		skewThreshNs: opts.SkewThresholdNs,
		maxWaitNs:    opts.MaxWaitThresholdNs,
		quantile:     opts.SkewQuantile,
		maxEpisodes:  opts.MaxEpisodes,
		runtimeTrace: opts.RuntimeTrace,
		quantHist:    make([]uint64, NumBuckets),
		scratch:      make([]EpisodeParticipant, in.p),
	}
	if t.skewThreshNs == 0 && t.maxWaitNs == 0 && t.quantile == 0 {
		t.quantile = DefaultSkewQuantile
	}
	if t.maxEpisodes <= 0 {
		t.maxEpisodes = DefaultMaxEpisodes
	}
	t.rings = make([][]traceSlot, in.p)
	for i := range t.rings {
		t.rings[i] = make([]traceSlot, ringRounds)
		if in.phases != nil {
			for k := range t.rings[i] {
				t.rings[i][k].marks = make([]traceMark, in.phases.stride)
			}
		}
	}
	ctx := pprof.WithLabels(context.Background(), pprof.Labels("barrier", in.name))
	if opts.RuntimeTrace {
		ctx, t.task = trace.NewTask(ctx, "barrier:"+in.name)
	}
	t.ctx = ctx
	return t
}

// Wait implements barrier.Barrier. It shares the sampled clock reads
// with the instrumentation (no extra clock cost) and, on participant
// 0, promotes the previous sampled round to an Episode if the trigger
// fired — one round of delay guarantees every participant's release
// stamp is in place before it is read.
func (t *Tracer) Wait(id int) {
	t.wait(id, t)
	if id == 0 {
		rc := t.shards[0].rounds.Load() - 1 // the round just completed
		for t.nextEval*t.sample+1 <= rc {
			t.evaluate(t.nextEval)
			t.nextEval++
		}
	}
}

// arrive records a sampled arrival stamp (called from Instrumented.wait
// with the same clock read the histogram uses) and opens a
// runtime/trace region when enabled and a trace is being collected.
func (t *Tracer) arrive(id int, k uint64, ns int64) traceRegion {
	t.rings[id][k&ringMask].arrive.Store(ns)
	if t.runtimeTrace && trace.IsEnabled() {
		return traceRegion{trace.StartRegion(t.ctx, "barrier.Wait")}
	}
	return traceRegion{}
}

// release records a sampled release stamp and, with phases enabled,
// copies the round's probe marks from the recorder's owner-only
// scratch into the ring (same single-writer ordering as the stamps).
func (t *Tracer) release(id int, k uint64, ns int64) {
	slot := &t.rings[id][k&ringMask]
	slot.release.Store(ns)
	if t.phases != nil && slot.marks != nil {
		sh := &t.phases.shards[id]
		n := sh.nmarks
		if n > len(slot.marks) {
			n = len(slot.marks)
		}
		for j := 0; j < n; j++ {
			m := sh.marks[j]
			slot.marks[j].at.Store(m.atNs)
			slot.marks[j].meta.Store(uint32(m.phase)<<16 | uint32(m.level)&0xffff)
		}
		slot.nmarks.Store(uint32(n))
	}
}

// evaluate reads sampled round k's ring slots, applies the trigger,
// and keeps an Episode when it fires. Runs on participant 0 one round
// after the stamps were written: by then every participant has arrived
// at the next round, which (through the barrier's own synchronization)
// orders all of round k's stamps before this read.
func (t *Tracer) evaluate(k uint64) {
	slot := k & ringMask
	first, last := int64(math.MaxInt64), int64(math.MinInt64)
	maxWait := int64(0)
	for i := range t.rings {
		a := t.rings[i][slot].arrive.Load()
		rel := t.rings[i][slot].release.Load()
		t.scratch[i] = EpisodeParticipant{ID: i, ArriveNs: a, ReleaseNs: rel}
		first = min(first, a)
		last = max(last, a)
		maxWait = max(maxWait, rel-a)
	}
	skew := last - first
	if !t.fires(skew, maxWait) {
		return
	}
	t.triggered.Add(1)
	parts := append([]EpisodeParticipant(nil), t.scratch...)
	if t.phases != nil {
		// Decode the round's probe marks only for kept episodes; the
		// ordering argument licensing the stamp reads covers the marks.
		for i := range parts {
			s := &t.rings[i][slot]
			n := int(s.nmarks.Load())
			if n > len(s.marks) {
				n = len(s.marks)
			}
			ms := make([]EpisodeMark, n)
			for j := 0; j < n; j++ {
				meta := s.marks[j].meta.Load()
				ms[j] = EpisodeMark{
					Phase: barrier.Phase(meta >> 16).String(),
					Level: int(meta & 0xffff),
					AtNs:  s.marks[j].at.Load(),
				}
			}
			parts[i].Marks = ms
		}
	}
	t.keep(Episode{
		Round:     k * t.sample,
		StartNs:   first,
		SkewNs:    skew,
		MaxWaitNs: maxWait,
		Parts:     parts,
	})
}

// fires applies the trigger policy to one round's skew and worst wait.
func (t *Tracer) fires(skew, maxWait int64) bool {
	if t.maxWaitNs > 0 && maxWait >= t.maxWaitNs {
		return true
	}
	if t.skewThreshNs > 0 && skew >= t.skewThreshNs {
		return true
	}
	if t.quantile > 0 {
		rounds := t.skew.rounds.Load()
		if rounds < quantileMinRounds {
			return false
		}
		if t.quantAt == 0 || rounds-t.quantAt >= quantileRecalcEvery {
			for i := range t.skew.hist {
				t.quantHist[i] = t.skew.hist[i].Load()
			}
			t.quantThreshNs = int64(HistQuantileNs(t.quantHist, t.quantile))
			t.quantAt = rounds
		}
		// Strictly above: a flat skew distribution never fires.
		return skew > t.quantThreshNs
	}
	return false
}

// keep retains ep, evicting the least severe kept episode when full.
func (t *Tracer) keep(ep Episode) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.episodes) < t.maxEpisodes {
		t.episodes = append(t.episodes, ep)
		return
	}
	minI, minSev := -1, ep.SeverityNs()
	for i := range t.episodes {
		if sev := t.episodes[i].SeverityNs(); sev < minSev {
			minI, minSev = i, sev
		}
	}
	if minI >= 0 {
		t.episodes[minI] = ep
	}
}

// Flush evaluates sampled rounds whose trigger decision is still
// pending (promotion normally runs one round after capture, so a
// run's final sampled round is otherwise never judged). Call it only
// while no participant is inside Wait — e.g. after barrier.Run
// returns.
func (t *Tracer) Flush() {
	rc := uint64(math.MaxUint64)
	for i := range t.shards {
		rc = min(rc, t.shards[i].rounds.Load())
	}
	if rc == 0 {
		return
	}
	for t.nextEval*t.sample <= rc-1 {
		t.evaluate(t.nextEval)
		t.nextEval++
	}
}

// Episodes returns copies of the kept episodes, worst first
// (descending SeverityNs, ties by round). Safe to call at any time.
func (t *Tracer) Episodes() []Episode {
	t.mu.Lock()
	out := make([]Episode, len(t.episodes))
	copy(out, t.episodes)
	t.mu.Unlock()
	sort.Slice(out, func(a, b int) bool {
		if sa, sb := out[a].SeverityNs(), out[b].SeverityNs(); sa != sb {
			return sa > sb
		}
		return out[a].Round < out[b].Round
	})
	return out
}

// Triggered returns how many rounds have fired the trigger since
// creation (kept or evicted).
func (t *Tracer) Triggered() uint64 { return t.triggered.Load() }

// Do runs body on the calling goroutine with pprof labels
// barrier=<name> and participant=<id> attached, so CPU profiles and
// execution traces attribute the worker's samples to this barrier.
// Wrap each participant's loop:
//
//	barrier.Run(t, func(id int) {
//	    t.Do(id, func() {
//	        for !done() {
//	            work(id)
//	            t.Wait(id)
//	        }
//	    })
//	})
func (t *Tracer) Do(id int, body func()) {
	pprof.Do(t.ctx, pprof.Labels("participant", strconv.Itoa(id)), func(context.Context) {
		body()
	})
}

// Close ends the runtime/trace task (a no-op without RuntimeTrace).
// The tracer itself needs no teardown.
func (t *Tracer) Close() {
	if t.task != nil {
		t.task.End()
		t.task = nil
	}
}

var _ barrier.Barrier = (*Tracer)(nil)

// Episode is one captured barrier round: every participant's arrival
// and release stamp, in nanoseconds since the tracer's creation.
type Episode struct {
	// Round is the participant-0 round index the episode was captured
	// at.
	Round uint64 `json:"round"`
	// StartNs is the first arrival.
	StartNs int64 `json:"start_ns"`
	// SkewNs is the arrival spread (last minus first arrival) — the
	// paper's arrival-phase imbalance for this round.
	SkewNs int64 `json:"skew_ns"`
	// MaxWaitNs is the worst single-participant Wait latency.
	MaxWaitNs int64                `json:"max_wait_ns"`
	Parts     []EpisodeParticipant `json:"participants"`
}

// EpisodeParticipant is one participant's stamps within an episode.
type EpisodeParticipant struct {
	ID        int   `json:"id"`
	ArriveNs  int64 `json:"arrive_ns"`
	ReleaseNs int64 `json:"release_ns"`
	// Marks are the round's phase probe events in occurrence order,
	// present only when the tracer ran with Options.Phases.
	Marks []EpisodeMark `json:"marks,omitempty"`
}

// EpisodeMark is one phase/level probe event inside an episode.
type EpisodeMark struct {
	// Phase is "arrival" or "wakeup".
	Phase string `json:"phase"`
	Level int    `json:"level"`
	AtNs  int64  `json:"at_ns"`
}

// WaitNs is this participant's Wait latency in the episode.
func (p EpisodeParticipant) WaitNs() int64 { return p.ReleaseNs - p.ArriveNs }

// SeverityNs ranks episodes for retention and display: the worse of
// arrival skew and worst wait.
func (e Episode) SeverityNs() int64 { return max(e.SkewNs, e.MaxWaitNs) }

// LastArriver returns the ID of the participant that arrived last
// (the round's straggler), or -1 for an empty episode.
func (e Episode) LastArriver() int {
	last, id := int64(math.MinInt64), -1
	for _, p := range e.Parts {
		if p.ArriveNs > last {
			last, id = p.ArriveNs, p.ID
		}
	}
	return id
}

// Gantt renders the episode as per-participant lanes over real time,
// using the same renderer as sim.Recorder.Gantt: each lane is filled
// from arrival to release ('w'), with the last arriver upper-cased.
// When phase marks were captured, each wait is subdivided instead:
// 'a' while climbing the arrival tree, 'n' once the notification is
// the only thing left (later spans overwrite, so the phase glyphs sit
// on top of the base 'w' fill).
func (e Episode) Gantt(width int) string {
	spans := make([]lanes.Span, 0, len(e.Parts))
	straggler := e.LastArriver()
	phased := false
	for _, p := range e.Parts {
		g := byte('w')
		if p.ID == straggler {
			g = 'W'
		}
		spans = append(spans, lanes.Span{
			Lane:  p.ID,
			Start: float64(p.ArriveNs),
			End:   float64(p.ReleaseNs),
			Glyph: g,
		})
		prev := p.ArriveNs
		for _, m := range p.Marks {
			phased = true
			g := byte('a')
			if m.Phase == "wakeup" {
				g = 'n'
			}
			spans = append(spans, lanes.Span{
				Lane:  p.ID,
				Start: float64(prev),
				End:   float64(m.AtNs),
				Glyph: g,
			})
			prev = m.AtNs
		}
	}
	legend := "(w = waiting in barrier, W = last arriver)"
	if phased {
		legend = "(a = arrival phase, n = notification phase, w/W = unphased wait)"
	}
	return lanes.Render(spans, lanes.Config{
		Lanes:  len(e.Parts),
		Width:  width,
		Legend: legend,
		Label:  func(l int) string { return "p" + twoDigits(l) },
	})
}

func twoDigits(n int) string {
	if n < 10 {
		return "0" + strconv.Itoa(n)
	}
	return strconv.Itoa(n)
}
