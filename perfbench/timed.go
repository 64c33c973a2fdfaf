package main

import (
	"fmt"

	"armbarrier/barrier"
	"armbarrier/internal/pad"
)

// timedBarrier is the traced run's view of the barrier layer: it stamps
// entry and exit of every Wait and AllReduce per participant and
// forwards every call, including the optional interfaces omp and obs
// look for (Collective for the fused reduce path, SpinCounter and
// ParkCounter for the poll and park counts), so a traced team takes the
// same code paths as an untraced one.
type timedBarrier struct {
	inner barrier.Barrier
	col   barrier.Collective
	spin  barrier.SpinCounter
	park  barrier.ParkCounter
	slots []pad.Padded[timedSlot]
}

// episodeRing is how many episodes of stamps each participant keeps.
// The master reads episode e only after leaving episode e+1, and no
// participant can run more than one episode ahead of the master.
const episodeRing = 8

type timedSlot struct {
	episodes    uint64 // episodes this participant entered (owner only)
	enter, exit [episodeRing]int64
	// The duration of the latest call is appended at the next call's
	// entry, so everything a participant records is ordered before an
	// episode the master later leaves (see results).
	pending     int64
	pendingKind uint8
	waits       *samples
	allreduces  *samples
}

const (
	kindNone uint8 = iota
	kindWait
	kindAllReduce
)

// layerSamples is the ring size for per-layer observations.
const layerSamples = 1 << 17

// newTimed wraps b. The bsp workloads run on barrier.New, which
// implements all three optional interfaces; a barrier lacking one is
// refused rather than silently changing the path a team takes.
func newTimed(b barrier.Barrier) (*timedBarrier, error) {
	col, ok1 := b.(barrier.Collective)
	spin, ok2 := b.(barrier.SpinCounter)
	park, ok3 := b.(barrier.ParkCounter)
	if !ok1 || !ok2 || !ok3 {
		return nil, fmt.Errorf("timed: %s lacks Collective, SpinCounter or ParkCounter", b.Name())
	}
	t := &timedBarrier{inner: b, col: col, spin: spin, park: park,
		slots: make([]pad.Padded[timedSlot], b.Participants())}
	for i := range t.slots {
		s := &t.slots[i].V
		s.waits = newSamples(layerSamples)
		s.allreduces = newSamples(layerSamples)
	}
	return t, nil
}

func (t *timedBarrier) Participants() int      { return t.inner.Participants() }
func (t *timedBarrier) Name() string           { return t.inner.Name() }
func (t *timedBarrier) Inner() barrier.Barrier { return t.inner }

func (t *timedBarrier) begin(id int) (*timedSlot, int64) {
	s := &t.slots[id].V
	switch s.pendingKind {
	case kindWait:
		s.waits.add(s.pending)
	case kindAllReduce:
		s.allreduces.add(s.pending)
	}
	t0 := now()
	s.enter[s.episodes%episodeRing] = t0
	return s, t0
}

func (t *timedBarrier) end(s *timedSlot, t0 int64, kind uint8) {
	t1 := now()
	s.exit[s.episodes%episodeRing] = t1
	s.pending, s.pendingKind = t1-t0, kind
	s.episodes++
}

func (t *timedBarrier) Wait(id int) {
	s, t0 := t.begin(id)
	t.inner.Wait(id)
	t.end(s, t0, kindWait)
}

func (t *timedBarrier) AllReduce(id int, v uint64, op barrier.CombineFunc) uint64 {
	s, t0 := t.begin(id)
	r := t.col.AllReduce(id, v, op)
	t.end(s, t0, kindAllReduce)
	return r
}

func (t *timedBarrier) Reduce(id, root int, v uint64, op barrier.CombineFunc) uint64 {
	s, t0 := t.begin(id)
	r := t.col.Reduce(id, root, v, op)
	t.end(s, t0, kindAllReduce)
	return r
}

func (t *timedBarrier) Broadcast(id, root int, v uint64) uint64 {
	s, t0 := t.begin(id)
	r := t.col.Broadcast(id, root, v)
	t.end(s, t0, kindAllReduce)
	return r
}

func (t *timedBarrier) EnableSpinCounts()                  { t.spin.EnableSpinCounts() }
func (t *timedBarrier) SpinCounts(id int) (uint64, uint64) { return t.spin.SpinCounts(id) }
func (t *timedBarrier) ParkCounts(id int) (uint64, uint64) { return t.park.ParkCounts(id) }
func (t *timedBarrier) masterEpisodes() uint64             { return t.slots[0].V.episodes }
func (t *timedBarrier) stamps(id int, e uint64) (int64, int64) {
	s := &t.slots[id].V
	return s.enter[e%episodeRing], s.exit[e%episodeRing]
}

// episodeSpan folds episode e into release (earliest exit minus latest
// entry: how long the last arriver's release took to reach the first
// leaver) and skew (latest minus earliest entry: the workload's
// imbalance). Only the master calls it, for an episode older than the
// one it last left.
func (t *timedBarrier) episodeSpan(e uint64) (release, skew int64) {
	minEnter, maxEnter, minExit := int64(1<<62), int64(-1<<62), int64(1<<62)
	for id := range t.slots {
		in, out := t.stamps(id, e)
		minEnter = min(minEnter, in)
		maxEnter = max(maxEnter, in)
		minExit = min(minExit, out)
	}
	return minExit - maxEnter, maxEnter - minEnter
}

// counts sums the wait-site counters over all participants.
func (t *timedBarrier) counts() (spins, yields, parks, wakes uint64) {
	for id := range t.slots {
		s, y := t.spin.SpinCounts(id)
		p, w := t.park.ParkCounts(id)
		spins, yields, parks, wakes = spins+s, yields+y, parks+p, wakes+w
	}
	return
}

// results merges every participant's call durations. It must run after
// the team's Close returned: Close's fork episode is entered after each
// worker appended its last pending duration.
func (t *timedBarrier) results() (waits, allreduces *samples) {
	var ws, as []*samples
	for i := range t.slots {
		ws = append(ws, t.slots[i].V.waits)
		as = append(as, t.slots[i].V.allreduces)
	}
	return merged(ws...), merged(as...)
}
