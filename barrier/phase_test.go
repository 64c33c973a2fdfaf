package barrier

import (
	"runtime"
	"sync/atomic"
	"testing"
	"unsafe"
)

// phaseProbers enumerates every barrier exposing phase probes, at the
// participant counts the sequence invariants are checked at.
func phaseProbers(p int) map[string]Barrier {
	return map[string]Barrier{
		"stour":          NewStaticFWay(p),
		"dtour":          NewDynamicFWay(p),
		"stour-bintree":  NewFWay(p, FWayConfig{Wakeup: WakeBinaryTree}),
		"stour-numatree": NewFWay(p, FWayConfig{Wakeup: WakeNUMATree}),
		"combining":      NewCombining(p, 2),
		"mcs":            NewMCS(p),
		"tournament":     NewTournament(p),
		"dissemination":  NewDissemination(p),
		"hyper":          NewHyper(p),
		"optimized":      New(p),
		"hier":           NewHierarchical(p, HierarchicalConfig{GroupSize: 2}),
		"hier-g1":        NewHierarchical(p, HierarchicalConfig{GroupSize: 1}),
		"hier-g4":        NewHierarchical(p, HierarchicalConfig{GroupSize: 4, FanIn: 2}),
	}
}

// TestProbeSlotLayout pins the disarmed-probe discipline structurally:
// each participant's probe pointer lives in its own owner line, on no
// line another participant writes, so the one plain load per probe
// site never contends with a neighbour's writes — the same layout
// contract the deadline keeps.
func TestProbeSlotLayout(t *testing.T) {
	const p = 4
	w := parkingWaitState(p)
	for id := 0; id < p; id++ {
		probe := lineOf(unsafe.Pointer(&w.owners[id].probe))
		for other := 0; other < p; other++ {
			if other != id && ownerFieldLines(w, other)[probe] {
				t.Errorf("participant %d's probe shares a line with participant %d's owner line", id, other)
			}
			if lineOf(unsafe.Pointer(&w.parking[other].state)) == probe {
				t.Errorf("participant %d's probe shares a line with participant %d's parked bit", id, other)
			}
		}
	}
}

// recordedMark is one PhasePoint call as seen by the test probe.
type recordedMark struct {
	phase Phase
	level int
}

// seqProbe records each participant's mark sequence. PhasePoint(id,..)
// is only ever called by participant id's goroutine, so the per-id
// slices need no locking.
type seqProbe struct {
	marks [][]recordedMark
}

func (s *seqProbe) PhasePoint(id int, ph Phase, level int) {
	s.marks[id] = append(s.marks[id], recordedMark{ph, level})
}

// TestPhaseProbeSequence checks, for every prober at several P, that an
// armed probe observes a well-formed mark stream per participant and
// round: levels inside PhaseShape, at least one arrival mark, exactly
// one wake-up mark when the barrier has a wake-up phase (each
// participant receives its release exactly once), none when it does
// not (dissemination), and never a wake-up before the round's first
// arrival.
func TestPhaseProbeSequence(t *testing.T) {
	const rounds = 25
	for _, p := range []int{2, 4, 7, 8} {
		for name, b := range phaseProbers(p) {
			pr, ok := b.(PhaseProber)
			if !ok {
				t.Fatalf("%s/P=%d: not a PhaseProber", name, p)
			}
			arr, wake := pr.PhaseShape()
			if arr <= 0 {
				t.Fatalf("%s/P=%d: PhaseShape arrival levels = %d", name, p, arr)
			}
			probe := &seqProbe{marks: make([][]recordedMark, p)}
			for id := 0; id < p; id++ {
				pr.SetPhaseProbe(id, probe)
			}
			Run(b, func(id int) {
				for r := 0; r < rounds; r++ {
					b.Wait(id)
				}
			})
			for id := 0; id < p; id++ {
				var arrMarks, wakeMarks int
				sawArrival := false
				for _, m := range probe.marks[id] {
					switch m.phase {
					case PhaseArrival:
						sawArrival = true
						arrMarks++
						if m.level < 0 || m.level >= arr {
							t.Errorf("%s/P=%d p%d: arrival level %d outside [0,%d)", name, p, id, m.level, arr)
						}
					case PhaseWakeup:
						wakeMarks++
						if !sawArrival {
							t.Errorf("%s/P=%d p%d: wake-up mark before any arrival", name, p, id)
						}
						if m.level < 0 || m.level >= wake {
							t.Errorf("%s/P=%d p%d: wake-up level %d outside [0,%d)", name, p, id, m.level, wake)
						}
					default:
						t.Errorf("%s/P=%d p%d: unknown phase %d", name, p, id, m.phase)
					}
				}
				if arrMarks < rounds {
					t.Errorf("%s/P=%d p%d: %d arrival marks over %d rounds, want >= one per round",
						name, p, id, arrMarks, rounds)
				}
				if arrMarks > rounds*arr {
					t.Errorf("%s/P=%d p%d: %d arrival marks exceed %d rounds x %d levels",
						name, p, id, arrMarks, rounds, arr)
				}
				wantWake := rounds
				if wake == 0 {
					wantWake = 0
				}
				if wakeMarks != wantWake {
					t.Errorf("%s/P=%d p%d: %d wake-up marks over %d rounds, want %d",
						name, p, id, wakeMarks, rounds, wantWake)
				}
			}
		}
	}
}

// TestPhaseShapeLevelsCovered checks that, across all participants,
// every level PhaseShape declares actually receives marks — a shape
// overstating its levels would leave permanently-empty telemetry cells.
func TestPhaseShapeLevelsCovered(t *testing.T) {
	const rounds = 25
	const p = 8
	for name, b := range phaseProbers(p) {
		pr := b.(PhaseProber)
		arr, wake := pr.PhaseShape()
		probe := &seqProbe{marks: make([][]recordedMark, p)}
		for id := 0; id < p; id++ {
			pr.SetPhaseProbe(id, probe)
		}
		Run(b, func(id int) {
			for r := 0; r < rounds; r++ {
				b.Wait(id)
			}
		})
		arrSeen := make([]bool, arr)
		wakeSeen := make([]bool, wake)
		for id := 0; id < p; id++ {
			for _, m := range probe.marks[id] {
				if m.phase == PhaseArrival {
					arrSeen[m.level] = true
				} else {
					wakeSeen[m.level] = true
				}
			}
		}
		for l, seen := range arrSeen {
			if !seen {
				t.Errorf("%s: declared arrival level %d never marked", name, l)
			}
		}
		for l, seen := range wakeSeen {
			if !seen {
				t.Errorf("%s: declared wake-up level %d never marked", name, l)
			}
		}
	}
}

// countingProbe counts calls; used to verify arm/disarm plumbing.
type countingProbe struct{ n atomic.Int64 }

func (c *countingProbe) PhasePoint(int, Phase, int) { c.n.Add(1) }

// TestSetPhaseProbeArmsAndDisarms checks the owner-only arm/disarm
// cycle: marks flow only while armed, and a nil store silences the
// participant again.
func TestSetPhaseProbeArmsAndDisarms(t *testing.T) {
	b := NewStaticFWay(4)
	probe := &countingProbe{}
	Run(b, func(id int) {
		b.Wait(id) // disarmed round
		b.SetPhaseProbe(id, probe)
		b.Wait(id) // armed round
		b.SetPhaseProbe(id, nil)
		b.Wait(id) // disarmed again
	})
	n := probe.n.Load()
	if n == 0 {
		t.Fatal("armed round recorded no marks")
	}
	// The armed round is bounded by one mark per (phase, level) cell
	// per participant.
	arr, wake := b.PhaseShape()
	if max := int64(4 * (arr + wake)); n > max {
		t.Errorf("armed round recorded %d marks, want <= %d — disarmed rounds leaked marks", n, max)
	}
}

// TestSetPhaseProbeRange pins the out-of-range panic.
func TestSetPhaseProbeRange(t *testing.T) {
	b := NewStaticFWay(4)
	defer func() {
		if recover() == nil {
			t.Fatal("SetPhaseProbe(4) on a 4-participant barrier did not panic")
		}
	}()
	b.SetPhaseProbe(4, &countingProbe{})
}

// TestPhaseProbeDisarmedDoesNotAllocate extends the steady-state
// allocation guard to barriers whose probe slots exist but are
// disarmed — the default state. The probe sites must stay one plain
// load each: no allocation, and (checked structurally above) no shared
// cacheline. Covers both never-armed and armed-then-disarmed slots.
func TestPhaseProbeDisarmedDoesNotAllocate(t *testing.T) {
	for name, b := range phaseProbers(4) {
		pr := b.(PhaseProber)
		// Arm then disarm, so the disarmed path is the one re-taken
		// after real use, then warm up.
		probe := &countingProbe{}
		for id := 0; id < 4; id++ {
			pr.SetPhaseProbe(id, probe)
			pr.SetPhaseProbe(id, nil)
		}
		Run(b, func(id int) {
			for e := 0; e < 10; e++ {
				b.Wait(id)
			}
		})
		armed := probe.n.Load()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		Run(b, func(id int) {
			for e := 0; e < 2000; e++ {
				b.Wait(id)
			}
		})
		runtime.ReadMemStats(&after)
		if got := after.Mallocs - before.Mallocs; got > 200 {
			t.Errorf("%s: %d allocations over 8000 disarmed Waits — probe sites allocate", name, got)
		}
		if got := probe.n.Load(); got != armed {
			t.Errorf("%s: disarmed rounds recorded %d marks", name, got-armed)
		}
	}
}
