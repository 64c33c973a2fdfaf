package barrier

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"armbarrier/topology"
)

// factories enumerates every barrier configuration under test.
func factories() map[string]func(p int) Barrier {
	return map[string]func(p int) Barrier{
		"central":       func(p int) Barrier { return NewCentral(p) },
		"dissemination": func(p int) Barrier { return NewDissemination(p) },
		"combining2":    func(p int) Barrier { return NewCombining(p, 2) },
		"combining4":    func(p int) Barrier { return NewCombining(p, 4) },
		"mcs":           func(p int) Barrier { return NewMCS(p) },
		"tournament":    func(p int) Barrier { return NewTournament(p) },
		"hyper":         func(p int) Barrier { return NewHyper(p) },
		"hyper2":        func(p int) Barrier { return NewHyperBranch(p, 2) },
		"stour":         func(p int) Barrier { return NewStaticFWay(p) },
		"dtour":         func(p int) Barrier { return NewDynamicFWay(p) },
		"stour-pad": func(p int) Barrier {
			return NewFWay(p, FWayConfig{Padded: true, Wakeup: WakeGlobal})
		},
		"stour4-pad-bintree": func(p int) Barrier {
			return NewFWay(p, FWayConfig{Padded: true, Wakeup: WakeBinaryTree})
		},
		"stour4-pad-numatree": func(p int) Barrier {
			return NewFWay(p, FWayConfig{Padded: true, Wakeup: WakeNUMATree, ClusterSize: 4})
		},
		"optimized":        func(p int) Barrier { return New(p) },
		"optimized-global": func(p int) Barrier { return NewOptimized(p, OptimizedConfig{Wakeup: ChooseGlobal}) },
		"optimized-tx2": func(p int) Barrier {
			return NewOptimized(p, OptimizedConfig{Machine: topology.ThunderX2()})
		},
		"optimized-kp920": func(p int) Barrier {
			return NewOptimized(p, OptimizedConfig{Machine: topology.Kunpeng920()})
		},
		"hier": func(p int) Barrier {
			return NewHierarchical(p, HierarchicalConfig{})
		},
		"hier-g2": func(p int) Barrier {
			return NewHierarchical(p, HierarchicalConfig{GroupSize: 2})
		},
		"hier-g4-f2": func(p int) Barrier {
			return NewHierarchical(p, HierarchicalConfig{GroupSize: 4, FanIn: 2})
		},
		"hier-g1": func(p int) Barrier {
			// Degenerate all-singleton groups: pure representative tree.
			return NewHierarchical(p, HierarchicalConfig{GroupSize: 1})
		},
	}
}

// verifyBarrier runs the classic counter protocol: each participant
// increments its slot every round; after the barrier, all slots must
// show at least the current round. Any lost wake-up or overtaking
// produces a detectable violation.
func verifyBarrier(t *testing.T, b Barrier, rounds int) {
	t.Helper()
	p := b.Participants()
	counts := make([]paddedUint32, p)
	var violations atomic.Uint32
	Run(b, func(id int) {
		for r := 1; r <= rounds; r++ {
			counts[id].v.Store(uint32(r))
			b.Wait(id)
			for peer := 0; peer < p; peer++ {
				if counts[peer].v.Load() < uint32(r) {
					violations.Add(1)
				}
			}
			b.Wait(id) // second barrier so nobody races ahead into r+1
		}
	})
	if v := violations.Load(); v != 0 {
		t.Fatalf("%s: %d synchronization violations over %d rounds with %d participants",
			b.Name(), v, rounds, p)
	}
}

func TestAllBarriersSynchronize(t *testing.T) {
	sizes := []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 31, 32, 33, 48, 64}
	for name, mk := range factories() {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			for _, p := range sizes {
				verifyBarrier(t, mk(p), 8)
			}
		})
	}
}

func TestOversubscribedStillProgresses(t *testing.T) {
	// More participants than GOMAXPROCS: the spin loops must yield.
	old := runtime.GOMAXPROCS(2)
	defer runtime.GOMAXPROCS(old)
	for _, mk := range []func(p int) Barrier{
		func(p int) Barrier { return NewCentral(p) },
		func(p int) Barrier { return New(p) },
		func(p int) Barrier { return NewDissemination(p) },
	} {
		verifyBarrier(t, mk(16), 5)
	}
}

func TestManyRoundsReuse(t *testing.T) {
	// Sense reversal must survive many reuses (odd and even episode
	// counts exercise both senses and both dissemination parities).
	verifyBarrier(t, New(8), 201)
	verifyBarrier(t, NewDissemination(8), 201)
}

func TestWaitPanicsOnBadID(t *testing.T) {
	for name, mk := range factories() {
		b := mk(4)
		for _, id := range []int{-1, 4, 99} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: Wait(%d) did not panic", name, id)
					}
				}()
				b.Wait(id)
			}()
		}
	}
}

func TestConstructorsPanicOnBadP(t *testing.T) {
	cases := map[string]func(){
		"central":     func() { NewCentral(0) },
		"combining":   func() { NewCombining(-1, 2) },
		"fanin":       func() { NewCombining(4, 1) },
		"hyperbranch": func() { NewHyperBranch(4, 1) },
		"optimized":   func() { NewOptimized(0, OptimizedConfig{}) },
		"dynamic-tree": func() {
			NewFWay(4, FWayConfig{Dynamic: true, Wakeup: WakeBinaryTree})
		},
		"bad-ranks": func() {
			NewFWay(3, FWayConfig{Wakeup: WakeGlobal, Ranks: []int{0, 0, 1}})
		},
		"short-ranks": func() {
			NewFWay(3, FWayConfig{Wakeup: WakeGlobal, Ranks: []int{0, 1}})
		},
		"range-ranks": func() {
			NewFWay(3, FWayConfig{Wakeup: WakeGlobal, Ranks: []int{0, 1, 5}})
		},
	}
	for name, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

func TestNames(t *testing.T) {
	cases := map[string]string{
		NewCentral(2).Name():       "central",
		NewDissemination(2).Name(): "dissemination",
		NewCombining(2, 2).Name():  "combining",
		NewCombining(2, 4).Name():  "combining4",
		NewMCS(2).Name():           "mcs",
		NewTournament(2).Name():    "tournament",
		NewHyper(2).Name():         "hyper",
		NewStaticFWay(2).Name():    "stour",
		NewDynamicFWay(2).Name():   "dtour",
		New(2).Name():              "optimized",
	}
	for got, want := range cases {
		if got != want {
			t.Errorf("Name() = %q, want %q", got, want)
		}
	}
}

func TestGeneratedFWayNames(t *testing.T) {
	if got := NewFWay(4, FWayConfig{Padded: true, Wakeup: WakeNUMATree}).Name(); got != "stour-pad-numatree" {
		t.Errorf("generated name %q", got)
	}
	if got := NewFWay(4, FWayConfig{Dynamic: true, Wakeup: WakeGlobal}).Name(); got != "dtour" {
		t.Errorf("generated name %q", got)
	}
}

func TestParticipants(t *testing.T) {
	for name, mk := range factories() {
		if got := mk(7).Participants(); got != 7 {
			t.Errorf("%s: Participants() = %d, want 7", name, got)
		}
	}
}

func TestSingleParticipantNeverBlocks(t *testing.T) {
	for name, mk := range factories() {
		b := mk(1)
		done := make(chan struct{})
		go func() {
			for i := 0; i < 100; i++ {
				b.Wait(0)
			}
			close(done)
		}()
		select {
		case <-done:
		default:
			// Give it a moment via a channel-free spin.
			for i := 0; i < 1e7; i++ {
				select {
				case <-done:
					i = 1e7
				default:
				}
			}
			select {
			case <-done:
			default:
				t.Fatalf("%s: single participant blocked", name)
			}
		}
	}
}

func TestClusterMajorRanks(t *testing.T) {
	m := topology.Kunpeng920()
	place, err := topology.Scatter(m, 8)
	if err != nil {
		t.Fatal(err)
	}
	ranks, err := ClusterMajorRanks(m, place)
	if err != nil {
		t.Fatal(err)
	}
	if err := validateRanks(8, ranks); err != nil {
		t.Fatal(err)
	}
	// Threads 0 and 8... under scatter, participants on the same
	// cluster must get adjacent ranks.
	byRank := make([]int, 8)
	for id, r := range ranks {
		byRank[r] = id
	}
	seen := map[int]bool{}
	last := -1
	for _, id := range byRank {
		cl := m.ClusterOf(place[id])
		if cl != last {
			if seen[cl] {
				t.Fatalf("cluster %d split across rank ranges", cl)
			}
			seen[cl] = true
			last = cl
		}
	}
}

func TestClusterMajorRanksRejectsBadPlacement(t *testing.T) {
	m := topology.Kunpeng920()
	if _, err := ClusterMajorRanks(m, topology.Placement{0, 0}); err == nil {
		t.Fatal("accepted duplicate placement")
	}
}

func TestOptimizedWithRanksSynchronizes(t *testing.T) {
	m := topology.Phytium2000()
	for _, p := range []int{5, 16, 33, 64} {
		place, err := topology.Scatter(m, p)
		if err != nil {
			t.Fatal(err)
		}
		b := NewOptimized(p, OptimizedConfig{Machine: m, Placement: place})
		verifyBarrier(t, b, 6)
	}
}

func TestOptimizedWakeupSelection(t *testing.T) {
	// The model picks global for Kunpeng920, the NUMA tree for the
	// clustered machines — mirror of the paper's Figure 12 conclusion.
	kp := NewOptimized(64, OptimizedConfig{Machine: topology.Kunpeng920()})
	if kp.wakeKind != WakeGlobal {
		t.Errorf("kp920 wake-up = %v, want global", kp.wakeKind)
	}
	tx := NewOptimized(64, OptimizedConfig{Machine: topology.ThunderX2()})
	if tx.wakeKind != WakeNUMATree {
		t.Errorf("tx2 wake-up = %v, want numatree", tx.wakeKind)
	}
	forced := NewOptimized(64, OptimizedConfig{Machine: topology.Kunpeng920(), Wakeup: ChooseBinaryTree})
	if forced.wakeKind != WakeBinaryTree {
		t.Errorf("forced wake-up = %v, want bintree", forced.wakeKind)
	}
}

func TestWakeupKindString(t *testing.T) {
	if WakeGlobal.String() != "global" || WakeBinaryTree.String() != "bintree" ||
		WakeNUMATree.String() != "numatree" || WakeupKind(9).String() != "wakeup?" {
		t.Fatal("WakeupKind strings wrong")
	}
}

// TestIndependentBarriersDoNotInterfere runs two barriers concurrently
// over disjoint participant groups.
func TestIndependentBarriersDoNotInterfere(t *testing.T) {
	b1, b2 := New(6), NewCentral(6)
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); verifyBarrier(t, b1, 20) }()
	go func() { defer wg.Done(); verifyBarrier(t, b2, 20) }()
	wg.Wait()
}

// TestBarrierOrdering checks the happens-before guarantee: writes made
// before the barrier must be visible after it (the data-race-freedom
// property OpenMP programs rely on).
func TestBarrierOrdering(t *testing.T) {
	const rounds = 50
	for _, mk := range []func(int) Barrier{
		func(p int) Barrier { return New(p) },
		func(p int) Barrier { return NewDissemination(p) },
		func(p int) Barrier { return NewMCS(p) },
	} {
		b := mk(4)
		data := make([][rounds + 1]uint64, 4) // data[i][r] written by i in round r
		var bad atomic.Uint32
		Run(b, func(id int) {
			for r := 1; r <= rounds; r++ {
				data[id][r] = uint64(id*1000 + r)
				b.Wait(id)
				for peer := 0; peer < 4; peer++ {
					if data[peer][r] != uint64(peer*1000+r) {
						bad.Add(1)
					}
				}
				b.Wait(id)
			}
		})
		if bad.Load() != 0 {
			t.Fatalf("%s: %d visibility violations", b.Name(), bad.Load())
		}
	}
}

func TestRunHelper(t *testing.T) {
	b := New(5)
	var total atomic.Uint32
	Run(b, func(id int) {
		total.Add(uint32(id))
		b.Wait(id)
	})
	if total.Load() != 0+1+2+3+4 {
		t.Fatalf("Run visited wrong ids, total=%d", total.Load())
	}
}

func ExampleNew() {
	b := New(4)
	results := make([]int, 4)
	Run(b, func(id int) {
		results[id] = id * id // phase 1
		b.Wait(id)
		// After the barrier every participant sees all phase-1 writes.
		if id == 0 {
			sum := 0
			for _, v := range results {
				sum += v
			}
			fmt.Println(sum)
		}
		b.Wait(id)
	})
	// Output: 14
}
