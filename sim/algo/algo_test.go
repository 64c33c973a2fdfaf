package algo

import (
	"fmt"
	"testing"

	"armbarrier/sim"
	"armbarrier/topology"
)

// allFactories enumerates every algorithm configuration under test,
// including the optimization variants.
func allFactories() map[string]Factory {
	fs := map[string]Factory{}
	for name, f := range Registry {
		fs[name] = f
	}
	fs["stour-pad"] = STOURPadded
	fs["stour4-pad"] = Static4WayPadded
	fs["opt-global"] = OptimizedWith(WakeGlobal)
	fs["opt-bintree"] = OptimizedWith(WakeBinaryTree)
	fs["opt-numatree"] = OptimizedWith(WakeNUMATree)
	fs["cmb4"] = func(k *sim.Kernel, P int) Barrier { return NewCombining(k, P, 4) }
	fs["stour2-pad"] = StaticFixedFanIn(2)
	fs["stour16-pad"] = StaticFixedFanIn(16)
	fs["hyper2"] = func(k *sim.Kernel, P int) Barrier { return NewHyperBranch(k, P, 2) }
	fs["dis-pad"] = NewDisseminationPadded
	fs["ndis3"] = NDis(3)
	return fs
}

// TestAllBarriersSynchronize is the core correctness matrix: every
// algorithm, on every machine shape, across awkward thread counts,
// must order episodes correctly for several rounds.
func TestAllBarriersSynchronize(t *testing.T) {
	machines := []*topology.Machine{topology.Phytium2000(), topology.ThunderX2(), topology.Kunpeng920()}
	threadCounts := []int{1, 2, 3, 4, 5, 7, 8, 9, 13, 16, 17, 20, 31, 32, 33, 48, 63, 64}
	for name, factory := range allFactories() {
		name, factory := name, factory
		t.Run(name, func(t *testing.T) {
			for _, m := range machines {
				for _, p := range threadCounts {
					if err := VerifyRounds(m, p, 6, factory, nil); err != nil {
						t.Fatalf("%s on %s with %d threads: %v", name, m.Name, p, err)
					}
				}
			}
		})
	}
}

// TestBarriersUnderScatterPlacement repeats the correctness check with
// the adversarial scattered pinning.
func TestBarriersUnderScatterPlacement(t *testing.T) {
	m := topology.Kunpeng920()
	for name, factory := range allFactories() {
		for _, p := range []int{5, 16, 33, 64} {
			place, err := topology.Scatter(m, p)
			if err != nil {
				t.Fatal(err)
			}
			if err := VerifyRounds(m, p, 5, factory, place); err != nil {
				t.Fatalf("%s scattered %d threads: %v", name, p, err)
			}
		}
	}
}

func TestBarrierNames(t *testing.T) {
	m := topology.ThunderX2()
	cases := map[string]string{
		"sense": "sense", "dis": "dis", "cmb": "cmb", "mcs": "mcs",
		"tour": "tour", "stour": "stour", "dtour": "dtour",
		"gcc": "gcc", "llvm": "llvm", "hyper": "hyper", "optimized": "optimized",
	}
	for key, want := range cases {
		p, _ := topology.Compact(m, 8)
		k, err := sim.New(sim.Config{Machine: m, Placement: p})
		if err != nil {
			t.Fatal(err)
		}
		b := Registry[key](k, 8)
		if b.Name() != want {
			t.Errorf("%s: Name() = %q, want %q", key, b.Name(), want)
		}
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("stour"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName accepted unknown algorithm")
	}
}

func TestPaperAlgorithmsRegistered(t *testing.T) {
	if len(PaperAlgorithms) != 7 {
		t.Fatalf("PaperAlgorithms has %d entries, want 7", len(PaperAlgorithms))
	}
	for _, n := range PaperAlgorithms {
		if _, ok := Registry[n]; !ok {
			t.Errorf("paper algorithm %q not in registry", n)
		}
	}
}

func TestMeasureReturnsPositive(t *testing.T) {
	m := topology.ThunderX2()
	for _, name := range PaperAlgorithms {
		v, err := Measure(m, 16, Registry[name], MeasureOptions{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if v <= 0 {
			t.Errorf("%s: measured %g ns, want > 0", name, v)
		}
	}
}

func TestMeasureSingleThreadCheap(t *testing.T) {
	m := topology.Phytium2000()
	v, err := Measure(m, 1, NewSense, MeasureOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if v > m.Epsilon*4 {
		t.Fatalf("single-thread barrier cost %g ns, want trivial", v)
	}
}

func TestMeasureDeterministic(t *testing.T) {
	m := topology.Kunpeng920()
	a := MustMeasure(m, 32, STOUR, MeasureOptions{})
	b := MustMeasure(m, 32, STOUR, MeasureOptions{})
	if a != b {
		t.Fatalf("non-deterministic measurement: %g vs %g", a, b)
	}
}

// BenchmarkMeasureOptimized64 prices the simulator kernel itself: one
// default-options measurement of the optimized barrier at 64 threads on
// Phytium 2000+, the shape of each probe in the paper regeneration.
func BenchmarkMeasureOptimized64(b *testing.B) {
	m := topology.Phytium2000()
	for i := 0; i < b.N; i++ {
		if _, err := MeasureDetailed(m, 64, Optimized, MeasureOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

func TestMeasureOptionValidation(t *testing.T) {
	m := topology.ThunderX2()
	if _, err := Measure(m, 8, NewSense, MeasureOptions{Episodes: -1}); err == nil {
		t.Error("accepted negative episodes")
	}
	short, _ := topology.Compact(m, 4)
	if _, err := Measure(m, 8, NewSense, MeasureOptions{Placement: short}); err == nil {
		t.Error("accepted mismatched placement")
	}
	if _, err := Measure(m, 100, NewSense, MeasureOptions{}); err == nil {
		t.Error("accepted more threads than cores")
	}
}

func TestDynamicRequiresGlobalWakeup(t *testing.T) {
	m := topology.ThunderX2()
	p, _ := topology.Compact(m, 8)
	k, _ := sim.New(sim.Config{Machine: m, Placement: p})
	defer func() {
		if recover() == nil {
			t.Fatal("dynamic + tree wake-up accepted")
		}
	}()
	NewFWay(k, 8, FWayConfig{Dynamic: true, Wakeup: WakeBinaryTree})
}

func TestTreeWakeupChampionMustBeRankZero(t *testing.T) {
	m := topology.ThunderX2()
	p, _ := topology.Compact(m, 4)
	k, _ := sim.New(sim.Config{Machine: m, Placement: p})
	w := newWakeup(k, WakeBinaryTree, 4, m.ClusterSize)
	defer func() {
		if recover() == nil {
			t.Fatal("tree wake-up accepted champion rank != 0")
		}
	}()
	k.Run(func(t *sim.Thread) {
		if t.ID() == 1 {
			w.signal(t, 1, 1)
		}
	})
}

func TestWakeupKindString(t *testing.T) {
	if WakeGlobal.String() != "global" || WakeBinaryTree.String() != "bintree" || WakeNUMATree.String() != "numatree" {
		t.Fatal("WakeupKind strings wrong")
	}
	if WakeupKind(99).String() != "wakeup?" {
		t.Fatal("unknown WakeupKind string wrong")
	}
}

func TestClusterMajorRanksWithScatterPlacement(t *testing.T) {
	// Under a scattered placement, cluster-major re-ranking must put
	// threads pinned to the same cluster at adjacent ranks.
	m := topology.Kunpeng920()
	place, err := topology.Scatter(m, 16)
	if err != nil {
		t.Fatal(err)
	}
	k, err := sim.New(sim.Config{Machine: m, Placement: place})
	if err != nil {
		t.Fatal(err)
	}
	ranks := makeRanks(k, 16, true)
	// Invert: order[rank] = thread.
	order := make([]int, 16)
	for id, r := range ranks {
		order[r] = id
	}
	lastCluster := -1
	seen := map[int]bool{}
	for _, id := range order {
		cl := m.ClusterOf(place[id])
		if cl != lastCluster {
			if seen[cl] {
				t.Fatalf("cluster %d appears twice in rank order (ranks not cluster-major)", cl)
			}
			seen[cl] = true
			lastCluster = cl
		}
	}
}

func TestIdentityRanksWithoutClusterMajor(t *testing.T) {
	m := topology.Kunpeng920()
	place, _ := topology.Scatter(m, 8)
	k, _ := sim.New(sim.Config{Machine: m, Placement: place})
	ranks := makeRanks(k, 8, false)
	for i, r := range ranks {
		if r != i {
			t.Fatalf("identity ranks broken: ranks[%d]=%d", i, r)
		}
	}
}

func TestCheckThreadsPanics(t *testing.T) {
	m := topology.ThunderX2()
	p, _ := topology.Compact(m, 4)
	k, _ := sim.New(sim.Config{Machine: m, Placement: p})
	defer func() {
		if recover() == nil {
			t.Fatal("mismatched P accepted")
		}
	}()
	NewSense(k, 8)
}

func TestVerifyRoundsCatchesBrokenBarrier(t *testing.T) {
	// A "barrier" that does nothing must be flagged.
	broken := func(k *sim.Kernel, P int) Barrier { return brokenBarrier{} }
	m := topology.ThunderX2()
	if err := VerifyRounds(m, 8, 4, broken, nil); err == nil {
		t.Fatal("VerifyRounds passed a no-op barrier")
	}
}

type brokenBarrier struct{}

func (brokenBarrier) Name() string       { return "broken" }
func (brokenBarrier) Wait(t *sim.Thread) { t.Compute(1) }

func TestSenseLastArriverReleases(t *testing.T) {
	// With staggered arrivals, barrier exit time must be >= the last
	// arrival time for every thread.
	m := topology.Kunpeng920()
	p, _ := topology.Compact(m, 8)
	k, _ := sim.New(sim.Config{Machine: m, Placement: p})
	b := NewSense(k, 8)
	exits := make([]float64, 8)
	const lastArrival = 800.0
	k.Run(func(t *sim.Thread) {
		t.Compute(float64(t.ID()) * 100) // thread 7 arrives at 700+
		b.Wait(t)
		exits[t.ID()] = t.Now()
	})
	for id, x := range exits {
		if x < 700 {
			t.Fatalf("thread %d exited at %g, before the last arrival", id, x)
		}
	}
	_ = lastArrival
}

func TestCombiningRejectsBadFanIn(t *testing.T) {
	m := topology.ThunderX2()
	p, _ := topology.Compact(m, 4)
	k, _ := sim.New(sim.Config{Machine: m, Placement: p})
	defer func() {
		if recover() == nil {
			t.Fatal("fan-in 1 accepted")
		}
	}()
	NewCombining(k, 4, 1)
}

func TestHyperRejectsBadBranch(t *testing.T) {
	m := topology.ThunderX2()
	p, _ := topology.Compact(m, 4)
	k, _ := sim.New(sim.Config{Machine: m, Placement: p})
	defer func() {
		if recover() == nil {
			t.Fatal("branch 1 accepted")
		}
	}()
	NewHyperBranch(k, 4, 1)
}

// TestStaggeredArrivalAllAlgorithms: barriers must tolerate arbitrary
// arrival skew, not just simultaneous arrival.
func TestStaggeredArrivalAllAlgorithms(t *testing.T) {
	m := topology.Phytium2000()
	for name, factory := range allFactories() {
		p, _ := topology.Compact(m, 12)
		k, _ := sim.New(sim.Config{Machine: m, Placement: p})
		b := factory(k, 12)
		exits := make([]float64, 12)
		k.Run(func(t *sim.Thread) {
			for e := 0; e < 3; e++ {
				// Alternate which thread is slow.
				if (e+t.ID())%4 == 0 {
					t.Compute(500)
				}
				b.Wait(t)
			}
			exits[t.ID()] = t.Now()
		})
		for id, x := range exits {
			if x < 500 {
				t.Fatalf("%s: thread %d finished at %g, before slow peers", name, id, x)
			}
		}
	}
}

func ExampleMeasure() {
	m := topology.ThunderX2()
	ns, err := Measure(m, 8, STOUR, MeasureOptions{Episodes: 5})
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Println(ns > 0)
	// Output: true
}
