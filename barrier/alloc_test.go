package barrier

import (
	"runtime"
	"testing"
)

// TestWaitSteadyStateDoesNotAllocate pins the zero-allocation property
// of the spin barriers' hot path: after construction, thousands of
// episodes must allocate (almost) nothing. A regression here (e.g.
// computing tree children per Wait) costs GC pressure exactly where
// latency matters.
func TestWaitSteadyStateDoesNotAllocate(t *testing.T) {
	barriers := []Barrier{
		NewCentral(4),
		NewDissemination(4),
		NewCombining(4, 2),
		NewMCS(4),
		NewTournament(4),
		NewStaticFWay(4),
		NewDynamicFWay(4),
		NewHyper(4),
		New(4),
		NewHierarchical(4, HierarchicalConfig{GroupSize: 2}),
	}
	for _, b := range barriers {
		b := b
		// Warm up (first episodes may fault pages).
		Run(b, func(id int) {
			for e := 0; e < 10; e++ {
				b.Wait(id)
			}
		})
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		Run(b, func(id int) {
			for e := 0; e < 2000; e++ {
				b.Wait(id)
			}
		})
		runtime.ReadMemStats(&after)
		// Run itself starts goroutines (a handful of allocations);
		// 2000 episodes x 4 participants must not add per-Wait allocs.
		if got := after.Mallocs - before.Mallocs; got > 200 {
			t.Errorf("%s: %d allocations over 8000 Waits — hot path allocates", b.Name(), got)
		}
	}
}
