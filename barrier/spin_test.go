package barrier

import (
	"sync/atomic"
	"testing"
	"unsafe"
)

// spinBarriers enumerates every SpinCounter implementation for a given
// participant count.
func spinBarriers(p int) []Barrier {
	return []Barrier{
		NewCentral(p),
		NewDissemination(p),
		NewCombining(p, 2),
		NewMCS(p),
		NewTournament(p),
		NewStaticFWay(p),
		NewDynamicFWay(p),
		NewHyper(p),
		New(p),
	}
}

func TestSpinCountsDisabledByDefault(t *testing.T) {
	for _, b := range spinBarriers(4) {
		sc, ok := b.(SpinCounter)
		if !ok {
			t.Fatalf("%s does not implement SpinCounter", b.Name())
		}
		Run(b, func(id int) {
			for r := 0; r < 3; r++ {
				b.Wait(id)
			}
		})
		for id := 0; id < 4; id++ {
			if s, y := sc.SpinCounts(id); s != 0 || y != 0 {
				t.Fatalf("%s: counts %d/%d without EnableSpinCounts", b.Name(), s, y)
			}
		}
	}
}

func TestSpinCountsEnabled(t *testing.T) {
	const p, rounds = 4, 50
	for _, b := range spinBarriers(p) {
		sc := b.(SpinCounter)
		sc.EnableSpinCounts()
		Run(b, func(id int) {
			for r := 0; r < rounds; r++ {
				b.Wait(id)
			}
		})
		// On one or more cores, *some* participant must have polled at
		// least once per round: whoever arrives early spins on a flag.
		total := uint64(0)
		for id := 0; id < p; id++ {
			s, _ := sc.SpinCounts(id)
			total += s
		}
		if total == 0 {
			t.Errorf("%s: zero spins across %d rounds at P=%d", b.Name(), rounds, p)
		}
	}
}

func TestSpinCountsSingleParticipant(t *testing.T) {
	b := NewCentral(1)
	b.EnableSpinCounts()
	b.Wait(0)
	if s, y := b.SpinCounts(0); s != 0 || y != 0 {
		t.Fatalf("P=1 should never spin, got %d/%d", s, y)
	}
}

func TestSpinCountsOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for out-of-range participant")
		}
	}()
	NewCentral(2).SpinCounts(2)
}

// TestSpinCountPadding: the spin and yield counters live in each
// participant's owner line, so neighbouring participants' counters
// never share a line.
func TestSpinCountPadding(t *testing.T) {
	const p = 4
	w := parkingWaitState(p)
	w.EnableSpinCounts()
	for id := 1; id < p; id++ {
		prev := ownerFieldLines(w, id-1)
		for _, f := range []unsafe.Pointer{
			unsafe.Pointer(&w.owners[id].spins), unsafe.Pointer(&w.owners[id].yields),
		} {
			if prev[lineOf(f)] {
				t.Errorf("participant %d's spin counters share a line with participant %d's", id, id-1)
			}
		}
	}
}

// BenchmarkWaitReadyFlag measures the uninstrumented wait site on an
// already-set flag: the hot-path cost every barrier pays per flag wait.
func BenchmarkWaitReadyFlag(b *testing.B) {
	var w waitState
	w.initWait(1, nil)
	var f atomic.Uint32
	f.Store(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.wait(0, &f, 1)
	}
}

// BenchmarkWaitReadyFlagCounted is the same wait with spin counting
// on, bounding what instrumentation adds per completed wait.
func BenchmarkWaitReadyFlagCounted(b *testing.B) {
	var w waitState
	w.initWait(1, nil)
	w.EnableSpinCounts()
	var f atomic.Uint32
	f.Store(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.wait(0, &f, 1)
	}
}
