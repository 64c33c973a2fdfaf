package main

import (
	"testing"
	"time"

	"armbarrier/barrier"
)

var (
	_ barrier.Collective  = (*timedBarrier)(nil)
	_ barrier.SpinCounter = (*timedBarrier)(nil)
	_ barrier.ParkCounter = (*timedBarrier)(nil)
)

// lateReduce runs one fused reduce in which block 1 arrives late, so
// participant 0 waits inside the barrier long enough to spin, yield or
// park.
func lateReduce(t *testing.T, st *bspStack) {
	t.Helper()
	got := st.team.ReduceFloat64(2, 0, func(i int) float64 {
		if i == 1 {
			time.Sleep(5 * time.Millisecond)
		}
		return float64(i + 1)
	})
	if got != 3 {
		t.Fatalf("ReduceFloat64 = %v, want 3", got)
	}
	st.team.For(2, func(int, int) {})
}

// TestTracedStackTakesSamePaths checks that the timing decorator keeps
// omp on the fused reduce path and keeps the wait-site counters
// readable, on both bsp stacks.
func TestTracedStackTakesSamePaths(t *testing.T) {
	for _, skewed := range []bool{false, true} {
		plain, err := newBSPStack(2, skewed, false)
		if err != nil {
			t.Fatal(err)
		}
		traced, err := newBSPStack(2, skewed, true)
		if err != nil {
			t.Fatal(err)
		}
		lateReduce(t, plain)
		lateReduce(t, traced)
		if !skewed {
			for name, st := range map[string]*bspStack{"untraced": plain, "traced": traced} {
				snap := st.ins.Snapshot()
				if snap.PerParti[0].FusedRounds == 0 {
					t.Errorf("bsp-fine %s: no fused rounds, the reduce left the fused path", name)
				}
				if snap.PerParti[0].Spins == 0 {
					t.Errorf("bsp-fine %s: spin counts read 0", name)
				}
			}
		}
		plain.close()
		traced.close()
		_, allreduces := traced.timed.results()
		if len(allreduces.held()) == 0 {
			t.Errorf("skewed=%v: the traced team never called AllReduce", skewed)
		}
		spins, _, parks, _ := traced.timed.counts()
		if spins == 0 {
			t.Errorf("skewed=%v: spin counts through the decorator read 0", skewed)
		}
		if skewed && parks == 0 {
			t.Errorf("bsp-skewed: park counts through the decorator read 0 after a 5ms wait")
		}
	}
}

func TestNewTimedRefusesBarrierWithoutCollective(t *testing.T) {
	if _, err := newTimed(barrier.NewCentral(2)); err == nil {
		t.Fatal("newTimed accepted a barrier without fused collectives")
	}
}
