package sim

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"testing"

	"armbarrier/topology"
)

// Randomized robustness tests: the kernel must terminate and produce
// identical results for arbitrary spin-free programs, across machines
// and thread counts. Programs are generated from a seeded PRNG so
// failures are reproducible.

type randOp struct {
	kind    int // 0 load, 1 store, 2 atomic, 3 compute
	addr    int
	compute float64
}

func randProgram(rng *rand.Rand, nOps, nVars int) [][]randOp {
	threads := 1 + rng.Intn(16)
	progs := make([][]randOp, threads)
	for t := range progs {
		ops := make([]randOp, nOps)
		for i := range ops {
			ops[i] = randOp{
				kind:    rng.Intn(4),
				addr:    rng.Intn(nVars),
				compute: float64(rng.Intn(50)),
			}
		}
		progs[t] = ops
	}
	return progs
}

// runRandom executes one random program and returns (maxTime, stats).
// trace, if non-nil, receives every event.
func runRandom(t *testing.T, m *topology.Machine, progs [][]randOp, packed bool, trace func(Event)) (float64, Stats) {
	t.Helper()
	place, err := topology.Compact(m, len(progs))
	if err != nil {
		t.Fatal(err)
	}
	k, err := New(Config{Machine: m, Placement: place, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	const nVars = 12
	var vars []Addr
	if packed {
		vars = k.Alloc(nVars)
	} else {
		vars = k.AllocPadded(nVars)
	}
	k.Run(func(th *Thread) {
		for _, op := range progs[th.ID()] {
			switch op.kind {
			case 0:
				th.Load(vars[op.addr])
			case 1:
				th.Store(vars[op.addr], uint64(op.addr))
			case 2:
				th.FetchAdd(vars[op.addr], 1)
			case 3:
				th.Compute(op.compute)
			}
		}
	})
	return k.MaxTime(), k.Stats()
}

func TestRandomProgramsTerminateDeterministically(t *testing.T) {
	machines := topology.AllMachines()
	for seed := int64(1); seed <= 25; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := machines[rng.Intn(len(machines))]
		progs := randProgram(rng, 40, 12)
		packed := rng.Intn(2) == 0
		t1, s1 := runRandom(t, m, progs, packed, nil)
		t2, s2 := runRandom(t, m, progs, packed, nil)
		if t1 != t2 || s1 != s2 {
			t.Fatalf("seed %d on %s: nondeterministic (%g/%g, %+v vs %+v)", seed, m.Name, t1, t2, s1, s2)
		}
		if t1 <= 0 {
			t.Fatalf("seed %d: no time elapsed", seed)
		}
	}
}

// TestRandomProgramTraceDigestPinned pins an FNV-64a digest of every
// event of one seeded 15-thread program on packed lines, so the order in
// which the scheduler interleaves simultaneous operations is checked
// directly, not only through the final clocks and counters.
func TestRandomProgramTraceDigestPinned(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	progs := randProgram(rng, 200, 12)
	if len(progs) != 15 {
		t.Fatalf("seed 7 generated %d threads, want 15", len(progs))
	}
	h := fnv.New64a()
	runRandom(t, topology.Kunpeng920(), progs, true, func(e Event) { fmt.Fprintf(h, "%+v\n", e) })
	const want uint64 = 0x9577931689948162
	if got := h.Sum64(); got != want {
		t.Fatalf("trace digest %#x, pinned %#x", got, want)
	}
}

func TestRandomProgramsMonotoneUnderCompute(t *testing.T) {
	// Adding compute time to one thread must never reduce the global
	// completion time.
	rng := rand.New(rand.NewSource(7))
	m := topology.Phytium2000()
	progs := randProgram(rng, 30, 12)
	base, _ := runRandom(t, m, progs, false, nil)
	// Inflate thread 0's compute ops.
	for i := range progs[0] {
		if progs[0][i].kind == 3 {
			progs[0][i].compute += 5000
		}
	}
	progs[0] = append(progs[0], randOp{kind: 3, compute: 5000})
	inflated, _ := runRandom(t, m, progs, false, nil)
	if inflated < base {
		t.Fatalf("adding work reduced completion: %g -> %g", base, inflated)
	}
}

func TestRandomAtomicsSumCorrectly(t *testing.T) {
	// All FetchAdds must be applied exactly once regardless of
	// interleaving: verify the final counter value through a reader.
	for seed := int64(1); seed <= 10; seed++ {
		rng := rand.New(rand.NewSource(seed))
		m := topology.Kunpeng920()
		threads := 2 + rng.Intn(14)
		adds := make([]int, threads)
		total := uint64(0)
		for i := range adds {
			adds[i] = rng.Intn(20)
			total += uint64(adds[i])
		}
		place, err := topology.Compact(m, threads)
		if err != nil {
			t.Fatal(err)
		}
		k, err := New(Config{Machine: m, Placement: place})
		if err != nil {
			t.Fatal(err)
		}
		c := k.AllocPadded(1)[0]
		done := k.AllocPadded(1)[0]
		var final uint64
		k.Run(func(th *Thread) {
			for i := 0; i < adds[th.ID()]; i++ {
				th.FetchAdd(c, 1)
			}
			if th.FetchAdd(done, 1) == uint64(threads-1) {
				final = th.Load(c)
			}
		})
		if final != total {
			t.Fatalf("seed %d: counter = %d, want %d", seed, final, total)
		}
	}
}
