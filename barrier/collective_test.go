package barrier

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"armbarrier/topology"
)

// collectiveFactories enumerates every collective-capable barrier
// configuration under test: static tournaments across all three
// wake-up strategies, padded and packed, the dynamic tournament, the
// combining tree at two fan-ins, and the paper's optimized barrier.
func collectiveFactories() map[string]func(p int, opts ...Option) Collective {
	return map[string]func(p int, opts ...Option) Collective{
		"stour": func(p int, o ...Option) Collective { return NewStaticFWay(p, o...) },
		"dtour": func(p int, o ...Option) Collective { return NewDynamicFWay(p, o...) },
		"stour-pad": func(p int, o ...Option) Collective {
			return NewFWay(p, FWayConfig{Padded: true, Wakeup: WakeGlobal}, o...)
		},
		"stour-pad-bintree": func(p int, o ...Option) Collective {
			return NewFWay(p, FWayConfig{Padded: true, Wakeup: WakeBinaryTree}, o...)
		},
		"stour-pad-numatree": func(p int, o ...Option) Collective {
			return NewFWay(p, FWayConfig{Padded: true, Wakeup: WakeNUMATree, ClusterSize: 4}, o...)
		},
		"combining2": func(p int, o ...Option) Collective { return NewCombining(p, 2, o...) },
		"combining4": func(p int, o ...Option) Collective { return NewCombining(p, 4, o...) },
		"optimized": func(p int, o ...Option) Collective {
			return New(p, o...).(Collective)
		},
		"optimized-kp920": func(p int, o ...Option) Collective {
			return NewOptimized(p, OptimizedConfig{Machine: topology.Kunpeng920()}, o...)
		},
		"hier-g2": func(p int, o ...Option) Collective {
			return NewHierarchical(p, HierarchicalConfig{GroupSize: 2}, o...)
		},
		"hier-g4-f2": func(p int, o ...Option) Collective {
			return NewHierarchical(p, HierarchicalConfig{GroupSize: 4, FanIn: 2}, o...)
		},
		"hier-g1": func(p int, o ...Option) Collective {
			return NewHierarchical(p, HierarchicalConfig{GroupSize: 1}, o...)
		},
	}
}

// collectiveSizes deliberately includes 1, primes, powers of the
// common fan-ins and an off-by-one beyond a power of two.
var collectiveSizes = []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 33}

// serialReduce folds vals left to right — the reference every fused
// result must match bit-identically for int64 ops.
func serialReduce(vals []int64, op func(a, b int64) int64) int64 {
	acc := vals[0]
	for _, v := range vals[1:] {
		acc = op(acc, v)
	}
	return acc
}

// TestAllReduceMatchesSerial is the core property test: for random
// sizes and values, the fused in-tree allreduce must return the exact
// serial reduction to every participant, for every
// associative-and-commutative operator, on every configuration.
func TestAllReduceMatchesSerial(t *testing.T) {
	ops := map[string]func(a, b int64) int64{
		"sum": SumInt64,
		"min": MinInt64,
		"max": MaxInt64,
		"xor": func(a, b int64) int64 { return a ^ b },
	}
	const roundsPerOp = 5
	for name, mk := range collectiveFactories() {
		t.Run(name, func(t *testing.T) {
			for _, p := range collectiveSizes {
				rng := rand.New(rand.NewSource(int64(p)*1000 + int64(len(name))))
				c := mk(p)
				for opName, op := range ops {
					// vals[r][id] is participant id's contribution in round r.
					vals := make([][]int64, roundsPerOp)
					want := make([]int64, roundsPerOp)
					for r := range vals {
						vals[r] = make([]int64, p)
						for id := range vals[r] {
							vals[r][id] = rng.Int63() - rng.Int63()
						}
						want[r] = serialReduce(vals[r], op)
					}
					got := make([][]int64, roundsPerOp)
					for r := range got {
						got[r] = make([]int64, p)
					}
					Run(c, func(id int) {
						for r := 0; r < roundsPerOp; r++ {
							got[r][id] = AllReduceInt64(c, id, vals[r][id], op)
						}
					})
					for r := 0; r < roundsPerOp; r++ {
						for id := 0; id < p; id++ {
							if got[r][id] != want[r] {
								t.Fatalf("%s P=%d op=%s round=%d participant %d: got %d, want %d",
									name, p, opName, r, id, got[r][id], want[r])
							}
						}
					}
				}
			}
		})
	}
}

// TestAllReduceFloat64 checks the float64 wrapper: the tree-shaped
// combine order may differ from serial by reassociation rounding, so
// the comparison uses a relative tolerance.
func TestAllReduceFloat64(t *testing.T) {
	for name, mk := range collectiveFactories() {
		t.Run(name, func(t *testing.T) {
			for _, p := range []int{1, 3, 8, 16} {
				rng := rand.New(rand.NewSource(int64(p)))
				c := mk(p)
				vals := make([]float64, p)
				var want float64
				for id := range vals {
					vals[id] = rng.Float64()*2e6 - 1e6
					want += vals[id]
				}
				got := make([]float64, p)
				Run(c, func(id int) {
					got[id] = AllReduceFloat64(c, id, vals[id], SumFloat64)
				})
				tol := 1e-9 * math.Max(1, math.Abs(want))
				for id := 0; id < p; id++ {
					if math.Abs(got[id]-want) > tol {
						t.Fatalf("%s P=%d participant %d: got %v, want %v (tol %v)",
							name, p, id, got[id], want, tol)
					}
				}
			}
		})
	}
}

// TestBroadcastVaryingRoots rotates the root every round; every
// participant must see exactly the root's word each time.
func TestBroadcastVaryingRoots(t *testing.T) {
	const rounds = 12
	for name, mk := range collectiveFactories() {
		t.Run(name, func(t *testing.T) {
			for _, p := range []int{1, 2, 5, 8, 16} {
				c := mk(p)
				got := make([][]int64, rounds)
				for r := range got {
					got[r] = make([]int64, p)
				}
				Run(c, func(id int) {
					for r := 0; r < rounds; r++ {
						root := r % p
						v := int64(1000*root + r)
						if id != root {
							v = -1 // non-root inputs must be ignored
						}
						got[r][id] = BroadcastInt64(c, id, root, v)
					}
				})
				for r := 0; r < rounds; r++ {
					want := int64(1000*(r%p) + r)
					for id := 0; id < p; id++ {
						if got[r][id] != want {
							t.Fatalf("%s P=%d round=%d participant %d: got %d, want %d",
								name, p, r, id, got[r][id], want)
						}
					}
				}
			}
		})
	}
}

// TestCollectiveReuseAcrossRounds interleaves plain Wait episodes with
// AllReduce, Reduce and Broadcast rounds on one barrier instance; slot
// reuse (and the Broadcast double buffer) must keep every round's
// payload isolated from its neighbours.
func TestCollectiveReuseAcrossRounds(t *testing.T) {
	const cycles = 20
	for name, mk := range collectiveFactories() {
		t.Run(name, func(t *testing.T) {
			for _, p := range []int{2, 7, 8} {
				c := mk(p)
				sums := make([][]int64, cycles)
				bcasts := make([][]int64, cycles)
				reds := make([][]int64, cycles)
				for i := range sums {
					sums[i] = make([]int64, p)
					bcasts[i] = make([]int64, p)
					reds[i] = make([]int64, p)
				}
				Run(c, func(id int) {
					for i := 0; i < cycles; i++ {
						c.Wait(id)
						sums[i][id] = AllReduceInt64(c, id, int64(id+i), SumInt64)
						bcasts[i][id] = BroadcastInt64(c, id, i%p, int64(100*i+id))
						c.Wait(id)
						reds[i][id] = int64(c.Reduce(id, 0, uint64(id), func(a, b uint64) uint64 { return a + b }))
					}
				})
				for i := 0; i < cycles; i++ {
					wantSum := int64(p*(p-1)/2 + p*i)
					wantB := int64(100*i + i%p)
					wantR := int64(p * (p - 1) / 2)
					for id := 0; id < p; id++ {
						if sums[i][id] != wantSum {
							t.Fatalf("%s P=%d cycle %d: allreduce[%d]=%d, want %d", name, p, i, id, sums[i][id], wantSum)
						}
						if bcasts[i][id] != wantB {
							t.Fatalf("%s P=%d cycle %d: broadcast[%d]=%d, want %d", name, p, i, id, bcasts[i][id], wantB)
						}
						if reds[i][id] != wantR {
							t.Fatalf("%s P=%d cycle %d: reduce[%d]=%d, want %d", name, p, i, id, reds[i][id], wantR)
						}
					}
				}
			}
		})
	}
}

// TestCollectiveAllWaitPolicies runs the fused allreduce under every
// wait policy. Run under -race (make check and CI do) this doubles as
// the proof that the plain payload words are properly ordered by the
// flag atomics on the park/wake paths too.
func TestCollectiveAllWaitPolicies(t *testing.T) {
	// Pure spin progresses only through async preemption when
	// oversubscribed (see TestPolicyAlgorithmMatrix), so it runs a
	// smaller instance for fewer rounds.
	cases := map[string]struct {
		pol       WaitPolicy
		p, rounds int
	}{
		"spin":      {SpinWait(), 3, 3},
		"spinyield": {SpinYieldWait(), 8, 50},
		"spinpark":  {SpinParkWait(), 8, 50},
		"adaptive":  {AdaptiveWait(), 8, 50},
	}
	for pname, tc := range cases {
		for cname, mk := range collectiveFactories() {
			t.Run(pname+"/"+cname, func(t *testing.T) {
				t.Parallel()
				p, rounds := tc.p, tc.rounds
				c := mk(p, WithWaitPolicy(tc.pol))
				got := make([]int64, p)
				Run(c, func(id int) {
					var last int64
					for r := 0; r < rounds; r++ {
						last = AllReduceInt64(c, id, int64(id*r), SumInt64)
					}
					got[id] = last
				})
				want := int64(p * (p - 1) / 2 * (rounds - 1))
				for id, g := range got {
					if g != want {
						t.Fatalf("%s/%s participant %d: got %d, want %d", pname, cname, id, g, want)
					}
				}
			})
		}
	}
}

// TestCollectiveRootValidation: out-of-range roots and ids must panic
// like every other misuse in the package.
func TestCollectiveRootValidation(t *testing.T) {
	c := NewStaticFWay(4)
	for _, fn := range []func(){
		func() { c.Reduce(0, 4, 0, func(a, b uint64) uint64 { return a + b }) },
		func() { c.Broadcast(0, -1, 0) },
		func() { c.AllReduce(5, 0, func(a, b uint64) uint64 { return a + b }) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("misuse did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestFlatBarriersAreNotCollective documents which barriers opt out:
// flat algorithms have no tree to piggyback on, and callers must take
// the fallback path.
func TestFlatBarriersAreNotCollective(t *testing.T) {
	for name, b := range map[string]Barrier{
		"central":       NewCentral(4),
		"dissemination": NewDissemination(4),
		"mcs":           NewMCS(4),
	} {
		if _, ok := b.(Collective); ok {
			t.Errorf("%s unexpectedly implements Collective", name)
		}
	}
}

// TestPaddedWordLayout pins the payload slot to exactly one cacheline
// so a refactor cannot silently reintroduce false sharing between
// sibling payload slots.
func TestPaddedWordLayout(t *testing.T) {
	if s := unsafe.Sizeof(paddedWord{}); s != CacheLineSize {
		t.Fatalf("paddedWord is %d bytes, want %d", s, CacheLineSize)
	}
	var slots [2]paddedWord
	d := uintptr(unsafe.Pointer(&slots[1].v)) - uintptr(unsafe.Pointer(&slots[0].v))
	if d != CacheLineSize {
		t.Fatalf("adjacent payload slots %d bytes apart, want %d", d, CacheLineSize)
	}
}
