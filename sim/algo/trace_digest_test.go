package algo

import (
	"fmt"
	"hash/fnv"
	"testing"

	"armbarrier/sim"
	"armbarrier/topology"
)

// traceDigests pins an FNV-64a digest of the full event trace of a
// MeasureDetailed-shaped run (3 warm-up plus 10 timed episodes) at 64
// threads, per machine and algorithm. The golden cost table only checks
// end results; these digests check the interleaving itself — every
// operation's start time, thread, kind, address, sequence number, cost
// and dependency — so a scheduler change that reorders simultaneous
// operations fails here even when the final costs happen to agree.
var traceDigests = map[string]map[string]uint64{
	"phytium2000": {
		"gcc":       0x5dd6ab1c327a9dac,
		"llvm":      0x5adf351f5c22d32,
		"optimized": 0x85856334920384ea,
		"dis":       0x9301b4d6c0203fc1,
		"mcs":       0xccb9e1d47483532,
		"dtour":     0xde5c493dbdcdbdbe,
		"cmb":       0x3f0e449a9115a0b4,
	},
	"thunderx2": {
		"gcc":       0xa0714b0fc954dd6b,
		"llvm":      0xa22abff133b9b8a1,
		"optimized": 0x28c33c1045ef4634,
		"dis":       0xe360792006278daf,
		"mcs":       0xb67a0dd936db794,
		"dtour":     0xc8ad96f5d296d5ac,
		"cmb":       0xb4a3c4ae98f008d2,
	},
	"kunpeng920": {
		"gcc":       0x81b572df24386fac,
		"llvm":      0xb0495596e12126c8,
		"optimized": 0x120eab361f87837a,
		"dis":       0x374f12c3576cc12b,
		"mcs":       0x50428ad9b9f589c,
		"dtour":     0x942666f91e0bb5f7,
		"cmb":       0xaa2e1e4b014472e9,
	},
}

// traceDigestAlgorithms are the algorithms whose traces are pinned: the
// two runtime barriers, the paper's optimized barrier, and the flat,
// queue-based, tree and combining shapes between them.
var traceDigestAlgorithms = []string{"gcc", "llvm", "optimized", "dis", "mcs", "dtour", "cmb"}

func traceDigest(t *testing.T, m *topology.Machine, threads int, factory Factory) uint64 {
	t.Helper()
	place, err := topology.Compact(m, threads)
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	k, err := sim.New(sim.Config{Machine: m, Placement: place, Trace: func(e sim.Event) { fmt.Fprintf(h, "%+v\n", e) }})
	if err != nil {
		t.Fatal(err)
	}
	b := factory(k, threads)
	k.Run(func(th *sim.Thread) {
		for e := 0; e < 13; e++ {
			b.Wait(th)
		}
	})
	return h.Sum64()
}

func TestTraceDigestsPinned(t *testing.T) {
	for _, m := range topology.ARMMachines() {
		want := traceDigests[m.Name]
		for _, name := range traceDigestAlgorithms {
			got := traceDigest(t, m, 64, Registry[name])
			if w, ok := want[name]; !ok || got != w {
				t.Errorf("%s/%s at 64T: trace digest %#x, pinned %#x", m.Name, name, got, w)
			}
		}
	}
}
