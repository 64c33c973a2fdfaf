package barrier

import (
	"fmt"
	"sort"
	"sync/atomic"

	"armbarrier/model"
	"armbarrier/topology"
)

// WakeupKind selects the Notification-Phase strategy of an f-way
// tournament barrier (Section V-C of the paper).
type WakeupKind int

const (
	// WakeGlobal: the champion writes one shared sense flag that every
	// thread polls (Equation 3). Best on Kunpeng920.
	WakeGlobal WakeupKind = iota
	// WakeBinaryTree: the release propagates down the binary tree
	// n -> 2n+1, 2n+2 (Equation 4).
	WakeBinaryTree
	// WakeNUMATree: the paper's NUMA-aware tree (Equation 5); cluster
	// masters wake two other masters plus their cluster-local slaves.
	// Best on Phytium 2000+ and ThunderX2.
	WakeNUMATree
)

func (w WakeupKind) String() string {
	switch w {
	case WakeGlobal:
		return "global"
	case WakeBinaryTree:
		return "bintree"
	case WakeNUMATree:
		return "numatree"
	}
	return "wakeup?"
}

// FWayConfig configures an f-way tournament barrier.
type FWayConfig struct {
	// Schedule holds per-round fan-ins; nil selects the original
	// balanced schedule model.FanInSchedule(P, 8).
	Schedule []int
	// Padded places each arrival flag on its own cacheline (the
	// paper's Section V-B1 optimization). False packs flags 32-bit
	// dense, reproducing the original algorithm's sibling interference.
	Padded bool
	// Dynamic selects runtime winner election with per-group atomic
	// counters (DTOUR). Requires WakeGlobal.
	Dynamic bool
	// Wakeup selects the Notification-Phase strategy.
	Wakeup WakeupKind
	// ClusterSize is N_c for the NUMA-aware wake-up tree; 0 defaults
	// to 4 (the core-group size of Phytium 2000+ and Kunpeng920).
	ClusterSize int
	// Ranks optionally permutes participants: Ranks[id] is the
	// tournament rank of participant id. Use topology-aware ranks (see
	// ClusterMajorRanks) to keep early rounds inside a core cluster.
	// Nil means identity.
	Ranks []int
	// Name overrides the generated display name.
	Name string
}

// FWay is the static or dynamic f-way tournament barrier.
type FWay struct {
	p            int
	sched        []int
	participants []int
	dynamic      bool
	// Static arrival flags: flat per round; flags[r][g*(f-1)+(j-1)].
	flagsPadded [][]paddedUint32
	flagsPacked [][]atomic.Uint32
	padded      bool
	// Dynamic arrival counters, one per group per round.
	counters [][]fwayCounter
	// Wake-up state.
	wakeKind WakeupKind
	gsense   paddedUint32
	wakeFlag []paddedUint32
	// children[rank] holds the wake-up tree children, precomputed so
	// Wait performs no allocations.
	children [][]int
	// wakeDepth[rank] is the rank's depth in the wake-up tree (champion
	// 0); nil under the global wake-up. wakeLevels is the number of
	// distinct wake-up levels PhasePoint can report.
	wakeDepth  []int
	wakeLevels int
	ranks      []int
	// idOfRank inverts ranks: idOfRank[ranks[id]] == id. Wait sites run
	// in rank space but park lines are participant-indexed, so signals
	// map back through it.
	idOfRank []int
	local    []paddedUint32 // per-participant sense
	// Fused-collective state (see collective.go). payload[r][idx] is
	// the partial combined word arrival-tree index idx publishes at
	// round r: a loser stores its partial there before signalling its
	// arrival flag, so the winner's flag read already orders the
	// payload read after the write. down[rank] carries the combined
	// result one wake-up-tree edge (written before the wake flag);
	// result is the champion's word under the global wake-up; bcast is
	// the Broadcast root's word, double-buffered by sense because its
	// readers read *after* release (see FWay.Broadcast).
	payload [][]paddedWord
	down    []paddedWord
	result  paddedWord
	bcast   [2]paddedWord
	name    string
	waitState
}

type fwayCounter struct {
	v    atomic.Uint32
	size uint32
	_    [cacheLine - 8]byte
}

// NewFWay builds an f-way tournament barrier for p participants.
func NewFWay(p int, cfg FWayConfig, opts ...Option) *FWay {
	checkP(p, "fway")
	if cfg.Dynamic && cfg.Wakeup != WakeGlobal {
		panic("barrier: dynamic f-way tournament requires WakeGlobal")
	}
	sched := cfg.Schedule
	if sched == nil {
		sched = model.FanInSchedule(p, 8)
	}
	nc := cfg.ClusterSize
	if nc == 0 {
		nc = 4
	}
	ranks := cfg.Ranks
	if ranks == nil {
		ranks = make([]int, p)
		for i := range ranks {
			ranks[i] = i
		}
	} else {
		if err := validateRanks(p, ranks); err != nil {
			panic(err)
		}
		ranks = append([]int(nil), ranks...)
	}
	f := &FWay{
		p:            p,
		sched:        sched,
		participants: model.ScheduleLevels(p, sched),
		dynamic:      cfg.Dynamic,
		padded:       cfg.Padded,
		wakeKind:     cfg.Wakeup,
		ranks:        ranks,
		local:        make([]paddedUint32, p),
		name:         cfg.Name,
	}
	if f.name == "" {
		f.name = fwayName(cfg)
	}
	f.idOfRank = make([]int, p)
	for id, r := range f.ranks {
		f.idOfRank[r] = id
	}
	f.payload = make([][]paddedWord, len(sched))
	for r := range sched {
		f.payload[r] = make([]paddedWord, f.participants[r])
	}
	for r, fr := range sched {
		groups := (f.participants[r] + fr - 1) / fr
		switch {
		case cfg.Dynamic:
			cnts := make([]fwayCounter, groups)
			for g := range cnts {
				size := fr
				if rem := f.participants[r] - g*fr; rem < size {
					size = rem
				}
				cnts[g].size = uint32(size)
			}
			f.counters = append(f.counters, cnts)
		case cfg.Padded:
			f.flagsPadded = append(f.flagsPadded, make([]paddedUint32, groups*(fr-1)))
		default:
			f.flagsPacked = append(f.flagsPacked, make([]atomic.Uint32, groups*(fr-1)))
		}
	}
	switch cfg.Wakeup {
	case WakeGlobal:
	case WakeBinaryTree:
		f.wakeFlag = make([]paddedUint32, p)
		f.down = make([]paddedWord, p)
		f.children = make([][]int, p)
		for r := 0; r < p; r++ {
			f.children[r] = model.BinaryTreeChildren(r, p)
		}
	case WakeNUMATree:
		f.wakeFlag = make([]paddedUint32, p)
		f.down = make([]paddedWord, p)
		f.children = make([][]int, p)
		for r := 0; r < p; r++ {
			f.children[r] = model.NUMATreeChildren(r, p, nc)
		}
	default:
		panic(fmt.Sprintf("barrier: unknown wakeup kind %d", cfg.Wakeup))
	}
	f.wakeLevels = 1
	if f.children != nil {
		// Depths in the wake-up tree, precomputed so PhasePoint levels
		// cost an indexed load. BFS from the champion (rank 0).
		f.wakeDepth = make([]int, p)
		queue := []int{0}
		for len(queue) > 0 {
			r := queue[0]
			queue = queue[1:]
			for _, c := range f.children[r] {
				f.wakeDepth[c] = f.wakeDepth[r] + 1
				if f.wakeDepth[c] >= f.wakeLevels {
					f.wakeLevels = f.wakeDepth[c] + 1
				}
				queue = append(queue, c)
			}
		}
	}
	f.initWait(p, opts)
	return f
}

// PhaseShape implements PhaseProber: one arrival level per scheduled
// round; one wake-up level globally, or the tree depth under a tree
// wake-up.
func (f *FWay) PhaseShape() (arrival, wakeup int) {
	return len(f.sched), f.wakeLevels
}

// Schedule returns a copy of the per-level fan-in schedule, f_r for
// arrival level r — the model inputs a drift scoreboard needs to price
// each level (Eq. 1 terms).
func (f *FWay) Schedule() []int {
	out := make([]int, len(f.sched))
	copy(out, f.sched)
	return out
}

func fwayName(cfg FWayConfig) string {
	base := "stour"
	if cfg.Dynamic {
		base = "dtour"
	}
	if cfg.Padded {
		base += "-pad"
	}
	if cfg.Wakeup != WakeGlobal {
		base += "-" + cfg.Wakeup.String()
	}
	return base
}

func validateRanks(p int, ranks []int) error {
	if len(ranks) != p {
		return fmt.Errorf("barrier: %d ranks for %d participants", len(ranks), p)
	}
	seen := make([]bool, p)
	for id, r := range ranks {
		if r < 0 || r >= p {
			return fmt.Errorf("barrier: rank %d of participant %d out of range", r, id)
		}
		if seen[r] {
			return fmt.Errorf("barrier: duplicate rank %d", r)
		}
		seen[r] = true
	}
	return nil
}

// ClusterMajorRanks computes a rank permutation that orders
// participants cluster-by-cluster for a given machine and pinning, so
// the early tournament rounds synchronize within a core cluster. It is
// the software analogue of the paper's thread-grouping strategy.
func ClusterMajorRanks(m *topology.Machine, place topology.Placement) ([]int, error) {
	if err := place.Validate(m); err != nil {
		return nil, err
	}
	p := len(place)
	order := make([]int, p)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ca, cb := m.ClusterOf(place[order[a]]), m.ClusterOf(place[order[b]])
		if ca != cb {
			return ca < cb
		}
		return order[a] < order[b]
	})
	ranks := make([]int, p)
	for r, id := range order {
		ranks[id] = r
	}
	return ranks, nil
}

// Name implements Barrier.
func (f *FWay) Name() string { return f.name }

// Participants implements Barrier.
func (f *FWay) Participants() int { return f.p }

// Wait implements Barrier.
func (f *FWay) Wait(id int) {
	checkID(id, f.p, f.name)
	sense := 1 - f.local[id].v.Load()
	f.local[id].v.Store(sense)
	if f.p == 1 {
		return
	}
	rank := f.ranks[id]
	if f.dynamic {
		f.waitDynamic(id, rank, sense)
		return
	}
	f.waitStatic(id, rank, sense)
}

func (f *FWay) flag(r, idx int) *atomic.Uint32 {
	if f.padded {
		return &f.flagsPadded[r][idx].v
	}
	return &f.flagsPacked[r][idx]
}

func (f *FWay) waitStatic(id, rank int, sense uint32) {
	stride := 1
	for r := 0; r < len(f.sched); r++ {
		fr := f.sched[r]
		pidx := rank / stride
		group := pidx / fr
		j := pidx % fr
		if j != 0 {
			// Statically-determined loser: the group winner holds rank
			// group*fr*stride and polls my flag.
			f.signal(f.flag(r, group*(fr-1)+(j-1)), sense, f.idOfRank[group*fr*stride])
			f.phasePoint(id, PhaseArrival, r)
			f.wakeWait(id, rank, sense)
			return
		}
		for cj := 1; cj < fr; cj++ {
			if rank+cj*stride < f.p {
				f.wait(id, f.flag(r, group*(fr-1)+(cj-1)), sense)
			}
		}
		f.phasePoint(id, PhaseArrival, r)
		stride *= fr
	}
	f.wakeSignal(id, sense)
}

func (f *FWay) waitDynamic(id, rank int, sense uint32) {
	idx := rank
	for r := 0; r < len(f.sched); r++ {
		fr := f.sched[r]
		group := idx / fr
		cnt := &f.counters[r][group]
		if cnt.size > 1 {
			if cnt.v.Add(1) != cnt.size {
				f.phasePoint(id, PhaseArrival, r)
				f.wakeWait(id, rank, sense)
				return
			}
			cnt.v.Store(0)
		}
		f.phasePoint(id, PhaseArrival, r)
		idx = group
	}
	f.wakeSignal(id, sense)
}

// wakeSignal runs the champion's Notification-Phase.
func (f *FWay) wakeSignal(id int, sense uint32) {
	if f.wakeKind == WakeGlobal {
		f.signalAll(&f.gsense.v, sense, id)
		f.phasePoint(id, PhaseWakeup, 0)
		return
	}
	for _, c := range f.children[0] {
		f.signal(&f.wakeFlag[c].v, sense, f.idOfRank[c])
	}
	f.phasePoint(id, PhaseWakeup, 0)
}

// wakeWait blocks a non-champion until released, forwarding tree
// releases to its own subtree. The wake-up probe point stamps receipt
// — before the forwarding stores, so the forwarding cost lands in the
// children's marks, not the parent's.
func (f *FWay) wakeWait(id, rank int, sense uint32) {
	if f.wakeKind == WakeGlobal {
		f.wait(id, &f.gsense.v, sense)
		f.phasePoint(id, PhaseWakeup, 0)
		return
	}
	f.wait(id, &f.wakeFlag[rank].v, sense)
	f.phasePoint(id, PhaseWakeup, f.wakeDepth[rank])
	for _, kid := range f.children[rank] {
		f.signal(&f.wakeFlag[kid].v, sense, f.idOfRank[kid])
	}
}

// AllReduce implements Collective: the payload is combined up the same
// f-way tournament the arrival phase walks and the result rides the
// configured wake-up back down, one fused episode in total.
//
// Slot reuse is safe without double buffering, by the same argument
// that lets the sense flags be reused: a loser's round-r+1 payload
// store happens after its round-r wake-up, which happens after the
// champion's release, which happens after the parent's round-r payload
// read. The down slots are symmetric (the parent's round-r+1 store
// happens after the champion's round-r+1 release, which happens after
// every participant's round-r+1 arrival, which happens after the
// child's round-r read).
func (f *FWay) AllReduce(id int, v uint64, op CombineFunc) uint64 {
	checkID(id, f.p, f.name)
	sense := 1 - f.local[id].v.Load()
	f.local[id].v.Store(sense)
	if f.p == 1 {
		return v
	}
	rank := f.ranks[id]
	if f.dynamic {
		return f.allReduceDynamic(id, sense, v, op)
	}
	return f.allReduceStatic(id, rank, sense, v, op)
}

// Reduce implements Collective. The combined word is returned to every
// participant (the wake-up delivers it for free); root documents
// intent.
func (f *FWay) Reduce(id, root int, v uint64, op CombineFunc) uint64 {
	checkID(root, f.p, f.name)
	return f.AllReduce(id, v, op)
}

// allReduceStatic mirrors waitStatic with the payload carried along:
// a loser publishes its partial word before signalling its arrival
// flag; the winner reads each child's word after seeing the flag and
// combines in ascending child order (deterministic per tree shape).
func (f *FWay) allReduceStatic(id, rank int, sense uint32, w uint64, op CombineFunc) uint64 {
	stride := 1
	for r := 0; r < len(f.sched); r++ {
		fr := f.sched[r]
		pidx := rank / stride
		group := pidx / fr
		j := pidx % fr
		if j != 0 {
			f.payload[r][pidx].v = w
			f.signal(f.flag(r, group*(fr-1)+(j-1)), sense, f.idOfRank[group*fr*stride])
			return f.wakeWaitFused(id, rank, sense)
		}
		for cj := 1; cj < fr; cj++ {
			if rank+cj*stride < f.p {
				f.wait(id, f.flag(r, group*(fr-1)+(cj-1)), sense)
				w = op(w, f.payload[r][group*fr+cj].v)
			}
		}
		stride *= fr
	}
	f.wakeSignalFused(id, sense, w)
	return w
}

// allReduceDynamic mirrors waitDynamic: every group member publishes
// its word before the atomic counter increment, so the last arriver's
// increment orders all sibling payloads before its combine loop. The
// combine reads slots in ascending index order, keeping the result
// deterministic even though arrival order is not. Dynamic tournaments
// always use the global wake-up.
func (f *FWay) allReduceDynamic(id int, sense uint32, w uint64, op CombineFunc) uint64 {
	idx := f.ranks[id]
	for r := 0; r < len(f.sched); r++ {
		fr := f.sched[r]
		group := idx / fr
		cnt := &f.counters[r][group]
		if cnt.size > 1 {
			f.payload[r][idx].v = w
			if cnt.v.Add(1) != cnt.size {
				f.wait(id, &f.gsense.v, sense)
				return f.result.v
			}
			cnt.v.Store(0)
			lo := group * fr
			w = f.payload[r][lo].v
			for k := 1; k < int(cnt.size); k++ {
				w = op(w, f.payload[r][lo+k].v)
			}
		}
		idx = group
	}
	f.result.v = w
	f.signalAll(&f.gsense.v, sense, id)
	return w
}

// wakeSignalFused is the champion's Notification-Phase with the result
// riding along: stored before the wake flag so every waiter's flag
// read orders its result read after this write.
func (f *FWay) wakeSignalFused(id int, sense uint32, w uint64) {
	if f.wakeKind == WakeGlobal {
		f.result.v = w
		f.signalAll(&f.gsense.v, sense, id)
		return
	}
	for _, c := range f.children[0] {
		f.down[c].v = w
		f.signal(&f.wakeFlag[c].v, sense, f.idOfRank[c])
	}
}

// wakeWaitFused blocks a non-champion until released, reads the result
// off its wake edge, and forwards both release and result down its own
// subtree.
func (f *FWay) wakeWaitFused(id, rank int, sense uint32) uint64 {
	if f.wakeKind == WakeGlobal {
		f.wait(id, &f.gsense.v, sense)
		return f.result.v
	}
	f.wait(id, &f.wakeFlag[rank].v, sense)
	w := f.down[rank].v
	for _, kid := range f.children[rank] {
		f.down[kid].v = w
		f.signal(&f.wakeFlag[kid].v, sense, f.idOfRank[kid])
	}
	return w
}

// Broadcast implements Collective: the root publishes its word before
// its own arrival, the episode's release chain orders every read after
// that write, and everyone picks the word up after release. Readers
// read *after* release, so — unlike the up/down payload slots — a
// round-r read can race a round-r+1 root write; double buffering by
// sense separates the two (accesses to the same slot are then two full
// rounds apart, which the release chain does order).
func (f *FWay) Broadcast(id, root int, v uint64) uint64 {
	checkID(root, f.p, f.name)
	checkID(id, f.p, f.name)
	if f.p == 1 {
		return v
	}
	next := 1 - f.local[id].v.Load()
	if id == root {
		f.bcast[next].v = v
	}
	f.Wait(id)
	if id == root {
		return v
	}
	return f.bcast[next].v
}

var (
	_ Barrier     = (*FWay)(nil)
	_ SpinCounter = (*FWay)(nil)
	_ Collective  = (*FWay)(nil)
	_ PhaseProber = (*FWay)(nil)
)

// NewStaticFWay builds the original static f-way tournament (STOUR):
// balanced fan-ins, packed flags, global wake-up.
func NewStaticFWay(p int, opts ...Option) *FWay {
	return NewFWay(p, FWayConfig{Wakeup: WakeGlobal, Name: "stour"}, opts...)
}

// NewDynamicFWay builds the dynamic f-way tournament (DTOUR).
func NewDynamicFWay(p int, opts ...Option) *FWay {
	return NewFWay(p, FWayConfig{Dynamic: true, Wakeup: WakeGlobal, Name: "dtour"}, opts...)
}
