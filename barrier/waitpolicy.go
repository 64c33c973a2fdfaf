package barrier

// Wait policies: how a participant waits for a flag it does not yet
// see. The algorithms in this package decide *who* waits on *what*
// (the tree shape); the wait policy decides *how* — and once P exceeds
// GOMAXPROCS the waiting discipline, not the tree shape, dominates
// cost: a spinning waiter burns the scheduler quantum of the very
// goroutine it is waiting for. Four policies are provided:
//
//   - SpinWait       — pure spinning with exponential poll backoff;
//     never yields. Lowest latency when every participant owns a core
//     and nothing else wants it.
//   - SpinYieldWait  — spin with exponential backoff, then yield to
//     the Go scheduler between polls. The default: near-spin latency
//     dedicated, guaranteed progress oversubscribed.
//   - SpinParkWait   — bounded spin, brief yielding, then park the
//     goroutine on a per-participant cacheline-padded semaphore so the
//     scheduler can run stragglers. The releasing side wakes only
//     actually-parked waiters via a parked-bit CAS, so the
//     dedicated-core fast path pays one extra load per signal and no
//     extra read-modify-write.
//   - AdaptiveWait   — starts as SpinYieldWait and switches each
//     participant to the parking discipline when its observed
//     yields-per-wait (the same yield counts SpinCounts reports) cross
//     a threshold, switching back when waits become yield-free.
//
// Every policy runs the same poll loop (waitState.wait) and the same
// park routine. Per participant the wait site keeps two padded lines:
// an owner line with everything only the participant writes (deadline,
// phase probe, counters, adaptive tally) and, under the parking
// policies, a park line with what releasers write (the parked bit, its
// wake channel and the wake counter).
//
// Select a policy with the WithWaitPolicy constructor option:
//
//	b := barrier.New(p, barrier.WithWaitPolicy(barrier.SpinParkWait()))
//
// The zero configuration keeps today's spin-yield behaviour.

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"time"
	"unsafe"

	"armbarrier/internal/pad"
)

// waitKind enumerates the wait disciplines. The zero value is the
// spin-yield default so a zero WaitPolicy means "unchanged behaviour".
type waitKind uint8

const (
	waitSpinYield waitKind = iota
	waitSpin
	waitSpinPark
	waitAdaptive
)

// WaitPolicy selects how participants wait inside a barrier. The zero
// value is SpinYieldWait. Values are comparable.
type WaitPolicy struct {
	kind waitKind
}

// SpinWait returns the pure-spin policy: exponential poll backoff,
// never a scheduler yield. Use only when each participant owns a core.
func SpinWait() WaitPolicy { return WaitPolicy{kind: waitSpin} }

// SpinYieldWait returns the default policy: exponential poll backoff
// up to spinYieldEvery, then a scheduler yield between polls.
func SpinYieldWait() WaitPolicy { return WaitPolicy{kind: waitSpinYield} }

// SpinParkWait returns the parking policy: bounded spin, a few yields,
// then park on a per-participant semaphore until a releaser wakes the
// waiter. The right choice when P > GOMAXPROCS.
func SpinParkWait() WaitPolicy { return WaitPolicy{kind: waitSpinPark} }

// AdaptiveWait returns the self-tuning policy: each participant starts
// with the spin-yield discipline and switches itself to parking when
// its recent waits average at least one scheduler yield each (and back
// when they become yield-free again).
func AdaptiveWait() WaitPolicy { return WaitPolicy{kind: waitAdaptive} }

// String implements fmt.Stringer with the names the -wait flags use.
func (p WaitPolicy) String() string {
	switch p.kind {
	case waitSpin:
		return "spin"
	case waitSpinYield:
		return "spinyield"
	case waitSpinPark:
		return "spinpark"
	case waitAdaptive:
		return "adaptive"
	}
	return "wait?"
}

// ParseWaitPolicy parses a policy name as printed by String.
func ParseWaitPolicy(s string) (WaitPolicy, error) {
	switch s {
	case "spin":
		return SpinWait(), nil
	case "spinyield", "":
		return SpinYieldWait(), nil
	case "spinpark":
		return SpinParkWait(), nil
	case "adaptive":
		return AdaptiveWait(), nil
	}
	return WaitPolicy{}, fmt.Errorf("barrier: unknown wait policy %q (have spin, spinyield, spinpark, adaptive)", s)
}

// mayPark reports whether the policy can ever park, i.e. whether park
// slots must be allocated.
func (p WaitPolicy) mayPark() bool {
	return p.kind == waitSpinPark || p.kind == waitAdaptive
}

// Option configures a barrier constructor. All constructors in this
// package accept trailing options; omitting them keeps the zero-config
// behaviour.
type Option func(*waitState)

// WithWaitPolicy selects the wait discipline for every wait site of
// the constructed barrier.
func WithWaitPolicy(p WaitPolicy) Option {
	return func(w *waitState) { w.policy = p }
}

// parkAfterYields is how many scheduler yields a parking waiter takes
// after its spin budget before it commits to parking: a straggler that
// is merely descheduled usually arrives within a yield or two, and a
// park/wake pair costs two scheduler transitions.
const parkAfterYields = 2

// neverPark is the yield budget of a waiter that may not park.
const neverPark = ^uint64(0)

// adaptWindow is how many waits an adaptive participant observes
// before re-deciding its discipline.
const adaptWindow = 64

// ownerState is everything one participant's wait site keeps that only
// that participant's goroutine writes. Keeping it on one line means a
// Wait touches one line of its own besides the flags it polls, however
// many features (deadlines, probes, counters, adaptation) are on.
type ownerState struct {
	// at is the armed deadline in monotonic ns, 0 while disarmed (see
	// deadline.go); probe is the phase probe, nil while disarmed (see
	// phase.go). Both are plain fields: the bare-Wait fast path pays one
	// non-atomic load of this exclusively-owned line for each.
	at    int64
	probe PhaseProbe
	// spins and yields are the SpinCounter poll statistics, parks the
	// ParkCounter park count. Atomics only so a concurrent snapshot
	// stays race-free; the owner is the sole writer.
	spins  atomic.Uint64
	yields atomic.Uint64
	parks  atomic.Uint64
	// waits, tally and park are the adaptive policy's window: waits
	// observed, yields they took, and the current decision.
	waits uint64
	tally uint64
	park  bool
}

// ownerLine pads ownerState to a full line multiple (the shared
// internal/pad trailing-pad formula) so neighbouring participants'
// owner lines never share a line.
type ownerLine struct {
	ownerState
	_ [pad.CacheLine - unsafe.Sizeof(ownerState{})%pad.CacheLine]byte
}

// parkState is one participant's parking place: a one-token semaphore
// plus the parked bit the release side inspects. Releasers write it, so
// it lives apart from the owner line: a release never invalidates the
// owner's private state.
type parkState struct {
	// state is 1 while the owner is parked or committing to park.
	state atomic.Uint32
	// wakes counts tokens releasers handed the owner.
	wakes atomic.Uint64
	ch    chan struct{}
}

// parkLine pads parkState to a full line multiple.
type parkLine struct {
	parkState
	_ [pad.CacheLine - unsafe.Sizeof(parkState{})%pad.CacheLine]byte
}

// waitState is the embeddable wait-site implementation shared by every
// spin barrier in this package: the configured wait policy plus, per
// participant, one owner line and (under parking policies) one park
// line. Constructors call initWait(p, opts).
type waitState struct {
	policy WaitPolicy
	// backoff is the first pause of the poll loop's spin ladder;
	// spinYieldEvery skips the ladder (see NewHierarchical's eager
	// parking).
	backoff uint32
	// counting is set by EnableSpinCounts before any Wait.
	counting bool
	owners   []ownerLine
	parking  []parkLine // non-nil iff the policy may park
}

// initWait applies the constructor options and allocates whatever the
// chosen policy needs.
func (w *waitState) initWait(p int, opts []Option) {
	w.backoff = 1
	for _, o := range opts {
		o(w)
	}
	w.owners = make([]ownerLine, p)
	if w.policy.mayPark() {
		w.parking = make([]parkLine, p)
		for i := range w.parking {
			w.parking[i].ch = make(chan struct{}, 1)
		}
	}
}

// WaitPolicy returns the policy the barrier was constructed with.
func (w *waitState) WaitPolicy() WaitPolicy { return w.policy }

// EnableSpinCounts implements SpinCounter.
func (w *waitState) EnableSpinCounts() { w.counting = true }

// SpinCounts implements SpinCounter.
func (w *waitState) SpinCounts(id int) (spins, yields uint64) {
	if id < 0 || id >= len(w.owners) {
		panic(fmt.Sprintf("barrier: SpinCounts participant %d outside [0,%d)", id, len(w.owners)))
	}
	o := &w.owners[id]
	return o.spins.Load(), o.yields.Load()
}

// ParkCounter is implemented by barriers whose wait policy can park.
// Unlike SpinCounter, the counters are always on: parking and waking
// are already scheduler-priced slow paths, so counting them is free by
// comparison.
type ParkCounter interface {
	// ParkCounts returns how many times participant id parked and how
	// many wake tokens releasers handed it. Both are zero under
	// non-parking policies. Safe to call while the barrier is in use.
	ParkCounts(id int) (parks, wakes uint64)
}

// ParkCounts implements ParkCounter.
func (w *waitState) ParkCounts(id int) (parks, wakes uint64) {
	if id < 0 || id >= len(w.owners) {
		panic(fmt.Sprintf("barrier: ParkCounts participant %d outside [0,%d)", id, len(w.owners)))
	}
	if w.parking == nil {
		return 0, 0
	}
	return w.owners[id].parks.Load(), w.parking[id].wakes.Load()
}

// wait blocks participant id until *f == want. It is the package's
// one poll loop, and every wait site funnels through it. The policy
// fixes the loop's inputs: the starting backoff, whether it may yield,
// how many yields precede parking, and the armed deadline.
//
// The pause between polls backs off exponentially from w.backoff up to
// spinYieldEvery, so an early arrival stays off the flag's cacheline.
// Once the ladder is spent the waiter yields to the Go scheduler
// between polls, except under SpinWait, which keeps pausing
// spinYieldEvery iterations (Go's asynchronous preemption keeps that
// safe, though not fast, on shared cores). The parking disciplines
// park after parkAfterYields yields. An armed deadline (see
// deadline.go) may always yield, parks with a timer whenever the
// policy can park at all, and is checked only past the ladder — a
// clock read costs more than the spin fast path saves; expiry throws
// timeoutSignal. The yields taken feed the adaptive policy.
func (w *waitState) wait(id int, f *atomic.Uint32, want uint32) {
	o := &w.owners[id]
	backoff, dl := w.backoff, o.at
	yield := w.policy.kind != waitSpin || dl != 0
	parkAfter := neverPark
	if w.parking != nil && (dl != 0 || o.park || w.policy.kind == waitSpinPark) {
		parkAfter = parkAfterYields
	}
	var spins, yields uint64
	for f.Load() != want {
		spins++
		if backoff < spinYieldEvery {
			pause(backoff)
			backoff <<= 1
			continue
		}
		if dl != 0 && monons() >= dl {
			w.count(o, spins, yields)
			panic(timeoutSignal{id: id})
		}
		if yields >= parkAfter {
			// The counts are added after the park, not before it: the
			// atomics would delay the parked-bit publish, which cost
			// about 10% per oversubscribed SpinParkWait episode with
			// counting on (P=8, 2 vCPUs).
			w.park(id, f, want, dl)
			break
		}
		if !yield {
			pause(backoff)
			continue
		}
		yields++
		runtime.Gosched()
	}
	w.count(o, spins, yields)
	if w.policy.kind == waitAdaptive {
		o.note(yields)
	}
}

// note folds one wait's yield count into the adaptive decision: after
// adaptWindow waits, park when they averaged >= 1 yield each, go back
// to spinning when at most one wait in four yielded at all.
func (o *ownerState) note(yields uint64) {
	o.waits++
	o.tally += yields
	if o.waits < adaptWindow {
		return
	}
	switch {
	case o.tally >= o.waits:
		o.park = true
	case o.tally*4 <= o.waits:
		o.park = false
	}
	o.waits, o.tally = 0, 0
}

// count folds a wait's poll statistics into the participant's owner
// line when counting is on, so the uninstrumented path pays a single
// predictable branch and no atomics.
func (w *waitState) count(o *ownerLine, spins, yields uint64) {
	if w.counting {
		o.spins.Add(spins)
		o.yields.Add(yields)
	}
}

// park blocks participant id until *f == want, or — when dl is
// non-zero — until the monotonic deadline dl passes, which throws
// timeoutSignal after leaving the park line clean.
//
// The protocol is the classic futex-style handshake, relying on the
// sequential consistency of Go's atomics: the waiter publishes its
// parked bit *before* re-checking the flag; the releaser stores the
// flag *before* checking the parked bit. Whichever order the two
// interleave in, either the waiter sees the flag set and returns, or
// the releaser sees the parked bit and hands over a token. A stale
// token (from a release that raced with the waiter's own flag check)
// only causes a spurious wake; the loop re-checks the flag and parks
// again.
func (w *waitState) park(id int, f *atomic.Uint32, want uint32, dl int64) {
	s := &w.parking[id]
	for {
		s.state.Store(1)
		if f.Load() == want {
			s.state.Store(0)
			// Drain the token a racing releaser may have deposited so it
			// cannot spuriously wake the next park.
			select {
			case <-s.ch:
			default:
			}
			return
		}
		w.owners[id].parks.Add(1)
		if dl == 0 {
			<-s.ch // the releaser's CAS already cleared state
		} else if !s.tokenBefore(dl) {
			if f.Load() == want {
				return // the flag landed right at the wire
			}
			panic(timeoutSignal{id: id})
		}
		if f.Load() == want {
			return
		}
	}
}

// tokenBefore is park's bounded receive: it waits for a releaser's
// token until the monotonic deadline dl, and on expiry withdraws the
// parked bit and reports false. A fresh timer per bounded park keeps
// the Reset/drain rules out of the picture — parking is already a
// scheduler-priced slow path. It lives outside park because the timer
// and select would triple park's stack frame, and a woken waiter
// resumes through that frame: on the 2-vCPU reference host the larger
// frame cost the parked hand-off about 200 ns.
func (s *parkState) tokenBefore(dl int64) bool {
	t := time.NewTimer(time.Duration(dl - monons()))
	select {
	case <-s.ch: // the releaser's CAS already cleared state
		t.Stop()
		return true
	case <-t.C:
		s.cancel()
		return false
	}
}

// cancel withdraws a published parked bit. If a releaser already
// claimed it (the CAS fails), its wake token is in flight or buffered;
// receive it so it cannot spuriously wake the next park. The blocking
// receive is safe: a failed CAS means the releaser is committed to the
// send, which cannot block (capacity-1 channel, sole receiver here).
func (s *parkState) cancel() {
	if !s.state.CompareAndSwap(1, 0) {
		<-s.ch
	}
}

// signal stores v into the wait flag f and wakes the participant known
// to wait on it, if it parked. Pass waiter < 0 when no participant
// ever waits on the flag. Under non-parking policies this is a plain
// store; under parking ones the fast path adds one load of the
// waiter's parked bit.
func (w *waitState) signal(f *atomic.Uint32, v uint32, waiter int) {
	f.Store(v)
	if w.parking == nil || waiter < 0 {
		return
	}
	w.unpark(waiter)
}

// signalAll stores v into a globally-polled flag (a sense word every
// other participant waits on) and wakes every parked waiter except
// self.
func (w *waitState) signalAll(f *atomic.Uint32, v uint32, self int) {
	f.Store(v)
	if w.parking == nil {
		return
	}
	for i := range w.parking {
		if i != self {
			w.unpark(i)
		}
	}
}

// signalGroup stores v into a flag any member of ids may be waiting on
// (e.g. a cluster whose current representative is episode-dependent)
// and wakes the parked ones, skipping self.
func (w *waitState) signalGroup(f *atomic.Uint32, v uint32, ids []int, self int) {
	f.Store(v)
	if w.parking == nil {
		return
	}
	for _, i := range ids {
		if i != self {
			w.unpark(i)
		}
	}
}

// unpark hands participant i a wake token iff it is parked. The
// parked-bit load keeps the no-parked-waiter path to a single read;
// the CAS ensures exactly one releaser delivers the token.
func (w *waitState) unpark(i int) {
	s := &w.parking[i]
	if s.state.Load() == 1 && s.state.CompareAndSwap(1, 0) {
		s.wakes.Add(1)
		select {
		case s.ch <- struct{}{}:
		default:
		}
	}
}

// pause spins the calling core for roughly n no-op iterations between
// polls — cheap backoff that keeps a hot flag's cacheline from being
// hammered. The gc compiler does not eliminate empty loops.
func pause(n uint32) {
	for i := uint32(0); i < n; i++ { //nolint:revive // intentional busy-wait
	}
}
