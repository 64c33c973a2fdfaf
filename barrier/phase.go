package barrier

// Phase/level probes: the paper's whole argument is a per-phase
// decomposition — Arrival-Phase cost level by level up the tree
// (Eq. 1–2) versus Notification-Phase cost back down (Eq. 3–4) — but a
// barrier's Wait is externally one opaque interval. A PhaseProbe lets
// an observer see *inside* an episode: each tree algorithm marks the
// moment a participant finishes a level of the arrival phase and the
// moment its wake-up arrives, tagged with the level index, so the
// observer can reconstruct where the time went.
//
// The hooks follow the deadline discipline (see deadline.go): each
// participant's probe pointer sits in its owner line (see
// waitpolicy.go), which only its own goroutine writes; the probe is
// nil by default, and a disarmed probe point costs one plain load of
// that exclusively-owned line — no new atomics, no allocation, no
// branch on shared state. Observers arm the probe only for sampled
// rounds and disarm it after, so the steady state stays at the
// bare-Wait cost.

// Phase names the two halves of a barrier episode, matching the
// paper's vocabulary.
type Phase uint8

const (
	// PhaseArrival is the gather half: participants climb the tree,
	// losers signalling and winners collecting children level by level.
	PhaseArrival Phase = iota
	// PhaseWakeup is the Notification-Phase: the release propagating
	// from the champion back to every participant.
	PhaseWakeup
)

// NumPhases is how many Phase values exist (for sizing tables).
const NumPhases = 2

// String implements fmt.Stringer with the names exports use as the
// "phase" label value.
func (ph Phase) String() string {
	switch ph {
	case PhaseArrival:
		return "arrival"
	case PhaseWakeup:
		return "wakeup"
	}
	return "phase?"
}

// PhaseProbe receives per-level progress marks from a barrier whose
// probe is armed. PhasePoint is called on the participant's own
// goroutine at the moment the (phase, level) step completes: after a
// loser publishes its arrival flag, after a winner gathers its
// children for a level, after a wake-up flag is observed (or, for the
// champion, sent). The probe reads its own clock; the barrier passes
// no timestamp. Implementations must not block and must not call back
// into the barrier.
type PhaseProbe interface {
	PhasePoint(id int, phase Phase, level int)
}

// PhaseProber is implemented by the tree-structured barriers that can
// report phase/level progress (fway static+dynamic — and therefore
// optimized — combining, mcs, tournament, dissemination, hyper).
type PhaseProber interface {
	// SetPhaseProbe arms (non-nil) or disarms (nil) participant id's
	// probe. Owner-only: call it from participant id's goroutine, or
	// while the barrier is guaranteed quiescent.
	SetPhaseProbe(id int, pr PhaseProbe)
	// PhaseShape reports how many arrival and wakeup levels an episode
	// walks: every PhasePoint level satisfies 0 <= level < the count
	// for its phase. Dissemination-style barriers with no
	// Notification-Phase report wakeup == 0.
	PhaseShape() (arrival, wakeup int)
}

// SetPhaseProbe implements PhaseProber for every barrier embedding
// waitState.
func (w *waitState) SetPhaseProbe(id int, pr PhaseProbe) {
	if id < 0 || id >= len(w.owners) {
		panic("barrier: SetPhaseProbe participant out of range")
	}
	w.owners[id].probe = pr
}

// phasePoint marks a (phase, level) step for participant id. Disarmed
// — the steady state — it is one plain load of the participant's own
// owner line and a nil check.
func (w *waitState) phasePoint(id int, ph Phase, level int) {
	if pr := w.owners[id].probe; pr != nil {
		pr.PhasePoint(id, ph, level)
	}
}
