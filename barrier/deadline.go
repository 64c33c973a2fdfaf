package barrier

// Bounded waits: every spin barrier in this package implements
// DeadlineWaiter, so a participant can give up instead of wedging
// forever when a peer never arrives — a panicking region body, a killed
// goroutine, a stalled straggler. The paper's barriers assume arrival
// is guaranteed; a production runtime cannot.
//
// Semantics: WaitDeadline behaves exactly like Wait until the timeout
// elapses, then returns a *TimeoutError. By that point the caller's
// arrival is usually already visible to the other participants (the
// counter was incremented, the flag was set), so a timed-out episode
// leaves the barrier POISONED: no participant may call Wait or
// WaitDeadline on it again. Timeouts are for diagnosis and clean
// shutdown — report which peers are missing (see Watchdog), release
// resources, build a fresh barrier — not for retrying the episode.
// This is the same reason pthread_barrier_wait has no timed variant;
// here the trade is made explicit and bounded.
//
// Implementation: WaitDeadline arms the deadline field of the
// participant's owner line (see waitpolicy.go) and runs the ordinary
// Wait. Every wait site already funnels through waitState.wait, the
// one poll loop, which reads the deadline — a plain load of the line
// the wait touches anyway, no new atomics — and checks the clock only
// when it is armed, parking with a timer where the policy parks.
// Expiry unwinds the algorithm's Wait with a private panic value that
// WaitDeadline recovers into the returned error, so the tree
// algorithms need no error plumbing through their arrival and wake-up
// phases.

import (
	"errors"
	"fmt"
	"time"
)

// ErrWaitTimeout matches any *TimeoutError via errors.Is.
var ErrWaitTimeout = errors.New("barrier: wait deadline exceeded")

// TimeoutError reports a bounded wait that expired before the episode
// completed. The barrier is poisoned once any participant times out;
// see the package comment on bounded waits.
type TimeoutError struct {
	// Barrier is the Name() of the barrier that timed out.
	Barrier string
	// ID is the participant whose wait expired.
	ID int
	// Timeout is the budget that was exceeded.
	Timeout time.Duration
}

// Error implements error.
func (e *TimeoutError) Error() string {
	return fmt.Sprintf("barrier: %s: participant %d gave up after %v: %v",
		e.Barrier, e.ID, e.Timeout, ErrWaitTimeout)
}

// Is reports true for ErrWaitTimeout, so callers can match with
// errors.Is without keeping the concrete type around.
func (e *TimeoutError) Is(target error) bool { return target == ErrWaitTimeout }

// DeadlineWaiter is a Barrier whose waits can be bounded. Every
// barrier in this package implements it.
type DeadlineWaiter interface {
	Barrier
	// WaitDeadline is Wait with a time budget: it returns nil once all
	// participants of the round arrived, or a *TimeoutError if timeout
	// elapsed first. A timeout poisons the barrier for every
	// participant. A non-positive timeout expires immediately.
	WaitDeadline(id int, timeout time.Duration) error
}

// TryWait arrives at the barrier and succeeds only if the episode
// completes without blocking — i.e. the caller is (effectively) the
// last arriver. A false return is a timeout and poisons the barrier
// like any other expired bounded wait.
func TryWait(b DeadlineWaiter, id int) bool {
	return b.WaitDeadline(id, 0) == nil
}

// epoch anchors the package's monotonic clock. time.Since on a
// monotonic base compiles to one runtime.nanotime call.
var epoch = time.Now()

// monons returns monotonic nanoseconds since package init; always > 0
// by the time any barrier runs, so 0 can serve as "disarmed"/"absent".
func monons() int64 { return int64(time.Since(epoch)) }

// timeoutSignal is the private panic value an expired bounded wait
// throws to unwind the algorithm's Wait; runDeadline recovers it.
type timeoutSignal struct{ id int }

// runDeadline is the shared WaitDeadline implementation: arm the
// deadline in the participant's owner line, run the barrier's ordinary
// Wait, and translate the timeout unwind into an error. Each
// algorithm's WaitDeadline method is a one-line wrapper around it.
func (w *waitState) runDeadline(b Barrier, id int, timeout time.Duration) (err error) {
	checkID(id, len(w.owners), b.Name())
	at := monons() + int64(timeout)
	if at < 1 {
		at = 1 // non-positive or hugely negative budget: already expired
	}
	w.owners[id].at = at
	defer func() {
		w.owners[id].at = 0
		if r := recover(); r != nil {
			if ts, ok := r.(timeoutSignal); ok && ts.id == id {
				err = &TimeoutError{Barrier: b.Name(), ID: id, Timeout: timeout}
				return
			}
			panic(r)
		}
	}()
	b.Wait(id)
	return nil
}
