package barrier

import (
	"errors"
	"sync"
	"testing"
	"time"
)

// deadlinePolicies is the wait-policy sweep the bounded-wait tests run
// under: the bounded discipline has policy-specific paths (pure spin,
// yield, park-with-timer), all of which must both complete and expire.
func deadlinePolicies() map[string]WaitPolicy {
	return map[string]WaitPolicy{
		"spin":      SpinWait(),
		"spinyield": SpinYieldWait(),
		"spinpark":  SpinParkWait(),
		"adaptive":  AdaptiveWait(),
	}
}

// TestWaitDeadlineCompletes runs multi-round bounded waits where every
// participant arrives: every algorithm × policy must return nil each
// round and stay reusable (the deadline slot disarms cleanly).
func TestWaitDeadlineCompletes(t *testing.T) {
	const p, rounds = 4, 50
	for name, mk := range optFactories() {
		for pname, pol := range deadlinePolicies() {
			t.Run(name+"/"+pname, func(t *testing.T) {
				t.Parallel()
				b, ok := mk(p, WithWaitPolicy(pol)).(DeadlineWaiter)
				if !ok {
					t.Fatalf("%s does not implement DeadlineWaiter", name)
				}
				var wg sync.WaitGroup
				errs := make([]error, p)
				for id := 0; id < p; id++ {
					wg.Add(1)
					go func(id int) {
						defer wg.Done()
						for r := 0; r < rounds; r++ {
							if err := b.WaitDeadline(id, 10*time.Second); err != nil {
								errs[id] = err
								return
							}
						}
					}(id)
				}
				wg.Wait()
				for id, err := range errs {
					if err != nil {
						t.Errorf("participant %d: %v", id, err)
					}
				}
			})
		}
	}
}

// TestWaitDeadlineTimesOut wedges each algorithm × policy by holding
// back one participant and checks that the bounded wait reports a
// *TimeoutError naming the waiter within a sane multiple of the budget.
func TestWaitDeadlineTimesOut(t *testing.T) {
	const p = 2
	const budget = 30 * time.Millisecond
	for name, mk := range optFactories() {
		for pname, pol := range deadlinePolicies() {
			t.Run(name+"/"+pname, func(t *testing.T) {
				t.Parallel()
				b := mk(p, WithWaitPolicy(pol)).(DeadlineWaiter)
				start := time.Now()
				err := b.WaitDeadline(0, budget) // participant 1 never arrives
				if err == nil {
					t.Fatal("bounded wait returned nil with a missing participant")
				}
				var te *TimeoutError
				if !errors.As(err, &te) {
					t.Fatalf("error type %T, want *TimeoutError", err)
				}
				if te.ID != 0 || te.Timeout != budget || te.Barrier != b.Name() {
					t.Errorf("TimeoutError = %+v", te)
				}
				if !errors.Is(err, ErrWaitTimeout) {
					t.Error("errors.Is(err, ErrWaitTimeout) = false")
				}
				if elapsed := time.Since(start); elapsed > 20*budget {
					t.Errorf("timed out after %v, budget %v", elapsed, budget)
				}
			})
		}
	}
}

// TestWaitDeadlineRestoresUnboundedWait checks that a completed bounded
// wait leaves no deadline armed: subsequent plain Waits run the normal
// discipline and complete.
func TestWaitDeadlineRestoresUnboundedWait(t *testing.T) {
	const p = 4
	b := NewCentral(p)
	var wg sync.WaitGroup
	for id := 0; id < p; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			if err := b.WaitDeadline(id, time.Second); err != nil {
				t.Errorf("bounded round: %v", err)
			}
			for r := 0; r < 100; r++ {
				b.Wait(id)
			}
		}(id)
	}
	wg.Wait()
}

func TestTryWait(t *testing.T) {
	if !TryWait(NewCentral(1), 0) {
		t.Error("TryWait on a 1-participant barrier should succeed")
	}
	if TryWait(NewCentral(2), 0) {
		t.Error("TryWait with an absent peer should fail")
	}
}

// TestWaitDeadlineOutOfRange keeps WaitDeadline's id validation aligned
// with Wait's.
func TestWaitDeadlineOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("out-of-range participant did not panic")
		}
	}()
	_ = NewCentral(2).WaitDeadline(2, time.Second)
}
