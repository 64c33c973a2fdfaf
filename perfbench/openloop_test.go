package main

import (
	"testing"
	"time"

	"armbarrier/fabric"
)

// stalledServer completes every round at once except stallRound, whose
// outcome arrives stall later; the single in-order receiver is held up
// by it, as a consumer stalled on one round would be.
func stalledServer(stallRound int, stall time.Duration) func(t *ticket) {
	return func(t *ticket) {
		ch := make(chan fabric.Outcome, 1)
		t.n, t.round, t.outs[0] = 1, uint64(t.i), ch
		if t.i == stallRound {
			go func() {
				time.Sleep(stall)
				ch <- fabric.Outcome{Round: uint64(stallRound)}
			}()
		} else {
			ch <- fabric.Outcome{Round: uint64(t.i)}
		}
		t.lastRet = now()
	}
}

const (
	testInterval = time.Millisecond
	testRounds   = 60
	testStall    = 20 * time.Millisecond
	stallRound   = 10
)

func latencies(st loopStats) []int64 { return st.release.held() }

// TestOpenLoopChargesStallToLaterRounds: rounds due while the consumer
// is stalled keep their schedule, and each one's latency, measured from
// its due time, includes the part of the stall it waited through.
func TestOpenLoopChargesStallToLaterRounds(t *testing.T) {
	st := runLoop(loopConfig{
		interval:  int64(testInterval),
		receivers: 1,
		deadline:  now() + testRounds*int64(testInterval),
	}, stalledServer(stallRound, testStall), check)
	lat := latencies(st)
	if st.rounds != len(lat) || st.rounds < stallRound+15 || st.bad != 0 {
		t.Fatalf("rounds %d, latencies %d, bad %d", st.rounds, len(lat), st.bad)
	}
	// Round stallRound+k was due k intervals into the stall, so it
	// waited about stall - k*interval; allow half of that for timer slop.
	for k := 1; k <= 10; k++ {
		want := (testStall - time.Duration(k)*testInterval) / 2
		if got := time.Duration(lat[stallRound+k]); got < want {
			t.Errorf("round %d: latency %v, want >= %v (the stall was hidden)", stallRound+k, got, want)
		}
	}
	// The generator was not held up by the consumer.
	if late := time.Duration(st.late.quantile(0.5)); late > testInterval {
		t.Errorf("median generator lateness %v: the generator waited for the consumer", late)
	}
}

// TestClosedLoopHidesStall shows what the open loop guards against: a
// generator that waits for each round (window 1) issues the rounds
// after the stall late, and measured from issue they look fast.
func TestClosedLoopHidesStall(t *testing.T) {
	st := runLoop(loopConfig{
		window:    1,
		receivers: 1,
		deadline:  now() + int64(testStall) + 30*int64(testInterval),
	}, stalledServer(stallRound, testStall), check)
	lat := latencies(st)
	if len(lat) < stallRound+2 {
		t.Fatalf("only %d rounds", len(lat))
	}
	if got := time.Duration(lat[stallRound+1]); got >= testStall/2 {
		t.Errorf("closed loop round after the stall: latency %v; expected the stall to be hidden", got)
	}
}

// TestOpenLoopChargesGeneratorStall: a generator that stalls on one
// round issues the following ones late, and both its lateness and the
// rounds' latency show it.
func TestOpenLoopChargesGeneratorStall(t *testing.T) {
	server := stalledServer(-1, 0)
	st := runLoop(loopConfig{
		interval:  int64(testInterval),
		receivers: 1,
		deadline:  now() + testRounds*int64(testInterval),
	}, func(tk *ticket) {
		if tk.i == stallRound {
			time.Sleep(testStall)
		}
		server(tk)
	}, check)
	lat := latencies(st)
	want := testStall / 4
	if got := time.Duration(lat[stallRound+1]); got < want {
		t.Errorf("round after the generator stall: latency %v, want >= %v", got, want)
	}
	if got := time.Duration(st.late.quantile(1)); got < want {
		t.Errorf("max generator lateness %v, want >= %v", got, want)
	}
}
