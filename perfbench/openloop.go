package main

import (
	"sync"
	"sync/atomic"
	"time"

	"armbarrier/fabric"
)

// maxRoundSize bounds the arrivals one round can carry.
const maxRoundSize = 8

// ticket is one round as the generator issued it.
type ticket struct {
	i       int
	due     int64 // when the round was scheduled to be issued
	issued  int64 // when the generator began issuing it
	lastRet int64 // when the round's last Arrive returned
	round   uint64
	n       int
	outs    [maxRoundSize]<-chan fabric.Outcome
}

type loopConfig struct {
	// interval > 0 is the open loop: round i is due at start+i*interval
	// whether or not earlier rounds completed. interval == 0 issues
	// back to back, each round due when issued.
	interval int64
	// window > 0 bounds the rounds issued but not yet fully received;
	// the generator waits for a free slot (the closed saturation loop).
	window    int
	receivers int
	deadline  int64 // no round is due at or after it
}

type loopStats struct {
	rounds, outcomes, bad int
	release               *samples // due -> receipt, per outcome
	windows               windowed // the same, per loopWindow of due times
	stage                 *samples // last Arrive return -> receipt, per outcome
	late                  *samples // issued - due, per round
	backlogMax            int
}

// fold adds o's counts, latency windows, stage and lateness samples to
// s; the due-to-receipt samples are left out, as the windows hold them.
func (s *loopStats) fold(o loopStats) {
	s.rounds += o.rounds
	s.outcomes += o.outcomes
	s.bad += o.bad
	s.backlogMax = max(s.backlogMax, o.backlogMax)
	s.windows.merge(&o.windows)
	if s.stage == nil {
		s.stage, s.late = o.stage, o.late
		return
	}
	s.stage, s.late = merged(s.stage, o.stage), merged(s.late, o.late)
}

// loopWindow is the span of due times one latency window covers:
// shorter than the few-millisecond stalls a shared host imposes, so a
// window is either quiet or inside a stall's backlog.
const loopWindow = int64(2 * time.Millisecond)

// queueCap bounds the rounds waiting for a receiver. It is far above
// any backlog the offered rate builds, so a full queue means the
// receivers fell behind; the generator then blocks and its lateness
// shows it.
const queueCap = 1 << 14

// runLoop issues rounds from the calling goroutine and drains their
// outcomes on cfg.receivers goroutines, each taking whole rounds in
// issue order. Latency is measured from a round's due time, so a stall
// anywhere — in the generator, the fabric or a receiver — is charged
// to every round due while it lasted rather than hidden by a generator
// that waited for it. check reports whether an outcome is correct for
// its ticket.
func runLoop(cfg loopConfig, issue func(t *ticket), check func(t *ticket, o fabric.Outcome) bool) loopStats {
	queue := make(chan ticket, queueCap)
	var slots chan struct{}
	if cfg.window > 0 {
		slots = make(chan struct{}, cfg.window)
	}
	var completed atomic.Int64
	start := now()
	parts := make([]loopStats, cfg.receivers)
	// Open-loop latency windows get their whole capacity up front: a
	// receiver that grew a slice mid-run would stall on the copy.
	perReceiver := 0
	if cfg.interval > 0 {
		perReceiver = int((cfg.deadline-start)/cfg.interval) * maxRoundSize
	}
	var wg sync.WaitGroup
	for r := range parts {
		ls := &parts[r]
		ls.release, ls.stage = newSamples(1<<19), newSamples(1<<19)
		ls.windows.vals = make([]int32, 0, perReceiver)
		wg.Add(1)
		go func() {
			defer wg.Done()
			win := int64(0)
			for t := range queue {
				if w := (t.due - start) / loopWindow; w != win {
					ls.windows.close()
					win = w
				}
				for k := 0; k < t.n; k++ {
					o := <-t.outs[k]
					at := now()
					ls.release.add(at - t.due)
					if perReceiver > 0 {
						ls.windows.add(at - t.due)
					}
					ls.stage.add(at - t.lastRet)
					ls.outcomes++
					if !check(&t, o) {
						ls.bad++
					}
				}
				ls.rounds++
				completed.Add(1)
				if slots != nil {
					<-slots
				}
			}
			ls.windows.summarize()
		}()
	}
	out := loopStats{late: newSamples(1 << 19)}
	for i := 0; ; i++ {
		var t ticket
		t.i = i
		if cfg.interval > 0 {
			t.due = start + int64(i)*cfg.interval
			if t.due >= cfg.deadline {
				break
			}
			spinUntil(t.due)
		} else if now() >= cfg.deadline {
			break
		}
		if slots != nil {
			slots <- struct{}{}
		}
		t.issued = now()
		if cfg.interval == 0 {
			t.due = t.issued
		}
		out.late.add(t.issued - t.due)
		out.backlogMax = max(out.backlogMax, i-int(completed.Load()))
		issue(&t)
		queue <- t
	}
	close(queue)
	wg.Wait()
	var rel, stg []*samples
	for _, p := range parts {
		out.rounds += p.rounds
		out.outcomes += p.outcomes
		out.bad += p.bad
		rel, stg = append(rel, p.release), append(stg, p.stage)
		out.windows.merge(&p.windows)
	}
	out.release, out.stage = merged(rel...), merged(stg...)
	return out
}
