package barrier

import (
	"testing"

	"armbarrier/model"
)

// Structural invariants of the real implementations: tree shapes,
// round counts and schedules must match the algorithms' definitions
// independent of any timing behaviour.

func TestTournamentRoundCount(t *testing.T) {
	for _, c := range []struct{ p, want int }{
		{2, 1}, {3, 2}, {4, 2}, {5, 3}, {32, 5}, {33, 6}, {64, 6},
	} {
		b := NewTournament(c.p)
		if b.rounds != c.want {
			t.Errorf("tournament(%d) rounds = %d, want %d", c.p, b.rounds, c.want)
		}
		if len(b.flags) != c.want {
			t.Errorf("tournament(%d) flag levels = %d", c.p, len(b.flags))
		}
	}
}

func TestCombiningLevelStructure(t *testing.T) {
	c := NewCombining(20, 2)
	// 20 -> 10 -> 5 -> 3 -> 2 -> 1: five levels.
	if len(c.levels) != 5 {
		t.Fatalf("levels = %d, want 5", len(c.levels))
	}
	// Level sizes must sum to the participant count at each stage.
	n := 20
	for li := range c.levels {
		total := 0
		for ni := range c.levels[li] {
			size := c.levels[li][ni].size
			if size < 1 || size > 2 {
				t.Fatalf("level %d node size %d", li, size)
			}
			total += size
		}
		if total != n {
			t.Fatalf("level %d covers %d, want %d", li, total, n)
		}
		n = (n + 1) / 2
	}
}

func TestDisseminationRoundsMatchModel(t *testing.T) {
	for _, p := range []int{1, 2, 3, 8, 9, 64} {
		d := NewDissemination(p)
		if d.rounds != model.DisseminationRounds(p) {
			t.Errorf("dissemination(%d) rounds = %d, want %d", p, d.rounds, model.DisseminationRounds(p))
		}
	}
}

func TestFWayScheduleDefaults(t *testing.T) {
	f := NewStaticFWay(64)
	want := model.FanInSchedule(64, 8)
	if len(f.sched) != len(want) {
		t.Fatalf("schedule = %v, want %v", f.sched, want)
	}
	for i := range want {
		if f.sched[i] != want[i] {
			t.Fatalf("schedule = %v, want %v", f.sched, want)
		}
	}
	// Participants per round must telescope to 1.
	if f.participants[len(f.participants)-1] != 1 {
		t.Fatalf("participants = %v", f.participants)
	}
}

func TestOptimizedScheduleIsFixedFour(t *testing.T) {
	f := NewOptimized(64, OptimizedConfig{})
	for _, fr := range f.sched {
		if fr != 4 {
			t.Fatalf("optimized schedule = %v, want all 4s", f.sched)
		}
	}
	if !f.padded {
		t.Fatal("optimized barrier must pad its flags")
	}
}

func TestDynamicCountersMatchGroups(t *testing.T) {
	f := NewDynamicFWay(20) // schedule [5 4]: groups 4 then 1
	if len(f.counters) != 2 {
		t.Fatalf("counter levels = %d", len(f.counters))
	}
	if len(f.counters[0]) != 4 || len(f.counters[1]) != 1 {
		t.Fatalf("counter groups = %d/%d", len(f.counters[0]), len(f.counters[1]))
	}
	// Group sizes cover the participants of each round.
	if f.counters[0][3].size != 5 || f.counters[1][0].size != 4 {
		t.Fatalf("counter sizes = %d/%d", f.counters[0][3].size, f.counters[1][0].size)
	}
}

func TestHyperTopStride(t *testing.T) {
	// The release loop's top stride must reach every gather level.
	h := NewHyper(64)
	top := 1
	for top*h.branch < h.p {
		top *= h.branch
	}
	if top != 16 {
		t.Fatalf("top stride = %d, want 16 for P=64, branch 4", top)
	}
}
