package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"armbarrier/barrier"
	"armbarrier/tune"
)

// The Prometheus writers are pinned byte for byte against the
// testdata/*.prom goldens. Every snapshot below is built by hand, with
// no clock or scheduler in it, so the expected text is exact: a change
// to a writer's families, HELP lines, label order or number spelling
// shows up as a golden diff. The barrier names carry quotes, and one a
// backslash, so the label escaping is pinned too.

// goldenHist is a NumBuckets histogram with the given counts set.
func goldenHist(counts map[int]uint64) []uint64 {
	h := make([]uint64, NumBuckets)
	for b, c := range counts {
		h[b] = c
	}
	return h
}

func goldenSnapshot() Snapshot {
	return Snapshot{
		Barrier:      `fway "a"\b`,
		Participants: 2,
		SampleEvery:  4,
		PerParti: []ParticipantSnapshot{
			{ID: 0, Rounds: 12, Spins: 340, Yields: 5, Parks: 2, Wakes: 1, FusedRounds: 3,
				WaitSamples: 3, WaitSumNs: 9000, WaitMaxNs: 5000,
				WaitHist:   goldenHist(map[int]uint64{11: 2, 13: 1}),
				LastSkewNs: 250, SkewSumNs: 3000},
			{ID: 1, Rounds: 12, Spins: 0, Yields: 0, Parks: 0, Wakes: 2,
				WaitSamples: 3, WaitSumNs: 1500, WaitMaxNs: 700,
				WaitHist:   goldenHist(map[int]uint64{0: 1, 9: 2}),
				LastSkewNs: 0, SkewSumNs: 0},
		},
		Skew: SkewSnapshot{Rounds: 3, SumNs: 3300, MaxNs: 1800,
			Hist: goldenHist(map[int]uint64{8: 1, 10: 1, 40: 1})},
		Phases: &PhaseSnapshot{
			ArrivalLevels: 2,
			WakeupLevels:  1,
			Levels: []PhaseLevelSnapshot{
				{Phase: "arrival", Level: 0, Samples: 4, SumNs: 1200, MaxNs: 500, SkewNs: 120.5,
					Hist: goldenHist(map[int]uint64{8: 3, 9: 1})},
				{Phase: "arrival", Level: 1, Samples: 0, Hist: goldenHist(nil)},
				{Phase: "wakeup", Level: 0, Samples: 2, SumNs: 800, MaxNs: 600,
					Hist: goldenHist(map[int]uint64{7: 1, 10: 1})},
			},
		},
		Elastic: &ElasticSnapshot{Registered: 3, Capacity: 8, Registers: 9, Deregisters: 6, Phase: 41},
	}
}

func goldenStreamBefore() StreamSnapshot {
	return StreamSnapshot{
		Barrier:      `stream "s"`,
		Participants: 4,
		WindowNs:     int64(100 * time.Millisecond),
		Regime:       tune.RegimeUnknown,
		Straggler:    -1,
		Counts:       map[string]uint64{},
	}
}

func goldenStreamAfter() StreamSnapshot {
	s := goldenStreamBefore()
	s.Rotations = 7
	s.Regime = tune.RegimeOversubscribed
	s.Straggler = 2
	s.Timeouts, s.Panics, s.WatchdogStalls = 1, 0, 3
	s.Windows = []WindowStats{
		{Index: 5, Rounds: 10, EpisodeRate: 100},
		{Index: 6, Rounds: 40, WaitSamples: 10, SkewRounds: 0,
			EpisodeRate: 400, WaitP50Ns: 1024, WaitP99Ns: 65536, WaitMaxNs: 70000.5,
			SpinRate: 1.5e6, YieldRate: 320, ParkRate: 12.25, WakeRate: 12},
	}
	s.Counts = map[string]uint64{
		AlertRegimeShift.String():      1,
		AlertChangePoint.String():      2,
		AlertStraggler.String():        3,
		AlertStragglerCleared.String(): 4,
		AlertWatchdogStall.String():    5,
		AlertModelDrift.String():       6,
	}
	return s
}

func goldenDrift() DriftSnapshot {
	return DriftSnapshot{
		Barrier: `drift "d"`,
		Machine: "toy",
		Windows: 3,
		Levels: []DriftLevel{
			{Phase: "arrival", Level: 0, FanIn: 4, Samples: 16, MeasuredNs: 250, PredictedNs: 125, Ratio: 2},
			{Phase: "arrival", Level: 1, FanIn: 2, Samples: 0, MeasuredNs: math.NaN(), PredictedNs: 80, Ratio: math.NaN()},
			{Phase: "wakeup", Level: 0, Samples: 8, MeasuredNs: 90, PredictedNs: 100, Ratio: 0.9},
		},
		Phases: []DriftPhase{
			{Phase: "arrival", Watched: true, MeasuredNs: 250, PredictedNs: 125, Ratio: 2, EwmaLog2: 1, Diverged: false},
			{Phase: "wakeup", Watched: true, MeasuredNs: 90, PredictedNs: 100, Ratio: 0.9, EwmaLog2: math.Inf(-1), Diverged: true},
		},
		FittedAlpha: math.NaN(),
		FittedLNs:   math.Inf(1),
		ModelAlpha:  0.5,
		AlertsTotal: 2,
	}
}

func goldenWatchdog() barrier.WatchdogSnapshot {
	return barrier.WatchdogSnapshot{
		Barrier:      `watch "w"`,
		Participants: 3,
		DeadlineNs:   int64(50 * time.Millisecond),
		Stalls:       2,
		Stalled:      true,
		Rounds:       []uint64{7, 6, 7},
		WaitingNs:    []int64{1200, 0, 900},
		LastStall:    &barrier.Stall{Barrier: `watch "w"`, Round: 6, Waiting: []int{0, 2}, Missing: []int{1}},
	}
}

// TestPrometheusGoldens compares each writer's output with its golden.
func TestPrometheusGoldens(t *testing.T) {
	for _, c := range []struct {
		golden string
		write  func(*bytes.Buffer) error
	}{
		{"instrumented.prom", func(b *bytes.Buffer) error { return WritePrometheus(b, goldenSnapshot()) }},
		{"stream_before.prom", func(b *bytes.Buffer) error { return WriteStreamPrometheus(b, goldenStreamBefore()) }},
		{"stream_after.prom", func(b *bytes.Buffer) error { return WriteStreamPrometheus(b, goldenStreamAfter()) }},
		{"drift.prom", func(b *bytes.Buffer) error { return WriteDriftPrometheus(b, goldenDrift()) }},
		{"watchdog.prom", func(b *bytes.Buffer) error { return WriteWatchdogPrometheus(b, goldenWatchdog()) }},
	} {
		t.Run(strings.TrimSuffix(c.golden, ".prom"), func(t *testing.T) {
			var got bytes.Buffer
			if err := c.write(&got); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", c.golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("output differs from testdata/%s\n%s", c.golden, lineDiff(string(want), got.String()))
			}
		})
	}
}

// lineDiff lists the lines only one side has, in order; enough to
// read a golden mismatch without a diff tool.
func lineDiff(want, got string) string {
	wantLines, gotLines := strings.Split(want, "\n"), strings.Split(got, "\n")
	set := func(lines []string) map[string]bool {
		m := make(map[string]bool, len(lines))
		for _, l := range lines {
			m[l] = true
		}
		return m
	}
	inWant, inGot := set(wantLines), set(gotLines)
	var b strings.Builder
	for _, l := range wantLines {
		if !inGot[l] {
			b.WriteString("- " + l + "\n")
		}
	}
	for _, l := range gotLines {
		if !inWant[l] {
			b.WriteString("+ " + l + "\n")
		}
	}
	return b.String()
}
