package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strings"
	"time"

	"armbarrier/internal/plot"
	"armbarrier/tune"
)

// Exporters for the streaming telemetry layer: a Prometheus exposition
// of the current window (with a regime label), a JSON timeline of the
// whole ring, and an ASCII-sparkline rendering for terminals — all
// three served by TimelineHandler, so /debug/timeline is the one URL a
// fleet needs.

// StreamSnapshot is a consistent copy of a stream's state: the kept
// windows (oldest first), the alert history, and the current detector
// conclusions.
type StreamSnapshot struct {
	Barrier      string `json:"barrier"`
	Participants int    `json:"participants"`
	WindowNs     int64  `json:"window_ns"`
	// Rotations counts every window ever rolled, including those that
	// have left the ring.
	Rotations uint64 `json:"rotations"`
	// Regime is the current confirmed regime; Straggler the
	// participant under an active straggler alert (-1 none).
	Regime    tune.Regime `json:"regime"`
	Straggler int         `json:"straggler"`
	// Totals for the counter-style exports.
	Timeouts       uint64 `json:"timeouts_total"`
	Panics         uint64 `json:"panics_total"`
	WatchdogStalls uint64 `json:"watchdog_stalls_total"`

	Windows []WindowStats     `json:"windows"`
	Alerts  []Alert           `json:"alerts"`
	Counts  map[string]uint64 `json:"alert_counts"`
}

// Timeline captures the stream's current state. Safe to call at any
// time, including concurrently with rotations.
func (s *Stream) Timeline() StreamSnapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := StreamSnapshot{
		Barrier:        s.in.Name(),
		Participants:   s.in.Participants(),
		WindowNs:       int64(s.window),
		Rotations:      s.rotations,
		Regime:         s.det.regime,
		Straggler:      -1,
		Timeouts:       s.totTimeouts,
		Panics:         s.totPanics,
		WatchdogStalls: s.totStalls,
		Windows:        make([]WindowStats, len(s.windows)),
		Alerts:         make([]Alert, len(s.alerts)),
		Counts:         make(map[string]uint64, len(s.alertCounts)),
	}
	if s.det.stragglerActive {
		out.Straggler = s.det.straggler
	}
	copy(out.Windows, s.windows)
	copy(out.Alerts, s.alerts)
	for k, c := range s.alertCounts {
		out.Counts[k.String()] = c
	}
	return out
}

// WriteStreamPrometheus writes the stream snapshot in Prometheus text
// exposition format. Metric families (every series carries
// barrier="<name>"; window gauges carry regime="<current>"):
//
//	armbarrier_stream_window_seconds             gauge
//	armbarrier_stream_rotations_total            counter
//	armbarrier_stream_regime{regime}             gauge (one-hot)
//	armbarrier_stream_episode_rate               gauge
//	armbarrier_stream_wait_p50_ns / _p99_ns / _max_ns  gauge (NaN when sampleless)
//	armbarrier_stream_skew_mean_ns / _p99_ns     gauge (NaN when sampleless)
//	armbarrier_stream_spin_rate / _yield_rate / _park_rate / _wake_rate  gauge
//	armbarrier_stream_straggler                  gauge (participant id, -1 none)
//	armbarrier_stream_timeouts_total / _panics_total / _watchdog_stalls_total  counter
//	armbarrier_stream_alerts_total{kind}         counter
func WriteStreamPrometheus(w io.Writer, s StreamSnapshot) error {
	bl := `barrier="` + escapeLabel(s.Barrier) + `"`
	var b strings.Builder

	fmt.Fprintf(&b, "# HELP armbarrier_stream_window_seconds Configured rotation interval.\n")
	fmt.Fprintf(&b, "# TYPE armbarrier_stream_window_seconds gauge\n")
	fmt.Fprintf(&b, "armbarrier_stream_window_seconds{%s} %s\n", bl, formatFloat(float64(s.WindowNs)/1e9))

	fmt.Fprintf(&b, "# HELP armbarrier_stream_rotations_total Windows rolled since the stream attached.\n")
	fmt.Fprintf(&b, "# TYPE armbarrier_stream_rotations_total counter\n")
	fmt.Fprintf(&b, "armbarrier_stream_rotations_total{%s} %d\n", bl, s.Rotations)

	fmt.Fprintf(&b, "# HELP armbarrier_stream_regime Current confirmed scheduling regime (one-hot).\n")
	fmt.Fprintf(&b, "# TYPE armbarrier_stream_regime gauge\n")
	for _, r := range []tune.Regime{tune.RegimeUnknown, tune.RegimeDedicated, tune.RegimeOversubscribed} {
		v := 0
		if r == s.Regime {
			v = 1
		}
		fmt.Fprintf(&b, "armbarrier_stream_regime{%s,regime=\"%s\"} %d\n", bl, r, v)
	}

	// Current-window gauges. Before the first rotation every gauge is
	// NaN: there is no window to describe.
	var last WindowStats
	haveWindow := len(s.Windows) > 0
	if haveWindow {
		last = s.Windows[len(s.Windows)-1]
	}
	rl := fmt.Sprintf("%s,regime=\"%s\"", bl, s.Regime)
	gauge := func(name, help string, v float64, sampled bool) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		if !haveWindow || !sampled {
			v = math.NaN()
		}
		fmt.Fprintf(&b, "%s{%s} %s\n", name, rl, formatFloat(v))
	}
	gauge("armbarrier_stream_episode_rate", "Completed episodes per second, current window.", last.EpisodeRate, true)
	gauge("armbarrier_stream_wait_p50_ns", "p50 wait latency, current window.", last.WaitP50Ns, last.WaitSamples > 0)
	gauge("armbarrier_stream_wait_p99_ns", "p99 wait latency, current window.", last.WaitP99Ns, last.WaitSamples > 0)
	gauge("armbarrier_stream_wait_max_ns", "Max wait latency, current window.", last.WaitMaxNs, last.WaitSamples > 0)
	gauge("armbarrier_stream_skew_mean_ns", "Mean arrival skew, current window.", last.SkewMeanNs, last.SkewRounds > 0)
	gauge("armbarrier_stream_skew_p99_ns", "p99 arrival skew, current window.", last.SkewP99Ns, last.SkewRounds > 0)
	gauge("armbarrier_stream_spin_rate", "Spin iterations per second, current window.", last.SpinRate, true)
	gauge("armbarrier_stream_yield_rate", "Scheduler yields per second, current window.", last.YieldRate, true)
	gauge("armbarrier_stream_park_rate", "Goroutine parks per second, current window.", last.ParkRate, true)
	gauge("armbarrier_stream_wake_rate", "Wake tokens per second, current window.", last.WakeRate, true)

	fmt.Fprintf(&b, "# HELP armbarrier_stream_straggler Participant under an active straggler alert, -1 none.\n")
	fmt.Fprintf(&b, "# TYPE armbarrier_stream_straggler gauge\n")
	fmt.Fprintf(&b, "armbarrier_stream_straggler{%s} %d\n", bl, s.Straggler)

	counter := func(name, help string, v uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		fmt.Fprintf(&b, "%s{%s} %d\n", name, bl, v)
	}
	counter("armbarrier_stream_timeouts_total", "Barrier wait timeouts reported to the stream.", s.Timeouts)
	counter("armbarrier_stream_panics_total", "Participant panics reported to the stream.", s.Panics)
	counter("armbarrier_stream_watchdog_stalls_total", "Watchdog stalls folded into windows.", s.WatchdogStalls)

	fmt.Fprintf(&b, "# HELP armbarrier_stream_alerts_total Alerts raised by the streaming detectors.\n")
	fmt.Fprintf(&b, "# TYPE armbarrier_stream_alerts_total counter\n")
	for kind := AlertKind(0); kind < numAlertKinds; kind++ {
		fmt.Fprintf(&b, "armbarrier_stream_alerts_total{%s,kind=\"%s\"} %d\n", bl, kind, s.Counts[kind.String()])
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// timelineMetrics are the sparkline rows RenderTimeline draws, in
// order.
var timelineMetrics = []struct {
	name string
	unit string
	val  func(WindowStats) float64
}{
	{"episodes/s", "", func(w WindowStats) float64 { return w.EpisodeRate }},
	{"wait p50", "ns", func(w WindowStats) float64 { return w.WaitP50Ns }},
	{"wait p99", "ns", func(w WindowStats) float64 { return w.WaitP99Ns }},
	{"skew mean", "ns", func(w WindowStats) float64 { return w.SkewMeanNs }},
	{"yields/s", "", func(w WindowStats) float64 { return w.YieldRate }},
	{"parks/s", "", func(w WindowStats) float64 { return w.ParkRate }},
}

// RenderTimeline renders the window series as labelled ASCII
// sparklines plus the current detector conclusions and recent alerts —
// the terminal view of /debug/timeline, shared by the endpoint's
// ?format=text mode and barrierbench -stream. width bounds how many
// windows each sparkline shows (0 means 72).
func RenderTimeline(s StreamSnapshot, width int) string {
	if width <= 0 {
		width = 72
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline %s: %d windows of %v, regime %s\n",
		s.Barrier, len(s.Windows), time.Duration(s.WindowNs), s.Regime)
	wins := s.Windows
	if len(wins) > width {
		wins = wins[len(wins)-width:]
	}
	if len(wins) == 0 {
		b.WriteString("(no windows yet)\n")
		return b.String()
	}
	for _, m := range timelineMetrics {
		xs := make([]float64, len(wins))
		for i, w := range wins {
			xs[i] = m.val(w)
		}
		cur := xs[len(xs)-1]
		fmt.Fprintf(&b, "%12s |%s| now %.6g%s\n", m.name, plot.Sparkline(xs), cur, m.unit)
	}
	last := wins[len(wins)-1]
	fmt.Fprintf(&b, "last window #%d: %d rounds, straggler %s\n",
		last.Index, last.Rounds, stragglerLabel(last.Straggler))
	if n := len(s.Alerts); n > 0 {
		show := s.Alerts
		if len(show) > 8 {
			show = show[len(show)-8:]
		}
		fmt.Fprintf(&b, "alerts (%d total, last %d):\n", n, len(show))
		for _, a := range show {
			fmt.Fprintf(&b, "  [window %d] %s: %s\n", a.Window, a.Kind, a.Message)
		}
	} else {
		b.WriteString("alerts: none\n")
	}
	return b.String()
}

func stragglerLabel(id int) string {
	if id < 0 {
		return "none"
	}
	return fmt.Sprintf("p%d", id)
}

// TimelineHandler returns an http.Handler serving the live timeline:
// JSON by default (the StreamSnapshot document), labelled ASCII
// sparklines with ?format=text, Prometheus text exposition with
// ?format=prom — mount it at /debug/timeline next to /metrics and
// /debug/episodes.
func (s *Stream) TimelineHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := s.Timeline()
		switch r.URL.Query().Get("format") {
		case "text":
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			_, _ = io.WriteString(w, RenderTimeline(snap, 0))
		case "prom":
			w.Header().Set("Content-Type", promContentType)
			_ = WriteStreamPrometheus(w, snap)
		default:
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(snap)
		}
	})
}
