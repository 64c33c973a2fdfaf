package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// Exporters for barrier telemetry. Three formats are supported so a
// long-running service can expose live barrier health however its
// fleet is scraped:
//
//   - WritePrometheus / Instrumented.MetricsHandler — Prometheus text
//     exposition (version 0.0.4), histograms in native cumulative form.
//   - Snapshot JSON (encoding/json) — the snapshot marshals directly.
//   - Instrumented.Var / Publish — an expvar.Var, so the standard
//     expvar.Handler at /debug/vars picks the telemetry up for free.

// promContentType is the Prometheus text exposition content type.
const promContentType = "text/plain; version=0.0.4; charset=utf-8"

// labelEscaper is shared by every scrape: a Replacer is safe for
// concurrent use.
var labelEscaper = strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)

// escapeLabel escapes a Prometheus label value.
func escapeLabel(v string) string { return labelEscaper.Replace(v) }

// WritePrometheus writes the snapshot in Prometheus text exposition
// format. Metric families:
//
//	armbarrier_participants                      gauge
//	armbarrier_rounds_total{participant}         counter
//	armbarrier_spin_iterations_total{participant} counter
//	armbarrier_spin_yields_total{participant}    counter
//	armbarrier_parks_total{participant}          counter
//	armbarrier_wakes_total{participant}          counter
//	armbarrier_fused_rounds_total{participant}   counter
//	armbarrier_wait_latency_ns{participant}      histogram (+_sum,_count)
//	armbarrier_arrival_skew_last_ns{participant} gauge
//	armbarrier_arrival_skew_mean_ns{participant} gauge
//	armbarrier_round_skew_ns                     histogram (+_sum,_count)
//	armbarrier_round_skew_max_ns                 gauge
//
// Elastic barriers (dynamic membership) additionally export
// armbarrier_registered_parties, armbarrier_party_capacity,
// armbarrier_register_total, armbarrier_deregister_total and
// armbarrier_phaser_phase_total.
//
// Every series carries a barrier="<name>" label.
func WritePrometheus(w io.Writer, s Snapshot) error {
	// escapeLabel already produces the exposition-format escapes
	// (\\, \", \n); quoting with %q here would double-escape them.
	bl := `barrier="` + escapeLabel(s.Barrier) + `"`
	var b strings.Builder

	fmt.Fprintf(&b, "# HELP armbarrier_participants Fixed participant count of the barrier.\n")
	fmt.Fprintf(&b, "# TYPE armbarrier_participants gauge\n")
	fmt.Fprintf(&b, "armbarrier_participants{%s} %d\n", bl, s.Participants)

	counter := func(name, help string, val func(ParticipantSnapshot) uint64) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s counter\n", name, help, name)
		for _, p := range s.PerParti {
			fmt.Fprintf(&b, "%s{%s,participant=\"%d\"} %d\n", name, bl, p.ID, val(p))
		}
	}
	counter("armbarrier_rounds_total", "Barrier episodes completed per participant.",
		func(p ParticipantSnapshot) uint64 { return p.Rounds })
	counter("armbarrier_spin_iterations_total", "Poll-loop iterations spent waiting inside the barrier.",
		func(p ParticipantSnapshot) uint64 { return p.Spins })
	counter("armbarrier_spin_yields_total", "Scheduler yields taken while waiting inside the barrier.",
		func(p ParticipantSnapshot) uint64 { return p.Yields })
	counter("armbarrier_parks_total", "Goroutine parks taken while waiting inside the barrier.",
		func(p ParticipantSnapshot) uint64 { return p.Parks })
	counter("armbarrier_wakes_total", "Wake tokens handed to this participant by barrier releasers.",
		func(p ParticipantSnapshot) uint64 { return p.Wakes })
	counter("armbarrier_fused_rounds_total", "Rounds that were fused collective episodes (allreduce/reduce/broadcast).",
		func(p ParticipantSnapshot) uint64 { return p.FusedRounds })

	fmt.Fprintf(&b, "# HELP armbarrier_wait_latency_ns Wait-call latency per participant, log2 buckets.\n")
	fmt.Fprintf(&b, "# TYPE armbarrier_wait_latency_ns histogram\n")
	for _, p := range s.PerParti {
		writePromHist(&b, "armbarrier_wait_latency_ns",
			fmt.Sprintf("%s,participant=\"%d\"", bl, p.ID), p.WaitHist, p.WaitSumNs)
	}

	gauge := func(name, help string, val func(ParticipantSnapshot) string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
		for _, p := range s.PerParti {
			fmt.Fprintf(&b, "%s{%s,participant=\"%d\"} %s\n", name, bl, p.ID, val(p))
		}
	}
	gauge("armbarrier_arrival_skew_last_ns", "Arrival offset from the round's first arriver, last completed round.",
		func(p ParticipantSnapshot) string { return strconv.FormatInt(p.LastSkewNs, 10) })
	gauge("armbarrier_arrival_skew_mean_ns", "Mean arrival offset from the round's first arriver.",
		func(p ParticipantSnapshot) string { return formatFloat(p.MeanSkewNs) })

	fmt.Fprintf(&b, "# HELP armbarrier_round_skew_ns Per-round spread between first and last arrival, log2 buckets.\n")
	fmt.Fprintf(&b, "# TYPE armbarrier_round_skew_ns histogram\n")
	writePromHist(&b, "armbarrier_round_skew_ns", bl, s.Skew.Hist, s.Skew.SumNs)
	fmt.Fprintf(&b, "# HELP armbarrier_round_skew_max_ns Largest per-round arrival spread observed.\n")
	fmt.Fprintf(&b, "# TYPE armbarrier_round_skew_max_ns gauge\n")
	fmt.Fprintf(&b, "armbarrier_round_skew_max_ns{%s} %d\n", bl, s.Skew.MaxNs)

	// Phase-resolved families, present only under Options.Phases on a
	// PhaseProber barrier:
	//
	//	armbarrier_phase_cost_ns{phase,level}     histogram (+_sum,_count)
	//	armbarrier_phase_cost_p50_ns{phase,level} gauge (NaN sampleless)
	//	armbarrier_phase_cost_max_ns{phase,level} gauge
	//	armbarrier_phase_skew_ns{phase,level}     gauge
	if s.Phases != nil {
		fmt.Fprintf(&b, "# HELP armbarrier_phase_cost_ns Per-(phase,level) step cost on sampled rounds, log2 buckets.\n")
		fmt.Fprintf(&b, "# TYPE armbarrier_phase_cost_ns histogram\n")
		for _, l := range s.Phases.Levels {
			writePromHist(&b, "armbarrier_phase_cost_ns",
				fmt.Sprintf("%s,phase=\"%s\",level=\"%d\"", bl, l.Phase, l.Level),
				l.Hist, l.SumNs)
		}
		phaseGauge := func(name, help string, val func(PhaseLevelSnapshot) float64) {
			fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s gauge\n", name, help, name)
			for _, l := range s.Phases.Levels {
				fmt.Fprintf(&b, "%s{%s,phase=\"%s\",level=\"%d\"} %s\n",
					name, bl, l.Phase, l.Level, formatFloat(val(l)))
			}
		}
		phaseGauge("armbarrier_phase_cost_p50_ns", "Median per-(phase,level) step cost (NaN when sampleless).",
			func(l PhaseLevelSnapshot) float64 { return l.QuantileNs(0.5) })
		phaseGauge("armbarrier_phase_cost_max_ns", "Largest per-(phase,level) step cost observed.",
			func(l PhaseLevelSnapshot) float64 { return float64(l.MaxNs) })
		phaseGauge("armbarrier_phase_skew_ns", "Spread of per-participant mean cost at this (phase,level).",
			func(l PhaseLevelSnapshot) float64 { return l.SkewNs })
	}

	// Elastic membership families, present only for barriers with
	// dynamic membership (barrier.Phaser):
	//
	//	armbarrier_registered_parties   gauge
	//	armbarrier_party_capacity       gauge
	//	armbarrier_register_total       counter
	//	armbarrier_deregister_total     counter
	//	armbarrier_phaser_phase_total   counter
	if s.Elastic != nil {
		e := s.Elastic
		fmt.Fprintf(&b, "# HELP armbarrier_registered_parties Currently registered parties of the elastic barrier.\n")
		fmt.Fprintf(&b, "# TYPE armbarrier_registered_parties gauge\n")
		fmt.Fprintf(&b, "armbarrier_registered_parties{%s} %d\n", bl, e.Registered)
		fmt.Fprintf(&b, "# HELP armbarrier_party_capacity Slot capacity of the elastic barrier.\n")
		fmt.Fprintf(&b, "# TYPE armbarrier_party_capacity gauge\n")
		fmt.Fprintf(&b, "armbarrier_party_capacity{%s} %d\n", bl, e.Capacity)
		fmt.Fprintf(&b, "# HELP armbarrier_register_total Lifetime party registrations.\n")
		fmt.Fprintf(&b, "# TYPE armbarrier_register_total counter\n")
		fmt.Fprintf(&b, "armbarrier_register_total{%s} %d\n", bl, e.Registers)
		fmt.Fprintf(&b, "# HELP armbarrier_deregister_total Lifetime party deregistrations.\n")
		fmt.Fprintf(&b, "# TYPE armbarrier_deregister_total counter\n")
		fmt.Fprintf(&b, "armbarrier_deregister_total{%s} %d\n", bl, e.Deregisters)
		fmt.Fprintf(&b, "# HELP armbarrier_phaser_phase_total Resolved epochs of the elastic barrier.\n")
		fmt.Fprintf(&b, "# TYPE armbarrier_phaser_phase_total counter\n")
		fmt.Fprintf(&b, "armbarrier_phaser_phase_total{%s} %d\n", bl, e.Phase)
	}

	_, err := io.WriteString(w, b.String())
	return err
}

// writePromHist emits one histogram series: cumulative le buckets, sum
// and count, as the exposition format requires.
func writePromHist(b *strings.Builder, name, labels string, hist []uint64, sumNs int64) {
	cum := uint64(0)
	for i, c := range hist {
		cum += c
		if c == 0 && i != 0 && i != len(hist)-1 {
			continue // elide empty interior buckets; cumulative counts stay exact
		}
		le := "+Inf"
		if i < len(hist)-1 {
			le = strconv.FormatInt(BucketUpperNs(i), 10)
		}
		fmt.Fprintf(b, "%s_bucket{%s,le=\"%s\"} %d\n", name, labels, le, cum)
	}
	fmt.Fprintf(b, "%s_sum{%s} %d\n", name, labels, sumNs)
	fmt.Fprintf(b, "%s_count{%s} %d\n", name, labels, cum)
}

// formatFloat renders a sample value for the text exposition. The
// format admits non-real values only with the exact spellings "NaN",
// "+Inf" and "-Inf"; the streaming layer exports NaN on purpose for
// sampleless windows, so the special cases are handled explicitly
// rather than trusting a formatting verb to spell them right.
func formatFloat(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "+Inf"
	case math.IsInf(f, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// MetricsHandler returns an http.Handler serving a live snapshot:
// Prometheus text exposition by default, JSON with ?format=json.
func (in *Instrumented) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := in.Snapshot()
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(snap)
			return
		}
		w.Header().Set("Content-Type", promContentType)
		_ = WritePrometheus(w, snap)
	})
}

// Var returns the telemetry as an expvar.Var whose String() is the
// JSON snapshot, compatible with the standard expvar.Handler.
func (in *Instrumented) Var() expvar.Var {
	return expvar.Func(func() any { return in.Snapshot() })
}

// Publish registers the telemetry under name in the process-wide expvar
// registry (it appears at /debug/vars). Like expvar.Publish, it panics
// on a duplicate name.
func (in *Instrumented) Publish(name string) {
	expvar.Publish(name, in.Var())
}
