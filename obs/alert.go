package obs

import (
	"fmt"

	"armbarrier/tune"
)

// Alerting for the streaming telemetry layer: detectors (detect.go)
// raise typed Alerts with hysteresis (confirmation windows for regime
// shifts, detector reset + holddown for change points, K-consecutive
// persistence for stragglers), the stream keeps a bounded history, and
// StreamOptions.OnAlert delivers each one to a handler callback — the
// same push pattern as barrier.WatchdogConfig.OnStall, so a service
// wires both into the same pager path.

// AlertKind enumerates what the streaming detectors can raise.
type AlertKind uint8

const (
	// AlertRegimeShift fires when the confirmed regime flips (e.g.
	// dedicated -> oversubscribed), after two agreeing windows.
	AlertRegimeShift AlertKind = iota
	// AlertChangePoint fires when Page-Hinkley detects a sustained
	// level shift in a watched metric (wait_p99_ns or skew_mean_ns).
	AlertChangePoint
	// AlertStraggler fires when the same participant is slow in
	// DetectorOptions.StragglerWindows consecutive windows.
	AlertStraggler
	// AlertStragglerCleared fires on the first window after an active
	// straggler recovered (or the blame moved).
	AlertStragglerCleared
	// AlertWatchdogStall fires when a window saw watchdog stalls.
	AlertWatchdogStall
	// AlertModelDrift fires when a phase's measured cost diverges from
	// the analytical model's prediction (see DriftBoard in drift.go):
	// the EWMA'd log2 ratio of measured to predicted per-phase cost
	// crossed the configured threshold. Single-fire: the latch re-arms
	// only after the ratio drops back under the threshold.
	AlertModelDrift

	// numAlertKinds counts the kinds above; exporters range up to it.
	numAlertKinds
)

// alertKindNames are the wire labels, used for JSON and Prometheus.
var alertKindNames = map[AlertKind]string{
	AlertRegimeShift:      "regime_shift",
	AlertChangePoint:      "change_point",
	AlertStraggler:        "straggler",
	AlertStragglerCleared: "straggler_cleared",
	AlertWatchdogStall:    "watchdog_stall",
	AlertModelDrift:       "model_drift",
}

// String implements fmt.Stringer.
func (k AlertKind) String() string {
	if n, ok := alertKindNames[k]; ok {
		return n
	}
	return fmt.Sprintf("alert_kind_%d", k)
}

// MarshalText implements encoding.TextMarshaler, so AlertKind marshals
// into JSON as its string label.
func (k AlertKind) MarshalText() ([]byte, error) { return []byte(k.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (k *AlertKind) UnmarshalText(b []byte) error {
	for kind, name := range alertKindNames {
		if name == string(b) {
			*k = kind
			return nil
		}
	}
	return fmt.Errorf("obs: unknown alert kind %q", b)
}

// Alert is one raised alert.
type Alert struct {
	Kind AlertKind `json:"kind"`
	// Window is the rotation index that raised the alert; AtNs its end
	// on the stream's monotonic clock.
	Window uint64 `json:"window"`
	AtNs   int64  `json:"at_ns"`
	// Barrier is the instrumented barrier's name.
	Barrier string `json:"barrier"`
	// Regime is the confirmed regime when the alert fired.
	Regime tune.Regime `json:"regime"`
	// Metric names what fired (wait_p99_ns, skew_mean_ns, regime,
	// straggler, watchdog_stalls).
	Metric string `json:"metric"`
	// Participant is the culprit for straggler alerts, -1 otherwise.
	Participant int `json:"participant"`
	// Value is the metric's level when the alert fired (0 when the
	// alert has no scalar).
	Value float64 `json:"value"`
	// Message is the human-readable one-liner.
	Message string `json:"message"`
}

// String formats the alert the way a log line wants it.
func (a Alert) String() string {
	return fmt.Sprintf("alert %s [%s window %d]: %s", a.Kind, a.Barrier, a.Window, a.Message)
}
