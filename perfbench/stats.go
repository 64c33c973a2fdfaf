package main

import (
	"math"
	"runtime"
	"sort"
	"time"
)

// samples keeps the most recent observations of one quantity in a
// fixed ring, so a long run measures its steady state in bounded
// memory. Quantiles are exact over the held values. A samples value is
// owned by one goroutine; others read it only after a synchronizing
// event (a barrier episode, a channel close, a WaitGroup).
type samples struct {
	buf []int64
	n   int
}

func newSamples(capacity int) *samples {
	return &samples{buf: make([]int64, capacity)}
}

func (s *samples) add(v int64) {
	s.buf[s.n%len(s.buf)] = v
	s.n++
}

// held returns the retained observations (unsorted, aliasing the ring).
func (s *samples) held() []int64 {
	if s.n < len(s.buf) {
		return s.buf[:s.n]
	}
	return s.buf
}

// quantile returns the q-quantile of the held values with linear
// interpolation between order statistics, 0 when empty.
func (s *samples) quantile(q float64) float64 {
	return quantileOf(s.held(), q)
}

func (s *samples) median() float64 { return s.quantile(0.5) }

// merged concatenates the held values of several rings.
func merged(ss ...*samples) *samples {
	total := 0
	for _, s := range ss {
		total += len(s.held())
	}
	out := newSamples(max(total, 1))
	for _, s := range ss {
		for _, v := range s.held() {
			out.add(v)
		}
	}
	return out
}

// windowed summarizes one latency per window: each window's p50 and
// p90, and the run reports one window chosen by a quantile across
// windows. A burst of load from outside the program then moves the
// windows it overlaps rather than the run's figure, while a change
// that slows every window moves them all. Raw values are kept until
// summarize, so a hot loop that closes a window pays for an append,
// not a sort.
//
// Most figures take the window at quietQuantile. On a shared host a
// virtual CPU runs slow for stretches of tens of milliseconds to
// seconds, so a run's windows fall into a fast and a slow mode whose
// mix changes from run to run; the median window then jumps between
// the modes (on bsp-fine its runs spread by 0.24 to 0.39 of the
// median). Interference only ever adds time, and every run has a
// quiet tenth, so the 10th-percentile window is the program's own cost
// with the least of the host in it, and a change that slows every
// window still moves it.
type windowed struct {
	vals     []int32 // nanoseconds, saturated at MaxInt32
	ends     []int   // end of each closed window in vals
	p50, p90 []float64
}

const quietQuantile = 0.1

// minWindowSamples keeps a nearly empty trailing window out of the
// summary.
const minWindowSamples = 64

func (w *windowed) add(ns int64) { w.vals = append(w.vals, int32(min(ns, math.MaxInt32))) }

// close ends the current window.
func (w *windowed) close() {
	if n := len(w.ends); n == 0 || w.ends[n-1] != len(w.vals) {
		w.ends = append(w.ends, len(w.vals))
	}
}

// summarize closes the current window, folds every closed window into
// its quantiles and drops the raw values.
func (w *windowed) summarize() {
	w.close()
	lo := 0
	xs := make([]float64, 0, minWindowSamples)
	for _, hi := range w.ends {
		if hi-lo >= minWindowSamples {
			xs = xs[:0]
			for _, v := range w.vals[lo:hi] {
				xs = append(xs, float64(v))
			}
			w.p50 = append(w.p50, quantileF(xs, 0.5))
			w.p90 = append(w.p90, quantileF(xs, 0.9))
		}
		lo = hi
	}
	w.vals, w.ends = w.vals[:0], w.ends[:0]
}

// merge adds o's summarized windows to w's.
func (w *windowed) merge(o *windowed) {
	w.p50 = append(w.p50, o.p50...)
	w.p90 = append(w.p90, o.p90...)
}

// quantilesUs returns, in microseconds, the across-quantile of the
// windows' p50s and of their p90s.
func (w *windowed) quantilesUs(across float64) (p50, p90 float64) {
	q := func(xs []float64) float64 { return quantileF(append([]float64(nil), xs...), across) / 1e3 }
	return q(w.p50), q(w.p90)
}

func quantileOf(vals []int64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	xs := make([]float64, len(vals))
	for i, v := range vals {
		xs[i] = float64(v)
	}
	return quantileF(xs, q)
}

// quantileF is quantileOf for float64 values; it sorts xs in place.
func quantileF(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func medianF(xs []float64) float64 { return quantileF(append([]float64(nil), xs...), 0.5) }

// quietF is the quietQuantile of xs, leaving xs unsorted.
func quietF(xs []float64) float64 { return quantileF(append([]float64(nil), xs...), quietQuantile) }

// clock returns monotonic nanoseconds since a fixed origin. Comparing
// stamps taken on different goroutines is sound: Go's monotonic clock
// is process-wide.
var origin = time.Now()

func now() int64 { return int64(time.Since(origin)) }

// spinUntil waits for the monotonic clock to reach t, sleeping through
// any part of the wait longer than a millisecond. The open-loop
// generator uses it so a due time is met to within a clock read instead
// of a timer's granularity. It yields between reads: a goroutine the
// generator just readied (a wake-up pool worker, a receiver) sits in
// the generator's run queue, and a generator holding its processor
// would charge the Go scheduler's steal delay to the fabric.
func spinUntil(t int64) {
	for {
		d := t - now()
		if d <= 0 {
			return
		}
		if d > int64(time.Millisecond) {
			time.Sleep(time.Duration(d) - 500*time.Microsecond)
		}
		runtime.Gosched()
	}
}
