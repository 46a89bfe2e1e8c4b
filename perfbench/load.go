package main

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// openLoop sends events on a fixed schedule: event i is due at
// start+due[i], whatever happened to earlier events. senders goroutines
// take events in schedule order, so a slow response backs up the events
// behind it instead of delaying the schedule.
//
// fire receives the instant its event's latency is measured from. A sender
// that was idle slept until the due time, and its lateness on waking is
// the generator's own error, so the clock starts at the actual send. A
// sender that was still busy when the event fell due was backlogged, and
// the clock starts at the due time, so queueing behind a stall is counted.
// openLoop returns the idle senders' lateness (actual send minus due
// time), and returns only once every sender has finished.
func openLoop(start time.Time, due []time.Duration, senders int, fire func(i int, begin time.Time)) []time.Duration {
	var (
		next atomic.Int64
		mu   sync.Mutex
		lags []time.Duration
		wg   sync.WaitGroup
	)
	for range senders {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var mine []time.Duration
			for {
				i := int(next.Add(1) - 1)
				if i >= len(due) {
					break
				}
				dueAt := start.Add(due[i])
				begin := dueAt
				if wait := time.Until(dueAt); wait > 0 {
					time.Sleep(wait)
					begin = time.Now()
					mine = append(mine, begin.Sub(dueAt))
				}
				fire(i, begin)
			}
			mu.Lock()
			lags = append(lags, mine...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return lags
}

// poissonSchedule returns the due offsets of a Poisson process of the given
// rate over d, drawn from u (uniform variates in [0,1)).
func poissonSchedule(rate float64, d time.Duration, u func() float64) []time.Duration {
	var out []time.Duration
	t := 0.0
	for {
		t += -math.Log(1-u()) / rate
		off := time.Duration(t * float64(time.Second))
		if off >= d {
			return out
		}
		out = append(out, off)
	}
}

// interval is a closed time range.
type interval struct{ from, to time.Time }

// mergeIntervals returns the union of ivs as sorted disjoint intervals.
func mergeIntervals(ivs []interval) []interval {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].from.Before(s[j].from) })
	var out []interval
	for _, iv := range s {
		if n := len(out); n > 0 && !iv.from.After(out[n-1].to) {
			if iv.to.After(out[n-1].to) {
				out[n-1].to = iv.to
			}
			continue
		}
		out = append(out, iv)
	}
	return out
}

// overlaps reports whether iv meets any interval of the sorted disjoint set.
func overlaps(set []interval, iv interval) bool {
	// First interval ending at or after iv.from.
	k := sort.Search(len(set), func(k int) bool { return !set[k].to.Before(iv.from) })
	return k < len(set) && !set[k].from.After(iv.to)
}

// quantile returns the q-quantile of xs (linear interpolation between
// closest ranks). xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// ms converts durations to milliseconds.
func ms(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / 1e6
	}
	return out
}
