package main

import (
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"
)

// spin busy-waits for d, so a handler's service time is exact rather than
// a sleep's.
func spin(d time.Duration) {
	for start := time.Now(); time.Since(start) < d; {
	}
}

// timedOpenLoop drives h, served in process so that no network overhead
// blurs the timing, with an open loop over due starting at start, and
// returns each event's latency as openLoop prescribes.
func timedOpenLoop(h http.Handler, start time.Time, due []time.Duration, senders int) []time.Duration {
	lat := make([]time.Duration, len(due))
	openLoop(start, due, senders, func(i int, begin time.Time) {
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/", nil))
		lat[i] = time.Since(begin) // each index is written by one sender only
	})
	return lat
}

func evenSchedule(n int, gap time.Duration) []time.Duration {
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i+1) * gap
	}
	return due
}

// A handler that takes a fixed time must read back that time as the median:
// the generator's own sleep overshoot must not be counted as latency.
func TestOpenLoopReadsBackFixedDelay(t *testing.T) {
	const delay = 3 * time.Millisecond
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { spin(delay) })
	lat := timedOpenLoop(h, time.Now(), evenSchedule(100, 10*time.Millisecond), 1)
	p50 := time.Duration(quantile(ms(lat), 0.5) * 1e6)
	if p50 < delay || p50 > delay+300*time.Microsecond {
		t.Fatalf("p50 %v, want the handler's %v", p50, delay)
	}
}

// A single 50 ms stall must show as queueing on the requests that fell due
// while it lasted: their latency runs from the due time, not from the
// moment a sender got round to them.
func TestOpenLoopCountsQueueingBehindStall(t *testing.T) {
	const (
		stall = 50 * time.Millisecond
		gap   = 2 * time.Millisecond
	)
	var (
		mu         sync.Mutex // serializes the handler, as a held WAL lock would
		served     int
		stallStart time.Time
	)
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		served++
		if served == 20 {
			stallStart = time.Now()
			spin(stall)
		}
	})
	due := evenSchedule(100, gap)
	start := time.Now()
	lat := timedOpenLoop(h, start, due, maxSenders)
	if stallStart.IsZero() {
		t.Fatal("the stall never ran")
	}
	// From a few milliseconds into the stall both senders are blocked, so
	// every event due until shortly before it ends is backlogged and must
	// carry the rest of the stall.
	stallEnd := stallStart.Add(stall)
	queued := 0
	for i, d := range due {
		dueAt := start.Add(d)
		if dueAt.Before(stallStart.Add(5*time.Millisecond)) || dueAt.After(stallEnd.Add(-5*time.Millisecond)) {
			continue
		}
		queued++
		if want := stallEnd.Sub(dueAt) - 200*time.Microsecond; lat[i] < want {
			t.Errorf("event %d due %v into the stall: latency %v, want >= %v", i, dueAt.Sub(stallStart), lat[i], want)
		}
	}
	if queued < 15 {
		t.Fatalf("only %d events fell due during the stall", queued)
	}
}

func at(ms float64) time.Time { return time.Unix(0, 0).Add(time.Duration(ms * 1e6)) }

// Reads are cached only when their span meets no write window.
func TestReadClassification(t *testing.T) {
	dirty := mergeIntervals([]interval{{at(10), at(20)}, {at(15), at(30)}, {at(50), at(60)}})
	if len(dirty) != 2 {
		t.Fatalf("merged windows %v, want two", dirty)
	}
	for _, c := range []struct {
		from, to float64
		dirty    bool
	}{
		{0, 9, false}, {0, 10, true}, {25, 40, true}, {31, 49, false}, {55, 56, true}, {61, 70, false},
	} {
		if got := overlaps(dirty, interval{at(c.from), at(c.to)}); got != c.dirty {
			t.Errorf("read [%v, %v]: overlaps = %v, want %v", c.from, c.to, got, c.dirty)
		}
	}
}

// Only pairs whose window meets no other pair's give submit and fresh-read
// samples.
func TestIsolatedPairs(t *testing.T) {
	pair := func(from, to float64, acked bool) pairRec {
		return pairRec{iv: interval{at(from), at(to)}, acked: acked}
	}
	got := isolatedPairs([]pairRec{
		pair(40, 45, true), // isolated
		pair(0, 10, true),  // overlaps the next
		pair(5, 8, true),   // inside the previous
		pair(20, 30, true), // isolated
		pair(50, 55, false),
	})
	if len(got) != 2 || !got[0].iv.from.Equal(at(20)) || !got[1].iv.from.Equal(at(40)) {
		t.Fatalf("isolated pairs %v, want those starting at 20 and 40", got)
	}
}
