package main

import (
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/stats"
)

// Workload parameters. They are fixed so that every seed and every version
// of the service sees the same amount of work.
const (
	// setUpCycles is the least number of set-up samples a run takes.
	setUpCycles = 25

	// live-defense: open-loop Poisson traffic at liveRate requests per
	// second, liveWriteShare of them read-your-write pairs.
	// liveWarmup of the same traffic runs untimed before the measured
	// schedule, so that no sample pays for the first requests' start-up.
	liveRate       = 550.0
	liveWriteShare = 0.1
	liveWarmup     = 2 * time.Second
	finalEpochDay  = 120.0 // first day of the final 30-day epoch

	// sybil-flood: one closed-loop attacker floods floodSize ratings into
	// the attacked product and reads its score after every floodReadEvery.
	floodSize      = 2000
	floodReadEvery = 20
	floodPeriod    = 4 // the attacked 30-day period, days 120-150

	// restart: the post-flood directory holds restartFlood flood ratings;
	// every cycle recovers it, serves the first score, checks, then sends
	// restartPairs read-your-write pairs, each followed by a cached read.
	// The write of each pair is a burst of restartBurst submits of the same
	// product, so that the submit percentiles rest on four times as many
	// samples as the reads, spread over the cycle's tail.
	restartFlood     = 5000
	restartPairs     = 8
	restartBurst     = 4
	restartMinCycles = 13 // 13 cycles of 8 pairs give 104 reads of each class
)

// floodRatings is the paper's Sybil attack on the attacked product: a
// core-generator profile of n ratings with bias +1 and spread 0.3 on the
// half-star grid, spread over the final epoch.
func (b *bench) floodRatings(n int) ([]rating, error) {
	h, err := b.history.Product(attacked)
	if err != nil {
		return nil, err
	}
	gen := core.NewGenerator(b.opts.seed, core.DefaultRaters(n))
	s, err := gen.GenerateProduct(core.Profile{
		Bias: 1, StdDev: 0.3, Count: n,
		StartDay: finalEpochDay, DurationDays: horizonDays - finalEpochDay - 0.01,
		Correlation: core.Independent, Quantize: true,
	}, h.Ratings)
	if err != nil {
		return nil, err
	}
	out := make([]rating, len(s))
	for i, r := range s {
		out[i] = newRating(attacked, r.Rater, r.Value, r.Day)
	}
	return out, nil
}

// liveRating is an honest rating of product i in the final epoch, drawn
// around the product's fair mean.
func (b *bench) liveRating(rng *rand.Rand, i, seq int) rating {
	p := b.history.Products[i]
	v := stats.Clamp(p.Ratings.Mean()+0.6*rng.NormFloat64(), dataset.MinValue, dataset.MaxValue)
	day := finalEpochDay + rng.Float64()*(horizonDays-finalEpochDay-0.01)
	return newRating(p.ID, fmt.Sprintf("live%06d", seq), dataset.QuantizeHalfStar(v), day)
}

// liveDefense: the service under normal traffic. Open-loop Poisson reads
// and read-your-write pairs over the 9-product history.
func (b *bench) liveDefense() error {
	ph := b.phase("setup")
	var st *stack
	for range setUpCycles {
		if st != nil {
			st.svc.Close()
		}
		var d time.Duration
		var err error
		if st, d, err = b.setUpFresh(ph); err != nil {
			return err
		}
		b.setups = append(b.setups, sample{d: d})
	}

	type event struct {
		product int
		write   rating // zero for a plain read
	}
	// schedule draws the Poisson traffic of d; seq numbers the raters of
	// its writes from first on.
	schedule := func(rng *rand.Rand, d time.Duration, first int) ([]time.Duration, []event) {
		due := poissonSchedule(liveRate, d, rng.Float64)
		events := make([]event, len(due))
		for i := range events {
			events[i].product = rng.IntN(len(b.ids))
			if rng.Float64() < liveWriteShare {
				events[i].write = b.liveRating(rng, events[i].product, first+i)
			}
		}
		return due, events
	}
	due, events := schedule(stats.NewRNG(b.opts.seed+1), b.opts.seconds, 0)
	warmDue, warmEvents := schedule(stats.NewRNG(b.opts.seed+3), liveWarmup, len(due))

	type readRec struct {
		iv interval
		s  sample
	}
	var (
		reads []readRec
		pairs []pairRec
	)
	load := b.phase("load")
	// fire sends one event; only the measured schedule records samples.
	fire := func(ev event, begin time.Time, record bool) {
		id := b.ids[ev.product]
		if ev.write.body == nil {
			d, end, span, ok := b.get(load, id, classRead, begin)
			if ok && record {
				b.mu.Lock()
				reads = append(reads, readRec{interval{begin, end}, sample{d, span != 0}})
				b.mu.Unlock()
			}
			return
		}
		// The pair's write window runs from the submit's start until its
		// fresh read has recomputed the aggregates.
		span, end, ok := b.submit(load, ev.write)
		p := pairRec{iv: interval{begin, end}, submit: sample{end.Sub(begin), span != 0}, acked: ok}
		if ok {
			d, fend, fspan, fok := b.get(load, id, classFresh, time.Now())
			p.iv.to, p.fresh, p.freshOK = fend, sample{d, fspan != 0}, fok
		}
		if record {
			b.mu.Lock()
			pairs = append(pairs, p)
			b.mu.Unlock()
		}
	}
	b.markRSS()
	openLoop(time.Now(), warmDue, maxSenders, func(i int, begin time.Time) { fire(warmEvents[i], begin, false) })
	b.busy.Store(0)
	b.startLayers()
	b.startRuntime()
	loadStart := time.Now()
	lags := openLoop(loadStart, due, maxSenders, func(i int, begin time.Time) { fire(events[i], begin, true) })
	b.stopRuntime()
	b.stopLayers()
	if err := b.takeRSS(); err != nil {
		return err
	}
	b.lags = lags
	fmt.Fprintf(b.out, "senders busy %.3f of the load phase\n", float64(b.busy.Load())/float64(time.Since(loadStart)))

	// A plain read whose span meets a write window may have paid for a
	// recompute or queued behind one; only the others are cached reads. A
	// pair whose window meets another pair's competed with that pair's
	// recompute or shared it; only isolated pairs give submit and
	// fresh-read samples.
	windows := make([]interval, len(pairs))
	for i, p := range pairs {
		windows[i] = p.iv
	}
	dirty := mergeIntervals(windows)
	for _, r := range reads {
		if !overlaps(dirty, r.iv) {
			b.samples[classRead] = append(b.samples[classRead], r.s)
		}
	}
	isolated := isolatedPairs(pairs)
	for _, p := range isolated {
		b.samples[classSubmit] = append(b.samples[classSubmit], p.submit)
		if p.freshOK {
			b.samples[classFresh] = append(b.samples[classFresh], p.fresh)
		}
	}
	fmt.Fprintf(b.out, "reads: %d cached of %d; pairs: %d isolated of %d\n", len(b.samples[classRead]), len(reads), len(isolated), len(pairs))

	acked := b.ackedSnapshot()
	view, err := b.closeAndCheck(st, acked)
	if err != nil {
		return err
	}
	b.finalView, b.finalDir, b.stream = view, st.dir, acked
	return nil
}

// pairRec is one read-your-write pair of the live traffic.
type pairRec struct {
	iv             interval // submit start to fresh-read end
	submit, fresh  sample
	acked, freshOK bool
}

// isolatedPairs returns the acked pairs whose windows meet no other pair's.
func isolatedPairs(pairs []pairRec) []pairRec {
	s := append([]pairRec(nil), pairs...)
	sort.Slice(s, func(i, j int) bool { return s[i].iv.from.Before(s[j].iv.from) })
	var out []pairRec
	var lastEnd time.Time // latest end among the windows that start earlier
	for i, p := range s {
		clearBefore := i == 0 || lastEnd.Before(p.iv.from)
		clearAfter := i == len(s)-1 || s[i+1].iv.from.After(p.iv.to)
		if clearBefore && clearAfter && p.acked {
			out = append(out, p)
		}
		if i == 0 || p.iv.to.After(lastEnd) {
			lastEnd = p.iv.to
		}
	}
	return out
}

// sybilFlood: one closed-loop attacker floods the attacked product. Every
// round starts from a fresh service with the history loaded, so each round
// does identical work; rounds repeat until the run's time is used.
func (b *bench) sybilFlood() error {
	flood, err := b.floodRatings(floodSize)
	if err != nil {
		return err
	}
	setup, ph := b.phase("setup"), b.phase("flood")
	deadline := time.Now().Add(b.opts.seconds)
	b.startRuntime()
	var last *stack
	for round := 0; round == 0 || time.Now().Before(deadline); round++ {
		st, d, err := b.setUpFresh(setup)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, sample{d: d})
		b.resetAcked()
		b.startLayers()
		for j, r := range flood {
			b.post(ph, r, time.Now())
			if (j+1)%floodReadEvery != 0 {
				continue
			}
			if d, _, span, ok := b.get(ph, attacked, classFresh, time.Now()); ok {
				b.addSample(classFresh, d, span)
			}
			// The attacker reads again: the cache is now clean.
			if d, _, span, ok := b.get(ph, attacked, classRead, time.Now()); ok {
				b.addSample(classRead, d, span)
			}
		}
		b.stopLayers()
		if err := b.takeRSS(); err != nil {
			return err
		}
		if err := b.checkRound(st); err != nil {
			return err
		}
		last = st
	}
	b.stopRuntime()
	for len(b.setups) < setUpCycles {
		st, d, err := b.setUpFresh(setup)
		if err != nil {
			return err
		}
		b.setups = append(b.setups, sample{d: d})
		b.front.cur.Store(nil)
		st.svc.Close()
	}
	b.finalDir = last.dir
	b.stream = flood
	return nil
}

// checkRound runs the end-of-round checks of the flood: the served state
// matches the store, and the defense beats the plain average.
func (b *bench) checkRound(st *stack) error {
	served, err := b.front.scores(attacked, 0)
	if err != nil {
		return err
	}
	view, err := b.closeAndCheck(st, b.ackedSnapshot())
	if err != nil {
		return err
	}
	fair, sa, p, err := checkDefense(b.history, view, served, attacked, floodPeriod)
	if err != nil {
		return err
	}
	if b.finalView == nil {
		fmt.Fprintf(b.out, "defense: attacked period fair mean %.4f, SA %.4f, P %.4f\n", fair, sa, p)
	}
	b.finalView = view
	return nil
}

// restart: the morning after the flood. Each cycle recovers a copy of the
// same post-flood directory, serves the first defended score, checks it,
// sends a short tail of traffic and closes.
func (b *bench) restart() error {
	base, err := b.buildPostFlood()
	if err != nil {
		return err
	}
	want, err := evaluate(b.finalView)
	if err != nil {
		return err
	}
	counts := map[string]int{}
	for _, p := range b.finalView.Products {
		counts[p.ID] = len(p.Ratings)
	}
	// The tail is the same in every cycle: an untimed warm-up, then
	// read-your-write pairs, each a burst of submits of one product
	// followed by its fresh read and a second, cached read. The
	// warm-up makes the first append to each shard's reopened log, and the
	// reads that follow a collection, outside the timed samples.
	rng := stats.NewRNG(b.opts.seed + 2)
	warm := []rating{b.liveRating(rng, 0, 900), b.liveRating(rng, 1, 901)} // tv1 and tv2 route to different shards
	tail := make([][]rating, restartPairs)
	for i := range tail {
		// Every fourth pair rates the attacked product, whose recompute is
		// the slow mode; a quarter keeps the p50 and the p90 each well
		// inside one mode.
		product := 1 + i%(len(b.ids)-1)
		if i%4 == 0 {
			product = 0
		}
		for k := range restartBurst {
			tail[i] = append(tail[i], b.liveRating(rng, product, i*restartBurst+k))
		}
	}

	setup, ph := b.phase("setup"), b.phase("tail")
	deadline := time.Now().Add(b.opts.seconds)
	b.startRuntime()
	for cycle := 0; cycle < restartMinCycles || time.Now().Before(deadline); cycle++ {
		dir := b.dir()
		if err := copyDir(base, dir); err != nil {
			return err
		}
		// Traced runs trace every other cycle, so the untraced cycles give
		// the tracing overhead on set-up.
		tr := b.tr
		if cycle%2 == 0 {
			tr = nil
		}
		b.markRSS()
		start := time.Now()
		st, err := openStack(dir, b.ids, tr)
		if err != nil {
			return err
		}
		b.front.cur.Store(st)
		opened := time.Since(start)
		b.startLayers()
		firstStart := time.Now()
		setup.attempted.Add(1)
		if _, err := b.front.scores(attacked, 0); err != nil {
			b.fail(setup, err)
			st.svc.Close()
			return fmt.Errorf("first score after recovery: %w", err)
		}
		b.setups = append(b.setups, sample{d: opened + time.Since(firstStart), traced: tr != nil})
		b.stopLayers()

		served, err := b.serveReports()
		if err != nil {
			st.svc.Close()
			return err
		}
		if err := checkCounts(served, counts); err == nil {
			err = checkServed(served, want)
		}
		if err != nil {
			st.svc.Close()
			return fmt.Errorf("recovery cycle %d: %w", cycle, err)
		}

		// The tail starts from the same heap state in every cycle, not
		// from whatever garbage recovery and the checks left.
		runtime.GC()
		b.resetAcked()
		for _, r := range warm {
			b.submit(ph, r)
		}
		for i := range 3 {
			b.get(ph, b.ids[i], classRead, time.Now())
		}
		for _, burst := range tail {
			acked := false
			for _, r := range burst {
				acked = b.post(ph, r, time.Now()) || acked
			}
			if !acked {
				continue
			}
			product := burst[0].product
			if d, _, span, ok := b.get(ph, product, classFresh, time.Now()); ok {
				b.addSample(classFresh, d, span)
			}
			if d, _, span, ok := b.get(ph, product, classRead, time.Now()); ok {
				b.addSample(classRead, d, span)
			}
		}
		if err := b.takeRSS(); err != nil {
			return err
		}
		if cycle == 0 {
			// The full store check once per run: every acknowledged
			// rating, the flood's and the tail's, is in the recovered store.
			acked := append(append([]rating(nil), b.stream...), b.ackedSnapshot()...)
			if _, err := b.closeAndCheck(st, acked); err != nil {
				return err
			}
		} else {
			b.front.cur.Store(nil)
			if err := st.svc.Close(); err != nil {
				return err
			}
		}
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
	}
	b.stopRuntime()
	b.finalDir = base
	return nil
}

// buildPostFlood writes the restart workload's initial state: the history
// loaded into a fresh service, then the flood submitted over HTTP under
// the deployed flush policy, then a clean shutdown. It leaves the acked
// flood in b.stream and the expected dataset in b.finalView.
func (b *bench) buildPostFlood() (string, error) {
	flood, err := b.floodRatings(restartFlood)
	if err != nil {
		return "", err
	}
	ph := b.phase("build")
	st, _, err := b.setUpFresh(ph)
	if err != nil {
		return "", err
	}
	b.resetAcked()
	for _, r := range flood {
		b.post(ph, r, time.Now())
	}
	acked := b.ackedSnapshot()
	view, err := b.closeAndCheck(st, acked)
	if err != nil {
		return "", err
	}
	// The build's submits are not part of the measured traffic.
	b.mu.Lock()
	delete(b.samples, classSubmit)
	delete(b.samples, classRead)
	b.mu.Unlock()
	b.stream, b.finalView = acked, view
	return st.dir, nil
}

// copyDir copies the regular files of a WAL directory tree and flushes the
// copy to the disk, so that the fsyncs of the recovered service do not also
// write back the copy.
func copyDir(src, dst string) error {
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].Name() < entries[j].Name() })
	for _, e := range entries {
		s, d := src+"/"+e.Name(), dst+"/"+e.Name()
		if e.IsDir() {
			if err := copyDir(s, d); err != nil {
				return err
			}
			continue
		}
		data, err := os.ReadFile(s)
		if err != nil {
			return err
		}
		if err := writeSynced(d, data); err != nil {
			return err
		}
	}
	return syncPath(dst)
}

// writeSynced writes a file and flushes it to the disk.
func writeSynced(name string, data []byte) error {
	f, err := os.OpenFile(name, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncPath flushes a directory's entries to the disk.
func syncPath(name string) error {
	f, err := os.Open(name)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
