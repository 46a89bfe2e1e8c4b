package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/stats"
)

// Operation classes. Each percentile is taken within one class.
const (
	classSubmit = "submit"     // POST /ratings until a durable 201
	classRead   = "read"       // GET scores served from a clean cache
	classFresh  = "fresh_read" // GET scores right after the client's own acked submit
)

// workloads maps each workload's name to the function that measures it,
// leaving the samples, phases and final state in b. BENCHMARK.json and
// README.md say why each exists.
var workloads = map[string]func(b *bench) error{
	"live-defense": (*bench).liveDefense,
	"sybil-flood":  (*bench).sybilFlood,
	"restart":      (*bench).restart,
}

func workloadNames() []string {
	var out []string
	for n := range workloads {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// phase counts the operations of one part of a run.
type phase struct {
	name              string
	attempted, failed atomic.Int64
}

// rating is one submitted rating and its encoded request body.
type rating struct {
	product, rater string
	value, day     float64
	body           []byte
}

func newRating(product, rater string, value, day float64) rating {
	return rating{product: product, rater: rater, value: value, day: day, body: submitBody(product, rater, value, day)}
}

// sample is one latency; traced marks requests that carried a span ID.
type sample struct {
	d      time.Duration
	traced bool
}

// bench is the state of one run.
type bench struct {
	opts    options
	ids     []string
	history *dataset.Dataset
	front   *front
	tr      *tracer // nil unless traced
	out     io.Writer

	spans atomic.Uint64 // request counter, the source of span IDs
	busy  atomic.Int64  // nanoseconds senders spent waiting for responses
	dirs  atomic.Int64

	mu       sync.Mutex
	samples  map[string][]sample
	setups   []sample
	lags     []time.Duration
	phases   []*phase
	errs     []string
	peaks    []float64      // peak RSS of each measured unit, MiB
	perClass map[string]int // requests per class, for traced runs
	acked    []rating       // durable-acked submits of the final state, in ack order
	accepted int64          // durable-acked submits over the whole run

	// Set by the workload for the checks and the traced run's probes.
	finalView *dataset.Dataset
	finalDir  string
	stream    []rating // the write stream the store probe replays
	layer     layerDeltas
	rtStart   runtimeSnap
	rtEnd     runtimeSnap
}

// attacked is the product the Sybil flood targets and the product whose
// score each set-up serves first.
const attacked = "tv1"

func runWorkload(opts options, out io.Writer) (*result, error) {
	if err := os.MkdirAll(opts.work, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(opts.work)

	hist, err := dataset.GenerateFair(stats.NewRNG(opts.seed), dataset.DefaultFairConfig())
	if err != nil {
		return nil, err
	}
	f, err := startFront()
	if err != nil {
		return nil, err
	}
	defer f.close()
	b := &bench{
		opts: opts, ids: hist.ProductIDs(), history: hist, front: f, out: out,
		samples: map[string][]sample{}, perClass: map[string]int{},
	}
	if opts.trace {
		b.tr = newTracer()
	}
	if err := workloads[opts.workload](b); err != nil {
		var ce *checkError
		if errors.As(err, &ce) {
			res := b.result(nil)
			res.Correct = false
			return res, err
		}
		return nil, err
	}
	b.printPhases()
	if opts.trace {
		layers, err := b.layerMetrics()
		if err != nil {
			return nil, err
		}
		if err := b.tr.writeFile(filepath.Join(filepath.Dir(opts.work), fmt.Sprintf("trace-%s-%d.jsonl", opts.workload, opts.seed))); err != nil {
			return nil, err
		}
		return b.result(layers), nil
	}
	e2e, err := b.endToEnd()
	if err != nil {
		return nil, err
	}
	return b.result(e2e), nil
}

func (b *bench) result(m map[string]metric) *result {
	res := &result{Correct: true, Metrics: m}
	if res.Metrics == nil {
		res.Metrics = map[string]metric{}
	}
	for _, ph := range b.phases {
		res.Attempted += ph.attempted.Load()
		res.Failed += ph.failed.Load()
	}
	return res
}

// endToEnd assembles the end-to-end metrics from the timed run.
func (b *bench) endToEnd() (map[string]metric, error) {
	m := map[string]metric{}
	setup := ms(durations(b.setups, nil))
	if len(setup) < 3 {
		return nil, fmt.Errorf("only %d set-up samples", len(setup))
	}
	m["setup_s"] = metric{quantile(setup, 0.5) / 1e3, "s"}
	fmt.Fprintf(b.out, "samples setup=%d", len(setup))
	for _, c := range []string{classSubmit, classRead, classFresh} {
		xs := ms(durations(b.samples[c], nil))
		fmt.Fprintf(b.out, " %s=%d", c, len(xs))
		// A p90 needs ten samples beyond it.
		if len(xs) < 100 {
			fmt.Fprintln(b.out)
			return nil, fmt.Errorf("%s: %d samples, need 100 for a p90", c, len(xs))
		}
		m[c+"_p50_ms"] = metric{quantile(xs, 0.5), "ms"}
		m[c+"_p90_ms"] = metric{quantile(xs, 0.9), "ms"}
	}
	fmt.Fprintln(b.out)
	if len(b.lags) > 0 {
		fmt.Fprintf(b.out, "generator lag p90 %.4f ms over %d idle sends\n", quantile(ms(b.lags), 0.9), len(b.lags))
	}
	if len(b.peaks) == 0 {
		return nil, errors.New("no peak-RSS samples")
	}
	m["peak_rss_mb"] = metric{quantile(append([]float64(nil), b.peaks...), 0.5), "MiB"}
	return m, nil
}

// durations returns the sample durations, all of them when traced is nil,
// else only the traced or only the untraced ones.
func durations(ss []sample, traced *bool) []time.Duration {
	out := make([]time.Duration, 0, len(ss))
	for _, s := range ss {
		if traced == nil || s.traced == *traced {
			out = append(out, s.d)
		}
	}
	return out
}

func (b *bench) phase(name string) *phase {
	ph := &phase{name: name}
	b.mu.Lock()
	b.phases = append(b.phases, ph)
	b.mu.Unlock()
	return ph
}

func (b *bench) printPhases() {
	for _, ph := range b.phases {
		fmt.Fprintf(b.out, "phase %-8s attempted %6d failed %d\n", ph.name, ph.attempted.Load(), ph.failed.Load())
	}
	for _, e := range b.errs {
		fmt.Fprintln(b.out, "error:", e)
	}
}

// spanID returns the span ID for the next request of a class: in a traced
// run every other request of each class is traced, so the untraced half
// measures the tracing overhead under the same load; 0 means untraced.
func (b *bench) spanID(class string) uint64 {
	n := b.spans.Add(1)
	if b.tr == nil {
		return 0
	}
	b.mu.Lock()
	b.perClass[class]++
	odd := b.perClass[class]%2 == 1
	b.mu.Unlock()
	if !odd {
		return 0
	}
	return n
}

func (b *bench) addSample(class string, d time.Duration, span uint64) {
	b.mu.Lock()
	b.samples[class] = append(b.samples[class], sample{d: d, traced: span != 0})
	b.mu.Unlock()
}

func (b *bench) fail(ph *phase, err error) {
	ph.failed.Add(1)
	b.mu.Lock()
	if len(b.errs) < 8 {
		b.errs = append(b.errs, fmt.Sprintf("%s: %v", ph.name, err))
	}
	b.mu.Unlock()
}

// submit posts r, counting it in ph, and records it as acked when the ack
// is durable. It returns the span ID, the time the reply arrived and
// whether the ack was durable.
func (b *bench) submit(ph *phase, r rating) (uint64, time.Time, bool) {
	ph.attempted.Add(1)
	id := b.spanID(classSubmit)
	sent := time.Now()
	err := b.front.submit(r.body, id)
	end := time.Now()
	b.busy.Add(int64(end.Sub(sent)))
	if id != 0 {
		b.tr.add(id, spanClient, classSubmit, sent, end, 0)
	}
	if err != nil {
		b.fail(ph, err)
		return id, end, false
	}
	b.mu.Lock()
	b.acked = append(b.acked, r)
	if st := b.front.cur.Load(); st != nil && st.traced {
		b.accepted++
	}
	b.mu.Unlock()
	return id, end, true
}

// post is submit plus a submit sample measured from begin.
func (b *bench) post(ph *phase, r rating, begin time.Time) bool {
	id, end, ok := b.submit(ph, r)
	if ok {
		b.addSample(classSubmit, end.Sub(begin), id)
	}
	return ok
}

// get reads a product's scores, counting it in ph. It returns the latency
// from begin, the completion time and the span ID; class labels the client
// span.
func (b *bench) get(ph *phase, product, class string, begin time.Time) (time.Duration, time.Time, uint64, bool) {
	ph.attempted.Add(1)
	id := b.spanID(class)
	sent := time.Now()
	_, err := b.front.scores(product, id)
	end := time.Now()
	b.busy.Add(int64(end.Sub(sent)))
	if id != 0 {
		b.tr.add(id, spanClient, class, sent, end, 0)
	}
	if err != nil {
		b.fail(ph, err)
		return 0, end, id, false
	}
	return end.Sub(begin), end, id, true
}

// dir returns a fresh directory for one service instance.
func (b *bench) dir() string {
	return filepath.Join(b.opts.work, fmt.Sprintf("svc-%04d", b.dirs.Add(1)))
}

// setUpFresh brings up a service on an empty directory with the workload's
// history loaded, and serves the first defended score. The returned
// duration is one set-up sample.
func (b *bench) setUpFresh(ph *phase) (*stack, time.Duration, error) {
	dir := b.dir()
	b.markRSS() // every set-up starts from the same heap state
	start := time.Now()
	st, err := openStack(dir, b.ids, b.tr)
	if err != nil {
		return nil, 0, err
	}
	if err := st.svc.Load(context.Background(), b.history); err != nil {
		st.svc.Close()
		return nil, 0, fmt.Errorf("load history: %w", err)
	}
	b.front.cur.Store(st)
	if _, _, _, ok := b.get(ph, attacked, classRead, start); !ok {
		st.svc.Close()
		return nil, 0, fmt.Errorf("set-up: first score failed")
	}
	return st, time.Since(start), nil
}

// resetAcked forgets the acknowledged ratings of an earlier service
// instance; the final-state checks cover the last instance only.
func (b *bench) resetAcked() {
	b.mu.Lock()
	b.acked = nil
	b.mu.Unlock()
}

func (b *bench) ackedSnapshot() []rating {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]rating(nil), b.acked...)
}

// markRSS collects garbage, returns free memory to the operating system
// and resets the process's peak resident set, so that every measured unit
// starts from the same state and takeRSS reads that unit's own peak. Where
// the peak cannot be reset, takeRSS reads the peak since the process
// started.
func (b *bench) markRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort, see above
}

// takeRSS records the peak resident set (VmHWM) since the last markRSS.
func (b *bench) takeRSS() error {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return err
	}
	var kb float64
	for _, line := range strings.Split(string(raw), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			b.peaks = append(b.peaks, kb/1024)
			return nil
		}
	}
	return errors.New("VmHWM not found in /proc/self/status")
}
