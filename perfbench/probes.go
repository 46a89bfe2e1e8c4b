package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"time"

	"repro/internal/dataset"
	"repro/internal/detect"
	"repro/internal/engine"
	"repro/internal/store"
	"repro/internal/wal"
)

// promSamples maps a Prometheus sample name (without labels) to its values,
// one per label set.
type promSamples map[string][]float64

// parseProm reads the text exposition format. Comment lines and
// unparsable lines are skipped.
func parseProm(text []byte) promSamples {
	out := promSamples{}
	for _, line := range strings.Split(string(text), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		name := line[:sp]
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		out[name] = append(out[name], v)
	}
	return out
}

func (p promSamples) sum(name string) (float64, bool) {
	vs, ok := p[name]
	s := 0.0
	for _, v := range vs {
		s += v
	}
	return s, ok
}

func (p promSamples) max(name string) (float64, bool) {
	vs, ok := p[name]
	m := 0.0
	for _, v := range vs {
		m = max(m, v)
	}
	return m, ok
}

// The metric families the traced run reads, by name. A family the service
// does not export is reported absent, never as a failure.
var scrapedFamilies = []string{
	"engine_eval_seconds_sum", "engine_eval_seconds_count",
	"admission_queue_wait_seconds_sum", "admission_queue_wait_seconds_count",
	"engine_products_analyzed_total", "engine_products_skipped_total",
}

// layerDeltas accumulates the change of each scraped family over the
// measured phases of a run.
type layerDeltas struct {
	before promSamples
	delta  map[string]float64
	absent map[string]bool
}

// startLayers scrapes /metrics of the current service at the start of a
// measured phase of a traced run.
func (b *bench) startLayers() {
	if b.tr == nil {
		return
	}
	b.layer.before = b.scrape()
}

// stopLayers adds the change since startLayers to the run's deltas.
func (b *bench) stopLayers() {
	if b.tr == nil {
		return
	}
	after := b.scrape()
	if b.layer.delta == nil {
		b.layer.delta, b.layer.absent = map[string]float64{}, map[string]bool{}
	}
	for _, name := range scrapedFamilies {
		a, okA := after.sum(name)
		bf, okB := b.layer.before.sum(name)
		if !okA || !okB {
			b.layer.absent[name] = true
			continue
		}
		b.layer.delta[name] += a - bf
	}
}

// scrape reads /metrics of the current service; a failed scrape reads as
// every family absent.
func (b *bench) scrape() promSamples {
	p, err := b.front.metrics()
	if err != nil {
		fmt.Fprintln(b.out, "scrape /metrics:", err)
		return promSamples{}
	}
	return p
}

// scrapeRegistry reads st's exposition directly from its registry, for a
// service that is not behind the HTTP front.
func scrapeRegistry(st *stack) promSamples {
	var buf bytes.Buffer
	if err := st.reg.WritePrometheus(&buf); err != nil {
		return promSamples{}
	}
	return parseProm(buf.Bytes())
}

// runtimeSnap holds the runtime/metrics counters the traced run reports.
type runtimeSnap struct{ gcCPU, totalCPU, allocBytes, allocObjects float64 }

func readRuntime() runtimeSnap {
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/heap/allocs:objects"},
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		}
		return 0
	}
	return runtimeSnap{gcCPU: v(0), totalCPU: v(1), allocBytes: v(2), allocObjects: v(3)}
}

func (b *bench) startRuntime() { b.rtStart = readRuntime() }
func (b *bench) stopRuntime()  { b.rtEnd = readRuntime() }

// layerMetrics assembles the per-layer metrics of a traced run: span
// self-times, scraped counters, runtime counters and the direct probes on
// the workload's final state.
func (b *bench) layerMetrics() (map[string]metric, error) {
	m := map[string]metric{}
	spans := b.tr.snapshot()
	type req struct {
		class                      string
		client, admission, handler time.Duration
	}
	reqs := map[uint64]*req{}
	var fsyncs, snaps []float64
	walBytes := 0
	for _, s := range spans {
		d := time.Duration(s.End - s.Start)
		switch s.Kind {
		case spanFsync:
			fsyncs = append(fsyncs, float64(d)/1e3)
			continue
		case spanSnapshot:
			snaps = append(snaps, float64(d)/1e6)
			continue
		case spanWrite:
			walBytes += s.Bytes
			continue
		}
		r := reqs[s.ID]
		if r == nil {
			r = &req{}
			reqs[s.ID] = r
		}
		switch s.Kind {
		case spanClient:
			r.class, r.client = s.Class, d
		case spanAdmission:
			r.admission = d
		case spanHandler:
			r.handler = d
		}
	}
	httpUS := map[string][]float64{}
	var queue []float64
	for _, r := range reqs {
		if r.client == 0 || r.admission == 0 || r.handler == 0 {
			continue // a request whose server-side spans were not recorded
		}
		httpUS[r.class] = append(httpUS[r.class], float64(r.client-r.handler)/1e3)
		queue = append(queue, float64(r.admission-r.handler)/1e3)
	}
	for _, c := range []string{classSubmit, classRead, classFresh} {
		m["server.http_us."+c] = metric{orZero(httpUS[c], 0.5), "us"}
	}
	m["resilience.queue_wait_us"] = metric{orZero(queue, 0.9), "us"}
	m["wal.fsync_us"] = metric{orZero(fsyncs, 0.5), "us"}
	m["wal.snapshot_ms"] = metric{orZero(snaps, 0.5), "ms"}
	if b.accepted > 0 {
		m["wal.fsyncs_per_submit"] = metric{float64(len(fsyncs)) / float64(b.accepted), "count"}
		m["wal.bytes_per_rating"] = metric{float64(walBytes) / float64(b.accepted), "B"}
	} else {
		m["wal.fsyncs_per_submit"] = metric{0, "count"}
		m["wal.bytes_per_rating"] = metric{0, "B"}
	}

	dl := b.layer.delta
	ratio := func(num, den string, scale float64) float64 {
		if dl[den] == 0 {
			return 0
		}
		return dl[num] / dl[den] * scale
	}
	m["server.evals"] = metric{dl["engine_eval_seconds_count"], "count"}
	m["server.eval_ms"] = metric{ratio("engine_eval_seconds_sum", "engine_eval_seconds_count", 1e3), "ms"}
	m["resilience.queue_wait_mean_us"] = metric{ratio("admission_queue_wait_seconds_sum", "admission_queue_wait_seconds_count", 1e6), "us"}
	m["engine.products_analyzed"] = metric{dl["engine_products_analyzed_total"], "count"}
	m["engine.products_skipped"] = metric{dl["engine_products_skipped_total"], "count"}
	absent := make([]string, 0, len(b.layer.absent))
	for name := range b.layer.absent {
		absent = append(absent, name)
	}
	sort.Strings(absent)
	for _, name := range absent {
		fmt.Fprintf(b.out, "metric family %s absent: reported as 0\n", name)
	}

	cpu := b.rtEnd.totalCPU - b.rtStart.totalCPU
	if cpu > 0 {
		m["go.gc_cpu_frac"] = metric{(b.rtEnd.gcCPU - b.rtStart.gcCPU) / cpu, "ratio"}
	} else {
		m["go.gc_cpu_frac"] = metric{0, "ratio"}
	}
	m["go.alloc_mb"] = metric{(b.rtEnd.allocBytes - b.rtStart.allocBytes) / (1 << 20), "MiB"}

	m["bench.gen_lag_p90_ms"] = metric{orZero(ms(b.lags), 0.9), "ms"}
	m["bench.trace_overhead"] = metric{b.traceOverhead(), "ratio"}

	probes, err := b.probes()
	if err != nil {
		return nil, err
	}
	for k, v := range probes {
		m[k] = v
	}
	return m, nil
}

// traceOverhead compares the traced and untraced halves of the workload's
// primary operation class: the relative increase of the traced median.
func (b *bench) traceOverhead() float64 {
	ss := b.samples[classRead]
	switch b.opts.workload {
	case "sybil-flood":
		ss = b.samples[classFresh]
	case "restart":
		ss = b.setups
	}
	on, off := true, false
	t, u := ms(durations(ss, &on)), ms(durations(ss, &off))
	if len(t) == 0 || len(u) == 0 {
		return 0
	}
	return quantile(t, 0.5)/quantile(u, 0.5) - 1
}

func orZero(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return quantile(xs, q)
}

// probeReps is how many times each direct probe repeats; it reports the
// median.
const probeReps = 3

// probes runs each layer directly on the workload's final state.
func (b *bench) probes() (map[string]metric, error) {
	m := map[string]metric{}
	final := b.finalView
	ctx := context.Background()
	eng := deployedEngine()

	var cold []float64
	for range probeReps {
		start := time.Now()
		if _, err := eng.Evaluate(ctx, final); err != nil {
			return nil, err
		}
		cold = append(cold, msSince(start))
	}
	m["engine.cold_ms"] = metric{quantile(cold, 0.5), "ms"}

	// Resume after one final-epoch rating on each product in turn.
	st := engine.NewState()
	if _, err := eng.Resume(ctx, st, final); err != nil {
		return nil, err
	}
	d := *final
	d.Products = append([]dataset.Product(nil), final.Products...)
	var resume []float64
	for i := range d.Products {
		p := &d.Products[i]
		day := horizonDays - 0.5
		p.Ratings = p.Ratings.Insert(dataset.Rating{Day: day, Value: 4, Rater: fmt.Sprintf("probe%03d", i)})
		p.Version++
		st.Invalidate(day)
		start := time.Now()
		if _, err := eng.Resume(ctx, st, &d); err != nil {
			return nil, err
		}
		resume = append(resume, msSince(start))
	}
	m["engine.resume_ms"] = metric{quantile(resume, 0.5), "ms"}

	// Each detector over every product's final series.
	cfg := eng.Detect
	var mc, arc, hc, me, meAllocs []float64
	for range probeReps {
		var tMC, tARC, tHC, tME time.Duration
		var objs float64
		for _, p := range final.Products {
			s := p.Ratings
			t := time.Now()
			detect.MeanChange(s, cfg, detect.NeutralTrust())
			tMC += time.Since(t)
			t = time.Now()
			detect.ArrivalRateChange(s, final.HorizonDays, detect.HighBand, cfg)
			detect.ArrivalRateChange(s, final.HorizonDays, detect.LowBand, cfg)
			tARC += time.Since(t)
			t = time.Now()
			detect.HistogramChange(s, cfg)
			tHC += time.Since(t)
			before := readRuntime()
			t = time.Now()
			detect.ModelError(s, cfg)
			tME += time.Since(t)
			objs += readRuntime().allocObjects - before.allocObjects
		}
		mc = append(mc, float64(tMC)/1e6)
		arc = append(arc, float64(tARC)/1e6)
		hc = append(hc, float64(tHC)/1e6)
		me = append(me, float64(tME)/1e6)
		meAllocs = append(meAllocs, objs/float64(len(final.Products)))
	}
	m["detect.mc_ms"] = metric{quantile(mc, 0.5), "ms"}
	m["detect.arc_ms"] = metric{quantile(arc, 0.5), "ms"}
	m["detect.hc_ms"] = metric{quantile(hc, 0.5), "ms"}
	m["detect.me_ms"] = metric{quantile(me, 0.5), "ms"}
	m["detect.me_allocs"] = metric{quantile(meAllocs, 0.5), "count"}

	// The workload's write stream, replayed by store.Submit into an
	// in-memory store holding the history.
	mem, err := store.New(horizonDays, b.ids, runtime.GOMAXPROCS(0))
	if err != nil {
		return nil, err
	}
	if err := mem.Load(ctx, b.history); err != nil {
		return nil, err
	}
	submit := make([]float64, 0, len(b.stream))
	before := readRuntime()
	for _, r := range b.stream {
		start := time.Now()
		if _, err := mem.Submit(ctx, r.product, r.rater, r.value, r.day); err != nil {
			return nil, fmt.Errorf("store probe: %w", err)
		}
		submit = append(submit, float64(time.Since(start))/1e3)
	}
	allocKB := (readRuntime().allocBytes - before.allocBytes) / 1024 / float64(max(len(b.stream), 1))
	m["store.submit_us"] = metric{orZero(submit, 0.5), "us"}
	m["store.submit_alloc_kb"] = metric{allocKB, "KiB"}

	// Recovery of copies of the final directory: the WAL layer alone,
	// then the whole service.
	var walOpen, replay []float64
	for rep := range probeReps {
		dir := filepath.Join(b.opts.work, fmt.Sprintf("probe-%d", rep))
		if err := copyDir(b.finalDir, dir); err != nil {
			return nil, err
		}
		t, err := openWALs(dir)
		if err != nil {
			return nil, err
		}
		walOpen = append(walOpen, t.Seconds())
		st, err := openStack(dir, b.ids, nil)
		if err != nil {
			return nil, err
		}
		r, ok := scrapeRegistry(st).max("store_replay_seconds")
		if !ok {
			fmt.Fprintln(b.out, "metric family store_replay_seconds absent: reported as 0")
		}
		replay = append(replay, r)
		if err := st.svc.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	m["wal.open_s"] = metric{quantile(walOpen, 0.5), "s"}
	m["store.replay_s"] = metric{quantile(replay, 0.5), "s"}
	return m, nil
}

// openWALs opens, and closes, every shard WAL under dir with wal.Open and
// returns the time the opens took.
func openWALs(dir string) (time.Duration, error) {
	shards, err := filepath.Glob(filepath.Join(dir, "shard-*"))
	if err != nil {
		return 0, err
	}
	if len(shards) == 0 {
		shards = []string{dir} // the single-stream layout
	}
	var total time.Duration
	for _, sd := range shards {
		fsys, err := wal.OSDir(sd)
		if err != nil {
			return 0, err
		}
		start := time.Now()
		w, _, err := wal.Open(fsys, wal.Options{SyncEvery: syncEvery})
		total += time.Since(start)
		if err != nil {
			return 0, fmt.Errorf("wal probe: %w", err)
		}
		if err := w.Close(); err != nil {
			return 0, err
		}
	}
	return total, nil
}

func msSince(t time.Time) float64 { return float64(time.Since(t)) / 1e6 }
