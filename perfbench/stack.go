package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/agg"
	"repro/internal/obs"
	"repro/internal/resilience"
	"repro/internal/server"
	"repro/internal/wal"
)

// The deployed configuration: cmd/ratingserver's flag defaults, composed the
// way its buildService and buildHandler compose them. Changing a value here
// changes what the benchmark measures.
const (
	horizonDays   = 150  // -horizon
	syncEvery     = 1    // -sync-every: fsync every accepted rating
	snapshotEvery = 4096 // -snapshot-every, per shard
	breakerMS     = 250  // -fsync-breaker-ms
	maxInflight   = 256  // -max-inflight
	queueDepth    = 512  // -queue-depth
)

// stack is one instance of the rating service: the durable P-scheme service
// on a real directory plus the admission-controlled HTTP handler in front of
// it.
type stack struct {
	svc     *server.Service
	reg     *obs.Registry
	handler http.Handler
	dir     string
	traced  bool // the WAL filesystem and handlers record spans
}

// openStack opens (or recovers) the service in dir exactly as ratingserver
// -scheme P -wal-dir dir does with default flags: shards = GOMAXPROCS,
// info-level logging (here to io.Discard), metrics on, limiter 256/512 and
// no rate limit. A non-nil tracer wraps the WAL filesystem and the two
// handler layers with span recorders; the composition is otherwise
// unchanged.
func openStack(dir string, products []string, tr *tracer) (*stack, error) {
	scheme := agg.NewPScheme()
	opts := server.WALOptions{
		Dir:            dir,
		Shards:         runtime.GOMAXPROCS(0),
		SyncEvery:      syncEvery,
		SnapshotEvery:  snapshotEvery,
		StallThreshold: breakerMS * time.Millisecond,
	}
	if tr != nil {
		fsys, err := wal.OSDir(dir)
		if err != nil {
			return nil, err
		}
		opts.FS = tr.fs(fsys)
	}
	svc, rep, err := server.OpenWAL(scheme, horizonDays, products, opts)
	if err != nil {
		return nil, fmt.Errorf("open service in %s: %w", dir, err)
	}
	logger := obs.NewLogger(io.Discard, obs.LevelInfo)
	logger.Info("recovered ratings from WAL",
		"ratings", rep.SnapshotRatings+rep.ReplayedRatings, "dir", dir, "shards", opts.Shards,
		"snapshot", rep.SnapshotRatings, "replayed", rep.ReplayedRatings,
		"duplicate", rep.DuplicateRecords, "skipped", rep.SkippedRecords,
		"tornBytes", rep.TruncatedBytes)
	svc.SetLogger(logger.Std(obs.LevelInfo))
	reg := obs.NewRegistry()
	svc.EnableMetrics(reg)

	inner := svc.Handler()
	if tr != nil {
		inner = tr.wrap(spanHandler, inner)
	}
	lim := resilience.NewLimiter(maxInflight, queueDepth)
	h := resilience.Admission(inner, resilience.AdmissionOptions{
		ExemptPaths: map[string]bool{"/healthz": true, "/readyz": true, "/metrics": true},
		Limiter:     lim,
		Metrics:     resilience.NewAdmissionMetrics(reg, lim, nil),
	})
	if tr != nil {
		h = tr.wrap(spanAdmission, h)
	}
	return &stack{svc: svc, reg: reg, handler: h, dir: dir, traced: tr != nil}, nil
}

// spanHeader carries a traced request's span ID from the client to the
// server-side span recorders. Untraced requests do not send it.
const spanHeader = "X-Bench-Span"

// front is the HTTP boundary: one loopback listener served by an
// http.Server configured like ratingserver's, whose handler is the current
// stack's, and one client limited to maxSenders connections.
type front struct {
	cur    atomic.Pointer[stack]
	srv    *http.Server
	base   string
	client *http.Client
	served chan error
}

// maxSenders bounds the benchmark's concurrent requests and connections:
// one per core of the 2-core machine the benchmark is specified for, so the
// load generator never outnumbers the server's processors.
const maxSenders = 2

// requestTimeout fails a request that takes longer; it counts as failed.
const requestTimeout = 10 * time.Second

func startFront() (*front, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	f := &front{
		base:   "http://" + ln.Addr().String(),
		served: make(chan error, 1),
		client: &http.Client{
			Timeout: requestTimeout,
			Transport: &http.Transport{
				MaxConnsPerHost:     maxSenders,
				MaxIdleConnsPerHost: maxSenders,
				DisableCompression:  true,
			},
		},
	}
	f.srv = &http.Server{
		Handler: http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			st := f.cur.Load()
			if st == nil {
				http.Error(w, "no service", http.StatusServiceUnavailable)
				return
			}
			st.handler.ServeHTTP(w, r)
		}),
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       10 * time.Second,
		WriteTimeout:      10 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
	go func() { f.served <- f.srv.Serve(ln) }()
	return f, nil
}

// close stops the listener and waits until Serve has returned.
func (f *front) close() {
	f.client.CloseIdleConnections()
	_ = f.srv.Close() // Serve's return value below is what matters
	<-f.served
}

// do sends one request and returns the status and the whole body. A
// non-zero span ID marks the request as traced.
func (f *front) do(method, path string, body []byte, span uint64) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequestWithContext(context.Background(), method, f.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if span != 0 {
		req.Header.Set(spanHeader, strconv.FormatUint(span, 10))
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	return resp.StatusCode, out, err
}

// submit posts one rating; it succeeds only on a 201 whose durability is
// "durable". A 201 with durability "pending" is a failed durable ack.
func (f *front) submit(body []byte, span uint64) error {
	status, out, err := f.do(http.MethodPost, "/ratings", body, span)
	if err != nil {
		return err
	}
	if status != http.StatusCreated {
		return fmt.Errorf("submit: status %d: %s", status, bytes.TrimSpace(out))
	}
	var ack struct {
		Durability string `json:"durability"`
	}
	if err := json.Unmarshal(out, &ack); err != nil {
		return fmt.Errorf("submit: decode ack: %w", err)
	}
	if ack.Durability != "durable" {
		return fmt.Errorf("submit acknowledged %q, not durable", ack.Durability)
	}
	return nil
}

// scores reads a product's served per-period scores.
func (f *front) scores(product string, span uint64) ([]float64, error) {
	status, out, err := f.do(http.MethodGet, "/products/"+product+"/scores", nil, span)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("scores %s: status %d: %s", product, status, bytes.TrimSpace(out))
	}
	var s []float64
	if err := json.Unmarshal(out, &s); err != nil {
		return nil, fmt.Errorf("scores %s: %w", product, err)
	}
	return s, nil
}

// report reads a product's defense report.
func (f *front) report(product string) (server.Report, error) {
	var rep server.Report
	status, out, err := f.do(http.MethodGet, "/products/"+product+"/report", nil, 0)
	if err != nil {
		return rep, err
	}
	if status != http.StatusOK {
		return rep, fmt.Errorf("report %s: status %d: %s", product, status, bytes.TrimSpace(out))
	}
	if err := json.Unmarshal(out, &rep); err != nil {
		return rep, fmt.Errorf("report %s: %w", product, err)
	}
	return rep, nil
}

// metrics scrapes /metrics.
func (f *front) metrics() (promSamples, error) {
	status, out, err := f.do(http.MethodGet, "/metrics", nil, 0)
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("metrics: status %d", status)
	}
	return parseProm(out), nil
}

// submitBody encodes one POST /ratings payload.
func submitBody(product, rater string, value, day float64) []byte {
	b, _ := json.Marshal(server.SubmitRequest{Product: product, Rater: rater, Value: value, Day: day}) // a flat struct of strings and finite floats always encodes
	return b
}
