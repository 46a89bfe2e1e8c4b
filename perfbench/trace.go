package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/wal"
)

// Span kinds, outermost first. A traced request records one span of each
// request kind under one ID; WAL filesystem spans carry ID 0 because the
// WAL does not know which request it serves.
const (
	spanClient    = "client"    // sender: request written to response read
	spanAdmission = "admission" // around resilience.Admission
	spanHandler   = "handler"   // around the service handler, inside admission
	spanFsync     = "wal.fsync" // Sync of a shard's wal.log
	spanWrite     = "wal.write" // Write to a shard's wal.log
	spanSnapshot  = "wal.snapshot"
)

// WAL file names (internal/wal keeps them unexported).
const (
	walLogName      = "wal.log"
	walSnapshotTmp  = "snapshot.tmp"
	walSnapshotName = "snapshot.json"
)

type span struct {
	ID    uint64 `json:"id"`
	Kind  string `json:"kind"`
	Class string `json:"class,omitempty"`
	Start int64  `json:"start_ns"` // since the tracer was created
	End   int64  `json:"end_ns"`
	Bytes int    `json:"bytes,omitempty"`
}

// tracer is the in-memory span recorder of a traced run. It is written out
// once, when the run ends.
type tracer struct {
	base time.Time
	mu   sync.Mutex
	// spans is appended under mu.
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// add records one span; n is the bytes a write span moved.
func (t *tracer) add(id uint64, kind, class string, start, end time.Time, n int) {
	s := span{ID: id, Kind: kind, Class: class, Start: start.Sub(t.base).Nanoseconds(), End: end.Sub(t.base).Nanoseconds(), Bytes: n}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// wrap records a span of the given kind around next for requests that
// carry a span ID.
func (t *tracer) wrap(kind string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.ParseUint(r.Header.Get(spanHeader), 10, 64)
		if err != nil || id == 0 {
			next.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		next.ServeHTTP(w, r)
		t.add(id, kind, "", start, time.Now(), 0)
	})
}

// writeFile writes every span as one JSON object per line.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fs wraps a WAL filesystem so that log writes, log fsyncs and snapshot
// writes are recorded as spans. It is passed as server.WALOptions.FS in
// traced runs only.
func (t *tracer) fs(inner wal.FS) wal.FS { return &timingFS{FS: inner, t: t} }

type timingFS struct {
	wal.FS
	t *tracer
	// snapStart is when the in-flight snapshot's temporary file was
	// created; the WAL compacts one shard at a time under its own lock.
	mu        sync.Mutex
	snapStart time.Time
}

// Sub keeps shard subdirectories on the real filesystem and timed.
func (f *timingFS) Sub(dir string) (wal.FS, error) {
	sub, err := wal.Sub(f.FS, dir)
	if err != nil {
		return nil, err
	}
	return f.t.fs(sub), nil
}

func (f *timingFS) Create(name string) (wal.File, error) {
	if name == walSnapshotTmp {
		f.mu.Lock()
		f.snapStart = time.Now()
		f.mu.Unlock()
	}
	return f.FS.Create(name)
}

func (f *timingFS) OpenAppend(name string) (wal.File, error) {
	file, err := f.FS.OpenAppend(name)
	if err != nil || name != walLogName {
		return file, err
	}
	return &timingFile{File: file, t: f.t}, nil
}

func (f *timingFS) Rename(oldname, newname string) error {
	err := f.FS.Rename(oldname, newname)
	if err == nil && oldname == walSnapshotTmp && newname == walSnapshotName {
		f.mu.Lock()
		start := f.snapStart
		f.mu.Unlock()
		f.t.add(0, spanSnapshot, "", start, time.Now(), 0)
	}
	return err
}

// timingFile times a wal.log handle.
type timingFile struct {
	wal.File
	t *tracer
}

func (f *timingFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.t.add(0, spanWrite, "", start, time.Now(), n)
	return n, err
}

func (f *timingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.t.add(0, spanFsync, "", start, time.Now(), 0)
	return err
}
