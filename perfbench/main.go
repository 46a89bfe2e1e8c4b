// Command perfbench is the rating service's end-to-end benchmark. It
// composes the service in process exactly as cmd/ratingserver does with its
// default flags (P-scheme, WAL on the local disk, shards = GOMAXPROCS,
// fsync per rating, snapshot every 4096 ratings per shard, fsync breaker at
// 250 ms, admission limiter 256/512, metrics on, info logging discarded),
// drives it over loopback HTTP with at most two senders, checks the served
// results, and prints every metric with its unit. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {"name": {"value": v, "unit": "u"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans at every layer boundary and reports per-layer metrics
// instead. BENCHMARK.json lists the workloads and metrics; README.md says
// why each workload exists and which layer each per-layer metric measures.
//
// Usage, from the root of a checkout:
//
//	bash perfbench/run.sh --workload live-defense --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
	work     string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	var (
		workload = fl.String("workload", "", "workload: "+fmt.Sprint(workloadNames()))
		seed     = fl.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = fl.Int("seconds", 10, "measured seconds per run")
		trace    = fl.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		work     = fl.String("work", ".bench_build/work", "scratch directory for the service's WAL directories")
	)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	if _, ok := workloads[*workload]; !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload in %v, -seconds >= 1, -trace 0|1\n", workloadNames())
		return 2
	}
	opts := options{
		workload: *workload, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1,
		work:  filepath.Join(*work, fmt.Sprintf("%s-%d-%d", *workload, *seed, os.Getpid())),
	}
	res, err := runWorkload(opts, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		if res == nil {
			return 1
		}
	}
	printResult(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

// printResult prints the metrics as a table, then the JSON line.
func printResult(w io.Writer, res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(w, "%-28s %14s %s\n", n, strconv.FormatFloat(m.Value, 'g', 6, 64), m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		// Only a NaN or Inf metric can fail to encode; report it as a
		// failed run rather than printing a partial line.
		fmt.Fprintf(w, `{"correct": false, "attempted": %d, "failed": %d, "metrics": {}}`+"\n", res.Attempted, res.Attempted)
		return
	}
	fmt.Fprintln(w, string(line))
}
