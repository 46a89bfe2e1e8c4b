package main

import (
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/agg"
	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/store"
)

// checkError is an output check that did not hold: the run reports
// correct=false instead of metrics.
type checkError struct{ msg string }

func (e *checkError) Error() string { return "check failed: " + e.msg }

func checkFailed(format string, args ...any) error {
	return &checkError{msg: fmt.Sprintf(format, args...)}
}

// serveReports reads every product's defense report through the HTTP
// stack.
func (b *bench) serveReports() (map[string]server.Report, error) {
	out := make(map[string]server.Report, len(b.ids))
	for _, id := range b.ids {
		rep, err := b.front.report(id)
		if err != nil {
			return nil, err
		}
		out[id] = rep
	}
	return out, nil
}

// closeAndCheck runs the end-of-workload checks on st: it reads every
// product's served report, closes the service, reopens the store from its
// directory, and checks that the store holds exactly the history plus every
// durable-acked rating and that the served scores and suspicious counts
// equal a fresh engine.Evaluate of the store's view, bit for bit. It
// returns the view.
func (b *bench) closeAndCheck(st *stack, acked []rating) (*dataset.Dataset, error) {
	served, err := b.serveReports()
	if err != nil {
		st.svc.Close()
		return nil, err
	}
	b.front.cur.Store(nil)
	if err := st.svc.Close(); err != nil {
		return nil, fmt.Errorf("close service: %w", err)
	}
	view, err := storeView(st.dir, b.ids)
	if err != nil {
		return nil, err
	}
	if err := checkDataset(view, b.history, acked); err != nil {
		return nil, err
	}
	res, err := evaluate(view)
	if err != nil {
		return nil, err
	}
	if err := checkServed(served, res); err != nil {
		return nil, err
	}
	return view, nil
}

// storeView recovers the store in dir with the deployed options and
// returns its view.
func storeView(dir string, ids []string) (*dataset.Dataset, error) {
	st, _, err := store.Open(horizonDays, ids, store.Options{
		Dir: dir, Shards: runtime.GOMAXPROCS(0), SyncEvery: syncEvery, SnapshotEvery: snapshotEvery,
	})
	if err != nil {
		return nil, fmt.Errorf("reopen store: %w", err)
	}
	view := st.View()
	if err := st.Close(); err != nil {
		return nil, fmt.Errorf("close reopened store: %w", err)
	}
	return view, nil
}

// deployedEngine is the engine behind the deployed P-scheme.
func deployedEngine() *engine.Engine { return agg.NewPScheme().Engine() }

// evaluate runs the deployed P-scheme engine cold over d.
func evaluate(d *dataset.Dataset) (*engine.Result, error) {
	return deployedEngine().Evaluate(context.Background(), d)
}

// checkDataset checks that view holds exactly the ratings of history plus
// every acked rating, each with its exact value and day.
func checkDataset(view, history *dataset.Dataset, acked []rating) error {
	type key struct{ product, rater string }
	want := map[key][2]float64{}
	for _, p := range history.Products {
		for _, r := range p.Ratings {
			want[key{p.ID, r.Rater}] = [2]float64{r.Value, r.Day}
		}
	}
	for _, r := range acked {
		want[key{r.product, r.rater}] = [2]float64{r.value, r.day}
	}
	got := 0
	for _, p := range view.Products {
		for _, r := range p.Ratings {
			w, ok := want[key{p.ID, r.Rater}]
			if !ok {
				return checkFailed("store holds unexpected rating %s/%s", p.ID, r.Rater)
			}
			if w != [2]float64{r.Value, r.Day} {
				return checkFailed("rating %s/%s is (%v, day %v), want (%v, day %v)", p.ID, r.Rater, r.Value, r.Day, w[0], w[1])
			}
			got++
		}
	}
	if got != len(want) {
		return checkFailed("store holds %d ratings, want %d: an acknowledged rating is missing", got, len(want))
	}
	return nil
}

// checkCounts checks that every product serves as many ratings as were
// acknowledged for it.
func checkCounts(served map[string]server.Report, want map[string]int) error {
	if len(served) != len(want) {
		return checkFailed("served %d products, %d expected", len(served), len(want))
	}
	for id, rep := range served {
		if rep.Ratings != want[id] {
			return checkFailed("%s holds %d ratings, %d were acknowledged", id, rep.Ratings, want[id])
		}
	}
	return nil
}

// checkServed checks every product's served scores and suspicious count
// against an evaluation of the same ratings, bit for bit. The HTTP layer
// serves an empty period's NaN as -1.
func checkServed(served map[string]server.Report, want *engine.Result) error {
	if len(served) != len(want.Table) {
		return checkFailed("served %d products, evaluation has %d", len(served), len(want.Table))
	}
	for id, rep := range served {
		exp, ok := want.Table[id]
		if !ok {
			return checkFailed("served unknown product %s", id)
		}
		if len(rep.Scores) != len(exp) {
			return checkFailed("%s: served %d periods, want %d", id, len(rep.Scores), len(exp))
		}
		for i, v := range exp {
			if math.IsNaN(v) {
				v = -1
			}
			if math.Float64bits(rep.Scores[i]) != math.Float64bits(v) {
				return checkFailed("%s period %d: served score %v, evaluation %v", id, i, rep.Scores[i], v)
			}
		}
		marks := 0
		for _, m := range want.Suspicious[id] {
			if m {
				marks++
			}
		}
		if rep.Suspicious != marks {
			return checkFailed("%s: served %d suspicious ratings, evaluation marks %d", id, rep.Suspicious, marks)
		}
	}
	return nil
}

// checkDefense checks that the defended score of the attacked period lies
// closer to the mean of its fair ratings than the plain average (SA) of
// all its ratings does. history holds the fair ratings, view the attacked
// state, served the defended scores.
func checkDefense(history, view *dataset.Dataset, served []float64, product string, period int) (fair, sa, p float64, err error) {
	lo, hi := agg.PeriodInterval(period, history.HorizonDays)
	h, herr := history.Product(product)
	if herr != nil {
		return 0, 0, 0, herr
	}
	fair = h.Ratings.Between(lo, hi).Mean()
	sa = agg.SAScheme{}.Aggregates(view)[product][period]
	if period >= len(served) {
		return fair, sa, 0, checkFailed("%s: no served score for period %d", product, period)
	}
	p = served[period]
	if !(math.Abs(p-fair) < math.Abs(sa-fair)) {
		return fair, sa, p, checkFailed("%s period %d: defended score %.4f is not closer to the fair mean %.4f than SA %.4f", product, period, p, fair, sa)
	}
	return fair, sa, p, nil
}
