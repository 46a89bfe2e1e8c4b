package main

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/server"
	"repro/internal/stats"
)

func smallHistory(t *testing.T) *dataset.Dataset {
	t.Helper()
	cfg := dataset.DefaultFairConfig()
	cfg.Products = 3
	d, err := dataset.GenerateFair(stats.NewRNG(7), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// withRatings returns a copy of d with rs added.
func withRatings(d *dataset.Dataset, rs []rating) *dataset.Dataset {
	out := d.Clone()
	for _, r := range rs {
		p, _ := out.Product(r.product)
		p.Ratings = p.Ratings.Insert(dataset.Rating{Day: r.day, Value: r.value, Rater: r.rater})
	}
	return out
}

func wantCheckFailure(t *testing.T, err error, what string) {
	t.Helper()
	var ce *checkError
	if !errors.As(err, &ce) {
		t.Fatalf("%s: got %v, want a check failure", what, err)
	}
}

func TestCheckDataset(t *testing.T) {
	hist := smallHistory(t)
	acked := []rating{newRating("tv1", "a", 4.5, 130.25), newRating("tv2", "b", 1, 140.5)}
	if err := checkDataset(withRatings(hist, acked), hist, acked); err != nil {
		t.Fatalf("exact store: %v", err)
	}
	wantCheckFailure(t, checkDataset(withRatings(hist, acked[:1]), hist, acked), "an acked rating missing")
	moved := []rating{acked[0], newRating("tv2", "b", 1, 141)}
	wantCheckFailure(t, checkDataset(withRatings(hist, moved), hist, acked), "an acked rating on another day")
	extra := append(append([]rating(nil), acked...), newRating("tv3", "c", 3, 125))
	wantCheckFailure(t, checkDataset(withRatings(hist, extra), hist, acked), "a rating nobody acked")
}

// served reports the evaluation res as the HTTP layer serves it.
func served(res *engine.Result) map[string]server.Report {
	out := map[string]server.Report{}
	for id, scores := range res.Table {
		rep := server.Report{Product: id}
		for _, v := range scores {
			if math.IsNaN(v) {
				v = -1
			}
			rep.Scores = append(rep.Scores, v)
		}
		for _, m := range res.Suspicious[id] {
			if m {
				rep.Suspicious++
			}
		}
		out[id] = rep
	}
	return out
}

func TestCheckServed(t *testing.T) {
	res, err := evaluate(smallHistory(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServed(served(res), res); err != nil {
		t.Fatalf("identical results: %v", err)
	}
	off := served(res)
	rep := off["tv2"]
	rep.Scores[1] = math.Nextafter(rep.Scores[1], math.Inf(1))
	wantCheckFailure(t, checkServed(off, res), "a score one ulp off")
	marks := served(res)
	rep = marks["tv3"]
	rep.Suspicious++
	marks["tv3"] = rep
	wantCheckFailure(t, checkServed(marks, res), "a suspicious count off by one")
	missing := served(res)
	delete(missing, "tv1")
	wantCheckFailure(t, checkServed(missing, res), "a product not served")
}

func TestCheckCounts(t *testing.T) {
	res, err := evaluate(smallHistory(t))
	if err != nil {
		t.Fatal(err)
	}
	rep := served(res)
	want := map[string]int{}
	for id := range rep {
		r := rep[id]
		r.Ratings = 10
		rep[id] = r
		want[id] = 10
	}
	if err := checkCounts(rep, want); err != nil {
		t.Fatalf("matching counts: %v", err)
	}
	want["tv2"] = 11
	wantCheckFailure(t, checkCounts(rep, want), "an acknowledged rating lost in recovery")
}

func TestCheckDefense(t *testing.T) {
	hist := smallHistory(t)
	var flood []rating
	for i := range 200 {
		flood = append(flood, newRating("tv1", "sybil"+string(rune('A'+i%26))+string(rune('a'+i/26)), 5, 120+float64(i)*0.1))
	}
	attackedView := withRatings(hist, flood)
	h, _ := hist.Product("tv1")
	fair := h.Ratings.Between(120, 150).Mean()
	good := make([]float64, 5)
	good[4] = fair
	if _, _, _, err := checkDefense(hist, attackedView, good, "tv1", 4); err != nil {
		t.Fatalf("a defended score at the fair mean: %v", err)
	}
	bad := make([]float64, 5)
	bad[4] = 5
	_, _, _, err := checkDefense(hist, attackedView, bad, "tv1", 4)
	wantCheckFailure(t, err, "a defended score no better than SA")
}
