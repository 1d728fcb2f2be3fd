package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"strings"
	"time"

	"booters/internal/ingest"
)

// The query mix is an assumption, not a measured dashboard trace: the
// four read endpoints in equal shares, one fixed query each for panel,
// series and top, and model fits over a fixed window list. Each block
// of eight queries holds two of each, in an order shuffled by the seed;
// the block's two fits ask for the same window, as two viewers of one
// dashboard would, so the fit cache can answer the second while the
// snapshot holds. The windows are walked in a fixed order, so every
// seed fits the same windows at the same points of a run.
const (
	seriesQuery = "/v1/series?proto=DNS"
	topQuery    = "/v1/top?by=country&k=10"
)

// window is one [from, to) model-fit window.
type window struct{ from, to time.Time }

// path is the window's /v1/model query.
func (w window) path() string {
	return fmt.Sprintf("/v1/model?from=%s&to=%s", w.from.Format("2006-01-02"), w.to.Format("2006-01-02"))
}

// The model-fit windows: modelWindowCount windows of modelWeeks weeks
// each — every calendar month and an Easter, which the seasonal model
// needs — starting in each of the panel's first modelWindowCount weeks.
// Every window holds the same three paper interventions (Webstresser,
// Mirai, Xmas2018), so every fit runs the same duration search and
// costs about the same. Panels must span at least 76 weeks.
const modelWindowCount, modelWeeks = 17, 60

// modelWindows returns the fixed model-fit windows in the order the
// query mix visits them.
func modelWindows(start time.Time) []window {
	out := make([]window, 0, modelWindowCount)
	for from := 0; from < modelWindowCount; from++ {
		out = append(out, window{start.AddDate(0, 0, 7*from), start.AddDate(0, 0, 7*(from+modelWeeks))})
	}
	return out
}

// sealMargin is how long after the due time of queryStartRecord the
// query mix starts: three times the live workloads' seal p90, so every
// model window is sealed by the first fit.
const sealMargin = 500 * time.Millisecond

// queryStartRecord returns the index of the capture's first record past
// the last model window; the query mix starts sealMargin after its due
// time. Every fit then runs on a wholly sealed window. On the current
// code a fit over a window that reaches past the seal frontier takes up
// to a second instead of ~25 ms, and when the mix started with the
// writes, the backlog of such fits made the collector's peak RSS swing
// by a fifth to a third from run to run.
func queryStartRecord(recs []ingest.Datagram, start time.Time) int {
	end := start.AddDate(0, 0, 7*(modelWindowCount-1+modelWeeks))
	for i, d := range recs {
		if !d.Time.Before(end) {
			return i
		}
	}
	return len(recs)
}

// queryPlan returns n query paths: the fixed mix, shuffled by the seed
// within each block of eight.
func queryPlan(seed int64, start time.Time, n int) []string {
	rng := rand.New(rand.NewSource(seed))
	models := modelWindows(start)
	plan := make([]string, 0, n+8)
	for block := 0; len(plan) < n; block++ {
		fit := models[block%len(models)].path()
		q := []string{"/v1/panel", "/v1/panel", seriesQuery, seriesQuery, topQuery, topQuery, fit, fit}
		rng.Shuffle(len(q), func(i, j int) { q[i], q[j] = q[j], q[i] })
		plan = append(plan, q...)
	}
	return plan[:n]
}

// queryRun is the outcome of one open-loop query phase.
type queryRun struct {
	plan  []string
	latMS []float64 // completion minus release time, one per query
	ok    []bool
	errs  []string
	late  lateness // dispatcher lateness against the schedule
}

// runQueries issues plan open loop on one connection: a dispatcher
// releases query i at its due time whatever the state of earlier
// queries, and each query is timed from its release, so a stalled
// server charges the wait to every query queued behind it. The
// dispatcher's own timer lateness against the due times (about a
// millisecond of sleep overshoot) is kept out of the latency and
// reported, and gated, as generator lateness. One connection, not two,
// because two fits running at once made the collector's peak RSS
// bimodal: 21.3 or 24.5 MB on the same seed.
func runQueries(addr string, plan []string, sched schedule) *queryRun {
	type job struct {
		i        int
		released time.Time
	}
	run := &queryRun{plan: plan, latMS: make([]float64, len(plan)), ok: make([]bool, len(plan))}
	jobs := make(chan job, len(plan)) // sized to the number of sends: the dispatcher never blocks
	done := make(chan struct{})
	client := &http.Client{Timeout: 30 * time.Second, Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
	}}
	go func() {
		defer close(done)
		defer client.CloseIdleConnections()
		for j := range jobs {
			code, body, err := httpGet(client, addr, plan[j.i])
			run.latMS[j.i] = ms(time.Since(j.released))
			ok := err == nil && code >= 200 && code < 300 && json.Valid(body)
			run.ok[j.i] = ok
			if !ok {
				run.errs = append(run.errs, fmt.Sprintf("%s: status %d err %v body %.120s", plan[j.i], code, err, body))
			}
		}
	}()
	for i := range plan {
		due := sched.due(i)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		now := time.Now()
		jobs <- job{i, now}
		run.late.add(due, now)
	}
	close(jobs)
	<-done
	return run
}

// book records every query as one checked operation.
func (r *queryRun) book(chk *checks) {
	for _, ok := range r.ok {
		chk.check(ok, "query failed")
	}
	for _, e := range r.errs[:min(len(r.errs), 5)] {
		chk.errs = append(chk.errs, "query "+e)
	}
}

// failedQueryMS is the latency a failed query enters the sample with: the
// client timeout, over any limit the benchmark could set.
const failedQueryMS = 30000

// latencies returns, in ms, the p50 and p99 of all queries and the
// median model query. A failed query counts as over the limit.
func (r *queryRun) latencies() (p50, p99, modelP50 float64, err error) {
	all := make([]float64, 0, len(r.latMS))
	var models []float64
	for i, v := range r.latMS {
		if !r.ok[i] {
			v = failedQueryMS
		}
		all = append(all, v)
		if strings.HasPrefix(r.plan[i], "/v1/model") {
			models = append(models, v)
		}
	}
	if p50, err = percentile(all, 0.5); err != nil {
		return 0, 0, 0, err
	}
	if p99, err = percentile(all, 0.99); err != nil {
		return 0, 0, 0, err
	}
	modelP50, err = percentile(models, 0.5)
	return p50, p99, modelP50, err
}
