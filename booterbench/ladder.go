package main

// The traced run: the workload's capture replayed in-process through one
// probe per layer, bottom up, each probe wrapped in benchmark-side spans.
// Every rung calls the layer's own API — spool.Reader, protocols,
// honeypot.MergeAggregator, ingest.Ingestor, wire.Ship/Listen,
// serve.Engine/Server, its — so a layer's cost is its rung, and the
// full-ingest rung minus the rungs below it is what the pipeline adds.
// End-to-end figures never come from here.

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync"
	"time"

	"booters"
	"booters/internal/honeypot"
	"booters/internal/ingest"
	"booters/internal/its"
	"booters/internal/protocols"
	"booters/internal/scenario"
	"booters/internal/serve"
	"booters/internal/spool"
	"booters/internal/timeseries"
	"booters/internal/wire"
)

const (
	// chunk is how many records one per-record span covers: per-record
	// spans would cost more than the calls they time.
	chunk = 4096
	// callSampleEvery times every Nth IngestDatagram call on its own,
	// for the call-time p99.
	callSampleEvery = 8
	// mergeAdvanceEvery is how often the aggregator probes advance the
	// watermark, matching the pipeline's default broadcast cadence.
	mergeAdvanceEvery = 8192
	// pacedWire is how long the paced wire rung runs the query mix,
	// which starts sealMargin into its open-loop shipping.
	pacedWire = 3 * time.Second
	// pacedQueryRate is the paced wire rung's query rate: a quarter of
	// its 300 queries are model fits.
	pacedQueryRate = 100
	// minModelQueries is the fewest model queries the fit-cache hit
	// ratio is reported over.
	minModelQueries = 50
	// ingestRounds is how many rounds of ingest passes the ingest rung
	// runs: one untraced and one traced pass at one shard and one
	// untraced pass at two shards per round. The tracing overhead and the
	// shard speed-up are medians over the rounds.
	ingestRounds = 4
)

// Trace lanes: one row per goroutine family in the trace viewer.
const (
	laneMain = iota + 1
	lanePublish
	laneSensor
	laneQuery
)

// ladder runs the traced per-layer probes for a workload's input and
// returns the per-layer metrics.
func (b *bench) ladder(w *workload, in *input) (map[string]metric, error) {
	// The capture and its decoded packets are a few hundred MB for the
	// replay input; a soft limit keeps the heap near that instead of
	// letting it double before each collection.
	debug.SetMemoryLimit(512 << 20)
	tr := newTracer()
	out := map[string]metric{}
	m := in.manifest
	root := tr.begin("workload."+w.name, span{}, laneMain)

	recs, err := spoolRung(tr, root, in, out)
	if err != nil {
		return nil, err
	}
	packets := protocolsRung(b, tr, root, recs, out)
	honeypotRung(b, tr, root, packets, m.Sensors, out)
	srv, err := ingestRung(b, tr, root, recs, m, out)
	if err != nil {
		return nil, err
	}
	if err := serveRung(b, tr, root, srv, out); err != nil {
		return nil, err
	}
	if err := wireRung(b, tr, root, recs, m, out); err != nil {
		return nil, err
	}
	tr.end(root)

	dir := filepath.Join(b.build, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, b.seed))
	spans, err := tr.spans()
	if err != nil {
		return nil, err
	}
	if err := writeTrace(base+".json", spans); err != nil {
		return nil, err
	}
	b.diag["trace_spans"] = len(spans)
	var table strings.Builder
	writeSelfTimes(&table, selfTimes(spans))
	fmt.Fprintf(&table, "tracing overhead: %+.2f%% (traced vs untraced in-process ingest)\n", out["trace.overhead_pct"].Value)
	if err := os.WriteFile(base+".selftime.txt", []byte(table.String()), 0o644); err != nil {
		return nil, err
	}
	fmt.Fprint(os.Stderr, table.String())
	fmt.Fprintf(os.Stderr, "booterbench: spans written to %s.json (load in ui.perfetto.dev)\n", base)
	b.diag["trace_file"] = base + ".json"
	return out, nil
}

// spoolRung times spool.Reader.Next over the capture, then loads it into
// memory for the rungs above.
func spoolRung(tr *tracer, root span, in *input, out map[string]metric) ([]ingest.Datagram, error) {
	rung := tr.begin("spool", root, laneMain)
	defer tr.end(rung)
	r, err := spool.Open(in.dir)
	if err != nil {
		return nil, err
	}
	n := 0
	sp := tr.begin("spool.Reader.Next", rung, laneMain)
	start := time.Now()
	for {
		if _, err = r.Next(); err != nil {
			break
		}
		if n++; n%chunk == 0 {
			tr.end(sp)
			sp = tr.begin("spool.Reader.Next", rung, laneMain)
		}
	}
	elapsed := time.Since(start)
	tr.end(sp)
	r.Close()
	if err != io.EOF {
		return nil, err
	}
	var stored int64
	segs, err := filepath.Glob(filepath.Join(in.dir, "*.seg"))
	if err != nil {
		return nil, err
	}
	for _, s := range segs {
		fi, err := os.Stat(s)
		if err != nil {
			return nil, err
		}
		stored += fi.Size()
	}
	out["spool.read_ns_per_rec"] = metric{float64(elapsed.Nanoseconds()) / float64(n), "ns"}
	out["spool.bytes_per_rec"] = metric{float64(stored) / float64(n), "B"}

	load := tr.begin("spool.load", rung, laneMain)
	defer tr.end(load)
	return loadCapture(in.dir)
}

// protocolsRung times the per-datagram decode the pipeline runs first —
// protocols.ByPort and ValidateRequest — and returns the decoded packets.
func protocolsRung(b *bench, tr *tracer, root span, recs []ingest.Datagram, out map[string]metric) []honeypot.Packet {
	rung := tr.begin("protocols", root, laneMain)
	defer tr.end(rung)
	bad := 0
	sp := tr.begin("protocols.validate", rung, laneMain)
	start := time.Now()
	for i, d := range recs {
		if i > 0 && i%chunk == 0 {
			tr.end(sp)
			sp = tr.begin("protocols.validate", rung, laneMain)
		}
		p, ok := protocols.ByPort(d.Port)
		if !ok || p.ValidateRequest(d.Payload) != nil {
			bad++
		}
	}
	elapsed := time.Since(start)
	tr.end(sp)
	b.chk.check(bad == 0, "protocols: %d datagrams failed validation", bad)
	out["protocols.validate_ns_per_pkt"] = metric{float64(elapsed.Nanoseconds()) / float64(len(recs)), "ns"}

	packets := make([]honeypot.Packet, 0, len(recs))
	for _, d := range recs {
		p, _ := protocols.ByPort(d.Port)
		packets = append(packets, honeypot.Packet{Time: d.Time, Victim: d.Victim, Proto: p, Sensor: d.Sensor, Size: len(d.Payload)})
	}
	return packets
}

// honeypotRung times honeypot.MergeAggregator.Offer on the capture in
// stream order and in the two-sensor batch interleave the collector sees
// (each sensor's share in batches of liveBatch records, alternating).
func honeypotRung(b *bench, tr *tracer, root span, packets []honeypot.Packet, sensors int, out map[string]metric) {
	rung := tr.begin("honeypot", root, laneMain)
	defer tr.end(rung)
	ns, _ := mergeOffer(b, tr, rung, "honeypot.merge_offer.sorted", packets, nil, sensors)
	out["honeypot.merge_offer_ns_per_pkt.sorted"] = metric{ns, "ns"}

	var a, c []int32
	for i, p := range packets {
		if p.Sensor < sensors/2 {
			a = append(a, int32(i))
		} else {
			c = append(c, int32(i))
		}
	}
	const liveBatch = 37 // records per wire batch the live workload measures at liveRate
	order := make([]int32, 0, len(packets))
	for i := 0; i < len(a) || i < len(c); i += liveBatch {
		order = append(order, a[min(i, len(a)):min(i+liveBatch, len(a))]...)
		order = append(order, c[min(i, len(c)):min(i+liveBatch, len(c))]...)
	}
	ns, peak := mergeOffer(b, tr, rung, "honeypot.merge_offer.interleaved", packets, order, sensors)
	out["honeypot.merge_offer_ns_per_pkt.interleaved"] = metric{ns, "ns"}
	out["honeypot.open_flows_peak"] = metric{float64(peak), "count"}
}

// mergeOffer feeds packets to a fresh MergeAggregator in the given order
// (nil: as stored), advancing the watermark to the older of the two
// sensors' frontiers every mergeAdvanceEvery packets and recycling
// completed flows, and returns the cost per packet and the peak
// open-flow count.
func mergeOffer(b *bench, tr *tracer, parent span, name string, packets []honeypot.Packet, order []int32, sensors int) (float64, int) {
	agg := honeypot.NewMergeAggregator()
	var front [2]time.Time
	peak, stale := 0, 0
	sp := tr.begin(name, parent, laneMain)
	start := time.Now()
	for i := range packets {
		p := packets[i]
		if order != nil {
			p = packets[order[i]]
		}
		if i > 0 && i%chunk == 0 {
			tr.end(sp)
			sp = tr.begin(name, parent, laneMain)
		}
		if agg.Offer(p) != nil {
			stale++
		}
		s := 0
		if p.Sensor >= sensors/2 {
			s = 1
		}
		if p.Time.After(front[s]) {
			front[s] = p.Time
		}
		if (i+1)%mergeAdvanceEvery == 0 {
			low := front[0]
			if front[1].Before(low) {
				low = front[1]
			}
			agg.Advance(low)
			peak = max(peak, agg.OpenFlows())
			for _, f := range agg.Completed() {
				agg.Recycle(f)
			}
		}
	}
	agg.Flush()
	elapsed := time.Since(start)
	tr.end(sp)
	b.chk.check(stale == 0, "%s: %d stale packets", name, stale)
	return float64(elapsed.Nanoseconds()) / float64(len(packets)), peak
}

// ingestPass is one in-process replay of the capture through a rolling
// ingest pipeline publishing into a serve.Server.
type ingestPass struct {
	loop, close time.Duration // IngestDatagram loop and Close
	calls       []float64     // sampled per-call times, µs
	mallocs     uint64
	allocBytes  uint64
	res         *ingest.Result
	srv         *serve.Server
	snapshots   int
	publishUS   []float64
	sealLagMS   []float64
}

// runIngest replays recs through a fresh pipeline with the given shard
// count. With a tracer it records chunk spans, samples call times and
// times week seals; without one it runs the same loop bare, which is the
// untraced baseline of the tracing-overhead figure.
func runIngest(recs []ingest.Datagram, m *scenario.Manifest, shards int, tr *tracer, parent span) (*ingestPass, error) {
	in, err := ingest.New(ingest.Config{
		Shards: shards, Start: m.Start, End: m.Start.AddDate(0, 0, 7*m.Weeks-1), Rolling: true,
	})
	if err != nil {
		return nil, err
	}
	pass := &ingestPass{srv: serve.New(serve.Config{Interventions: booters.Table1Interventions()})}
	// cross[w] is the first record at or past week w's seal horizon (its
	// end plus one flow gap); the call that feeds it starts the seal lag.
	cross := make([]int, m.Weeks)
	crossAt := make([]time.Time, m.Weeks)
	next := 0
	for i, d := range recs {
		for next < m.Weeks && !d.Time.Before(m.Start.AddDate(0, 0, 7*(next+1)).Add(honeypot.FlowGap)) {
			cross[next] = i
			next++
		}
	}
	for ; next < m.Weeks; next++ {
		cross[next] = len(recs)
	}
	var mu sync.Mutex
	visible := make([]time.Time, m.Weeks)
	seen := -1
	err = in.OnSnapshot(func(s *ingest.Snapshot) {
		t0 := time.Now()
		pass.srv.Publish(s)
		t1 := time.Now()
		tr.record("serve.Publish", parent, lanePublish, t0, t1)
		mu.Lock()
		defer mu.Unlock()
		pass.snapshots++
		pass.publishUS = append(pass.publishUS, float64(t1.Sub(t0).Nanoseconds())/1e3)
		if s.Sealed && !s.Final {
			for idx := int(s.Through.Start.Sub(m.Start) / (7 * 24 * time.Hour)); seen < idx && seen+1 < m.Weeks; seen++ {
				visible[seen+1] = t1
			}
		}
	})
	if err != nil {
		return nil, err
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	next = 0
	sp := tr.begin("ingest.IngestDatagram", parent, laneMain)
	start := time.Now()
	for i, d := range recs {
		if tr == nil {
			in.IngestDatagram(d)
			continue
		}
		if i > 0 && i%chunk == 0 {
			tr.end(sp)
			sp = tr.begin("ingest.IngestDatagram", parent, laneMain)
		}
		for next < m.Weeks && cross[next] == i {
			crossAt[next] = time.Now()
			next++
		}
		if i%callSampleEvery == 0 {
			c0 := time.Now()
			in.IngestDatagram(d)
			pass.calls = append(pass.calls, float64(time.Since(c0).Nanoseconds())/1e3)
		} else {
			in.IngestDatagram(d)
		}
	}
	pass.loop = time.Since(start)
	tr.end(sp)
	cl := tr.begin("ingest.Close", parent, laneMain)
	c0 := time.Now()
	pass.res, err = in.Close()
	pass.close = time.Since(c0)
	tr.end(cl)
	runtime.ReadMemStats(&ms1)
	if err != nil {
		return nil, err
	}
	pass.mallocs = ms1.Mallocs - ms0.Mallocs
	pass.allocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	mu.Lock()
	defer mu.Unlock()
	for w := range visible {
		if !visible[w].IsZero() && !crossAt[w].IsZero() {
			pass.sealLagMS = append(pass.sealLagMS, ms(visible[w].Sub(crossAt[w])))
		}
	}
	return pass, nil
}

// ingestRung replays the capture through the full rolling pipeline:
// each round runs an untraced and a traced pass at one shard (the
// call-cost and tracing-overhead figures) and an untraced pass at two
// shards, so the shard speed-up compares medians of equally many
// interleaved passes. It returns the traced pass's server, holding the
// final snapshot, for the serve rung.
func ingestRung(b *bench, tr *tracer, root span, recs []ingest.Datagram, m *scenario.Manifest, out map[string]metric) (*serve.Server, error) {
	rung := tr.begin("ingest", root, laneMain)
	defer tr.end(rung)
	// A first bare pass warms the heap and caches; it is not counted.
	if _, err := runIngest(recs, m, 1, nil, span{}); err != nil {
		return nil, err
	}
	var bare, traced, two []*ingestPass
	for i := 0; i < ingestRounds; i++ {
		p, err := runIngest(recs, m, 1, nil, span{})
		if err != nil {
			return nil, err
		}
		bare = append(bare, p)
		sp := tr.begin("ingest.pass.traced", rung, laneMain)
		p, err = runIngest(recs, m, 1, tr, sp)
		tr.end(sp)
		if err != nil {
			return nil, err
		}
		traced = append(traced, p)
		if p, err = runIngest(recs, m, 2, nil, span{}); err != nil {
			return nil, err
		}
		two = append(two, p)
	}
	n := float64(len(recs))
	wall := func(ps []*ingestPass) float64 {
		var xs []float64
		for _, p := range ps {
			xs = append(xs, float64((p.loop + p.close).Nanoseconds()))
		}
		return median(xs)
	}
	best := slices.MinFunc(bare, func(x, y *ingestPass) int { return int(x.loop - y.loop) })
	t := traced[len(traced)-1]
	for _, p := range slices.Concat(bare, traced, two) {
		err := panelMismatch(m.PlannedWeekly, p.res.Global.Values, m.Weeks)
		b.chk.check(err == nil, "in-process ingest panel: %v", err)
		b.chk.check(p.res.Stats.Late == 0 && p.res.Stats.Shed == 0, "in-process ingest: late %d shed %d", p.res.Stats.Late, p.res.Stats.Shed)
	}
	out["ingest.call_ns_per_pkt"] = metric{float64(best.loop.Nanoseconds()) / n, "ns"}
	p99, err := percentile(t.calls, 0.99)
	if err != nil {
		return nil, err
	}
	out["ingest.call_p99_us"] = metric{p99, "us"}
	out["ingest.shard_speedup"] = metric{wall(bare) / wall(two), "x"}
	out["ingest.close_ms"] = metric{ms(best.close), "ms"}
	out["ingest.allocs_per_pkt"] = metric{float64(best.mallocs) / n, "count"}
	out["ingest.alloc_bytes_per_pkt"] = metric{float64(best.allocBytes) / n, "B"}
	lag50, err := percentile(t.sealLagMS, 0.5)
	if err != nil {
		return nil, fmt.Errorf("seal lag: %w", err)
	}
	lag90, err := percentile(t.sealLagMS, 0.9)
	if err != nil {
		return nil, fmt.Errorf("seal lag: %w", err)
	}
	out["ingest.seal_lag_p50_ms"] = metric{lag50, "ms"}
	out["ingest.seal_lag_p90_ms"] = metric{lag90, "ms"}
	out["ingest.snapshots"] = metric{float64(t.snapshots), "count"}
	out["ingest.late"] = metric{float64(t.res.Stats.Late), "count"}
	out["ingest.shed"] = metric{float64(t.res.Stats.Shed), "count"}
	out["serve.publish_us"] = metric{median(t.publishUS), "us"}
	// Each traced pass is compared with the bare pass just before it, and
	// the median of those ratios is the overhead, so drift across the
	// rung cancels out.
	var ratios []float64
	for i := range traced {
		ratios = append(ratios, float64((traced[i].loop+traced[i].close).Nanoseconds())/float64((bare[i].loop+bare[i].close).Nanoseconds()))
	}
	out["trace.overhead_pct"] = metric{(median(ratios) - 1) * 100, "%"}
	return t.srv, nil
}

// serveRung times the query engine directly, then the same queries over
// HTTP (render cost = HTTP minus engine), then model fits cold and
// cached, then the its fit beneath them, all on the final snapshot.
func serveRung(b *bench, tr *tracer, root span, srv *serve.Server, out map[string]metric) error {
	rung := tr.begin("serve", root, laneMain)
	defer tr.end(rung)
	eng := srv.Engine()
	snap := eng.Snapshot()
	engine := map[string]func() error{
		"status": func() error { eng.Status(); return nil },
		"series": func() error { _, err := eng.Series("", "DNS"); return err },
		"top":    func() error { _, err := eng.TopCountries(10); return err },
	}
	for _, name := range []string{"status", "series", "top"} {
		sp := tr.begin("serve.engine."+name, rung, laneMain)
		us, err := timeCalls(200, 10, engine[name])
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("engine %s: %w", name, err)
		}
		out["serve.engine_us."+name] = metric{us, "us"}
	}

	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer srv.Close()
	client := newClient()
	defer client.CloseIdleConnections()
	paths := map[string]string{
		"status": "/v1/status", "panel": "/v1/panel",
		"series": "/v1/series?proto=DNS", "top": "/v1/top?by=country&k=10",
	}
	for _, name := range []string{"status", "panel", "series", "top"} {
		sp := tr.begin("serve.http."+name, rung, laneMain)
		us, err := timeCalls(300, 1, func() error {
			code, body, err := httpGet(client, srv.Addr(), paths[name])
			if err == nil && code != 200 {
				err = fmt.Errorf("status %d: %.100s", code, body)
			}
			return err
		})
		tr.end(sp)
		if !b.chk.check(err == nil, "http %s: %v", name, err) {
			return err
		}
		out["serve.http_us."+name] = metric{us, "us"}
	}

	var miss, hit, fit []float64
	ivs := booters.Table1Interventions()
	for _, w := range modelWindows(snap.Start.Start) {
		sp := tr.begin("serve.Engine.Model", rung, laneMain)
		t0 := time.Now()
		_, err := eng.Model(w.from, w.to)
		t1 := time.Now()
		_, err2 := eng.Model(w.from, w.to)
		t2 := time.Now()
		tr.end(sp)
		b.chk.check(err == nil && err2 == nil, "model %s: %v %v", w.path(), err, err2)
		miss = append(miss, ms(t1.Sub(t0)))
		hit = append(hit, float64(t2.Sub(t1).Nanoseconds())/1e3)

		// The its layer alone: the fit Engine.Model runs on a miss.
		sp = tr.begin("its.fit", rung, laneMain)
		t0 = time.Now()
		err = itsFit(snap.Global, ivs, w)
		fit = append(fit, ms(time.Since(t0)))
		tr.end(sp)
		b.chk.check(err == nil, "its fit %s: %v", w.path(), err)
	}
	out["serve.model_miss_ms"] = metric{median(miss), "ms"}
	out["serve.model_hit_us"] = metric{median(hit), "us"}
	out["its.fit_ms"] = metric{median(fit), "ms"}
	return nil
}

// itsFit is the intervention fit serve.Engine.Model runs on a cache
// miss: the window's slice of the weekly panel, the catalogue's
// interventions that start inside it, and the duration search.
func itsFit(global *timeseries.Series, catalogue []its.Intervention, w window) error {
	from, to := timeseries.WeekOf(w.from), timeseries.WeekOf(w.to)
	s := global.Slice(from, to)
	var ivs []its.Intervention
	for _, iv := range catalogue {
		if win := iv.Window(); !win.Before(from) && win.Before(to) {
			ivs = append(ivs, iv)
		}
	}
	var err error
	if len(ivs) == 0 {
		_, err = its.Fit(s, its.DefaultSpec(nil))
	} else {
		_, err = its.SearchAllDurations(s, its.DefaultSpec(ivs), 3)
	}
	return err
}

// timeCalls runs fn reps×batch times and returns the median per-call
// time of the batches in µs.
func timeCalls(reps, batch int, fn func() error) (float64, error) {
	xs := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			if err := fn(); err != nil {
				return 0, err
			}
		}
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/1e3/float64(batch))
	}
	return median(xs), nil
}

// wireRung ships the capture closed loop through wire.Ship into an
// in-process wire collector (the per-record cost of framing, session
// and collector hand-off), then ships it again up to the last model
// window's end closed loop and on from there open loop at liveRate, with
// the query mix running for pacedWire against a serve.Server on the same
// pipeline, as the dashboard workload does.
func wireRung(b *bench, tr *tracer, root span, recs []ingest.Datagram, m *scenario.Manifest, out map[string]metric) error {
	rung := tr.begin("wire", root, laneMain)
	defer tr.end(rung)
	cfg := ingest.Config{Start: m.Start, End: m.Start.AddDate(0, 0, 7*m.Weeks-1), Rolling: true}

	in, err := ingest.New(cfg)
	if err != nil {
		return err
	}
	col, err := wire.Listen("127.0.0.1:0", wire.CollectorConfig{Ingest: in})
	if err != nil {
		return err
	}
	sp := tr.begin("wire.Ship", rung, laneSensor)
	t0 := time.Now()
	rep, err := wire.Ship(wire.SensorConfig{Addr: col.Addr().String(), Sensor: 1, Feed: wire.NewSliceFeed(recs)})
	elapsed := time.Since(t0)
	tr.end(sp)
	col.Close()
	res, cerr := in.Close()
	if err != nil {
		return err
	}
	if cerr != nil {
		return cerr
	}
	perr := panelMismatch(m.PlannedWeekly, res.Global.Values, m.Weeks)
	b.chk.check(rep.Acked == uint64(len(recs)) && perr == nil, "wire closed loop: acked %d of %d, panel %v", rep.Acked, len(recs), perr)
	out["wire.ship_ns_per_rec"] = metric{float64(elapsed.Nanoseconds()) / float64(len(recs)), "ns"}

	// Open loop at the live rate, one sensor, from the query mix's start
	// record on; the records before it are caught up closed loop.
	k := queryStartRecord(recs, m.Start)
	n := min(len(recs), k+int(liveRate*(sealMargin+pacedWire).Seconds()))
	if n-k < liveRate {
		return fmt.Errorf("wire paced: capture holds only %d records past the last model window", n-k)
	}
	in, err = ingest.New(cfg)
	if err != nil {
		return err
	}
	srv := serve.New(serve.Config{Ingest: in, Interventions: booters.Table1Interventions()})
	if err := srv.Start("127.0.0.1:0"); err != nil {
		return err
	}
	defer srv.Close()
	if err := in.OnSnapshot(srv.Publish); err != nil {
		return err
	}
	srv.Publish(in.Snapshot())
	col, err = wire.Listen("127.0.0.1:0", wire.CollectorConfig{Ingest: in})
	if err != nil {
		return err
	}
	feed := &catchUpFeed{pacedFeed: &pacedFeed{recs: recs[:n], idx: make([]int, n), sent: make([]time.Time, n)}, k: k, paced: make(chan struct{})}
	for i := k; i < n; i++ {
		feed.idx[i] = i - k
	}
	feed.late.ms = make([]float64, 0, n-k)

	type ackMark struct {
		at  time.Time
		off uint64
	}
	var acks []ackMark
	stop := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		tick := time.NewTicker(time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			acks = append(acks, ackMark{time.Now(), col.Offsets()[1]})
		}
	}()
	qdone := make(chan *queryRun, 1)
	shipped := make(chan struct{})
	plan := queryPlan(b.seed, m.Start, int(pacedQueryRate*pacedWire.Seconds()))
	go func() {
		select {
		case <-feed.paced:
		case <-shipped: // the session failed before the paced part
			qdone <- &queryRun{}
			return
		}
		sp := tr.begin("serve.query_mix", rung, laneQuery)
		defer tr.end(sp)
		qdone <- runQueries(srv.Addr(), plan, schedule{start: feed.sched.start.Add(sealMargin), rate: pacedQueryRate})
	}()
	sp = tr.begin("wire.Ship.paced", rung, laneSensor)
	rep, err = wire.Ship(wire.SensorConfig{
		Addr: col.Addr().String(), Sensor: 1, Feed: feed,
		Heartbeat: sensorHeartbeat, Linger: sensorLinger,
	})
	tr.end(sp)
	close(shipped)
	queries := <-qdone
	close(stop)
	<-polled
	col.Close()
	if _, cerr := in.Close(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	b.chk.check(rep.Acked == uint64(n), "wire paced: acked %d of %d", rep.Acked, n)
	queries.book(&b.chk)

	// send→ack: every 16th paced record, from its hand-off to the
	// sensor to the first poll of Collector.Offsets covering it.
	var sendAck []float64
	i := k
	for _, a := range acks {
		for ; i < n && uint64(i) < a.off; i++ {
			if i%16 == 0 {
				sendAck = append(sendAck, ms(a.at.Sub(feed.sent[i])))
			}
		}
	}
	// Each block of the mix asks for one window twice, so the ratio is
	// the share of repeats the fit cache answered: both of a pair land on
	// one snapshot only when no publish falls between them.
	hits, misses := srv.Engine().ModelCacheStats()
	if hits+misses < minModelQueries {
		return fmt.Errorf("wire paced: %d model queries, need %d for a hit ratio", hits+misses, minModelQueries)
	}
	ratio := float64(hits) / float64(hits+misses)
	out["wire.recs_per_batch"] = metric{float64(rep.Records) / float64(rep.Batches), "count"}
	out["wire.send_to_ack_p50_ms"] = metric{median(sendAck), "ms"}
	out["serve.model_hit_ratio"] = metric{ratio, "ratio"}
	// In-process the generator shares its process with the pipeline it
	// feeds, so its lateness here is reported, not gated.
	out["gen.late_p99_ms"] = metric{max(feed.late.p99(), queries.late.p99()), "ms"}
	b.diag["wire.paced_records"] = n - k
	b.diag["wire.paced_model_queries"] = hits + misses
	return nil
}

// catchUpFeed hands out its first k records as fast as the sensor asks,
// then starts the paced feed's clock: record k is due 20 ms after the
// last caught-up record went out, and paced is closed at that moment.
type catchUpFeed struct {
	*pacedFeed
	k     int
	paced chan struct{}
}

func (f *catchUpFeed) Next() (ingest.Datagram, error) {
	if f.off < uint64(f.k) {
		d := f.recs[f.off]
		f.off++
		return d, nil
	}
	if f.sched.rate == 0 {
		f.sched = schedule{start: time.Now().Add(20 * time.Millisecond), rate: liveRate}
		close(f.paced)
	}
	return f.pacedFeed.Next()
}
