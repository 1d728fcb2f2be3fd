package main

import (
	"errors"
	"fmt"
	"io"
	"slices"
	"strconv"
	"sync"
	"time"

	"booters/internal/ingest"
	"booters/internal/spool"
	"booters/internal/wire"
)

const (
	// statusPoll is how often the live workloads poll /v1/status to time
	// week seals; it bounds the freshness resolution.
	statusPoll = 5 * time.Millisecond
	// setupRuns is how many extra server start-ups every workload times
	// before the measured run, so set-up time is a median.
	setupRuns = 20
	// dashboardQueries is how many queries the dashboard issues per run,
	// the fewest that give its query percentiles enough samples; the
	// rate follows from it and the length of the query phase.
	dashboardQueries = 1000
	// sensorHeartbeat paces the sensors' idle polls of the paced feed:
	// wire.Ship naps a quarter of it (1 ms) when no record is due yet.
	sensorHeartbeat = 4 * time.Millisecond
	// sensorLinger is how long a sensor waits on a dry feed before its
	// goodbye; the live feed is never dry this long until it ends.
	sensorLinger = 200 * time.Millisecond
)

// loadCapture reads a spool into memory, copying each borrowed payload
// into shared 1 MiB arenas rather than one allocation per record.
func loadCapture(dir string) ([]ingest.Datagram, error) {
	r, err := spool.Open(dir)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	var out []ingest.Datagram
	var arena []byte
	for {
		d, err := r.Next()
		if errors.Is(err, io.EOF) {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if cap(arena)-len(arena) < len(d.Payload) {
			arena = make([]byte, 0, max(1<<20, len(d.Payload)))
		}
		n := len(arena)
		arena = append(arena, d.Payload...)
		d.Payload = arena[n:len(arena):len(arena)]
		out = append(out, d)
	}
}

// pacedFeed is one sensor's share of the capture as a wire.Feed that
// releases record k only once its due time has passed: before that,
// Next reports the end of the feed and wire.Ship, in live-tail mode,
// naps and polls again. The due times come from one schedule across
// both sensors, so the pair replays the capture in stream order at the
// workload's fixed rate.
type pacedFeed struct {
	recs  []ingest.Datagram
	sched schedule
	idx   []int // each record's index on the shared schedule
	off   uint64
	late  lateness
	// sent is when Next handed each record to the sensor, the start of
	// the send-to-ack interval the traced run reports.
	sent []time.Time
}

func (f *pacedFeed) Seek(offset uint64) error {
	if offset > uint64(len(f.recs)) {
		return fmt.Errorf("seek to %d beyond feed end %d", offset, len(f.recs))
	}
	f.off = offset
	return nil
}

func (f *pacedFeed) Next() (ingest.Datagram, error) {
	if f.off >= uint64(len(f.recs)) {
		return ingest.Datagram{}, io.EOF
	}
	now := time.Now()
	due := f.sched.due(f.idx[f.off])
	if now.Before(due) {
		return ingest.Datagram{}, io.EOF
	}
	f.late.add(due, now)
	if f.sent != nil {
		f.sent[f.off] = now
	}
	d := f.recs[f.off]
	f.off++
	return d, nil
}

func (f *pacedFeed) Offset() uint64 { return f.off }

// splitFeeds deals the capture to two sensors by honeypot sensor ID,
// keeping each record's place on the one schedule both share. It also
// returns the schedule index of each week's last packet, whose due time
// starts that week's freshness interval.
func splitFeeds(recs []ingest.Datagram, sensors, weeks int) ([2]*pacedFeed, []int) {
	var feeds [2]*pacedFeed
	for i := range feeds {
		feeds[i] = &pacedFeed{}
	}
	last := make([]int, weeks)
	for i, d := range recs {
		f := feeds[0]
		if d.Sensor >= sensors/2 {
			f = feeds[1]
		}
		f.recs = append(f.recs, d)
		f.idx = append(f.idx, i)
		if w := int(d.Time.Sub(panelStart) / (7 * 24 * time.Hour)); w >= 0 && w < weeks {
			last[w] = i
		}
	}
	return feeds, last
}

// sealPoller polls /v1/status and stamps the first moment each week is
// visible as sealed and the moment the collector has applied every
// packet. From the first poll with cpuFrom packets applied, each time
// another cpuWindow packets have been applied it also reads the
// collector's CPU time, so CPU per packet is a median over equal slices
// of the run rather than one figure a burst of box noise can move.
type sealPoller struct {
	visible   []time.Time
	allIn     time.Time
	late      uint64
	cpuPerPkt []float64 // µs per packet, one per window
	err       error
}

// cpuWindow is five seconds of the live rate.
const cpuWindow = 5 * liveRate

func pollSeals(s *server, weeks int, total, cpuFrom uint64, stop <-chan struct{}) *sealPoller {
	p := &sealPoller{visible: make([]time.Time, weeks)}
	seen := -1
	var markPkts uint64
	var markCPU time.Duration
	marked := false
	tick := time.NewTicker(statusPoll)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return p
		case <-tick.C:
		}
		st, err := s.status()
		now := time.Now()
		if err != nil {
			p.err = err
			return p
		}
		idx, err := st.sealedIndex()
		if err != nil {
			p.err = err
			return p
		}
		for ; seen < idx && seen+1 < weeks; seen++ {
			p.visible[seen+1] = now
		}
		if p.allIn.IsZero() && st.LivePackets >= total {
			p.allIn = now
		}
		if st.LivePackets >= cpuFrom && (!marked || st.LivePackets-markPkts >= cpuWindow) {
			cpu, err := procCPU(s.pid())
			if err != nil {
				p.err = err
				return p
			}
			if marked {
				p.cpuPerPkt = append(p.cpuPerPkt, float64((cpu-markCPU).Nanoseconds())/1e3/float64(st.LivePackets-markPkts))
			}
			markCPU, markPkts, marked = cpu, st.LivePackets, true
		}
		p.late = st.LiveLate
	}
}

// collectorArgs starts booterserve as a collector sized to the scenario.
func collectorArgs(weeks int) []string {
	return []string{"-listen", "127.0.0.1:0", "-addr", "127.0.0.1:0", "-weeks", strconv.Itoa(weeks)}
}

// runLive is the operator's collector: the benchmark acts as two sensors
// shipping the capture with wire.Ship, open loop at liveRate, into
// booterserve -listen (two cores, default flags), and polls /v1/status
// only to time seals. With dashboard set, an open-loop query mix runs
// beside the writes.
func runLive(b *bench, in *input, dashboard bool) (map[string]metric, error) {
	m := in.manifest
	recs, err := loadCapture(in.dir)
	if err != nil {
		return nil, err
	}
	if len(recs) != m.Packets {
		return nil, fmt.Errorf("capture holds %d records, manifest %d", len(recs), m.Packets)
	}

	var setups []float64
	for i := 0; i < setupRuns; i++ {
		srv, err := startServer(b, nil, collectorArgs(m.Weeks)...)
		if err != nil {
			return nil, err
		}
		// A fresh collector may not trap signals yet, and has nothing
		// to drain: kill it.
		err = srv.waitReady(true, 30*time.Second)
		if err == nil {
			setups = append(setups, srv.setupSeconds())
		}
		srv.kill()
		if err != nil {
			return nil, err
		}
	}

	srv, err := startServer(b, nil, collectorArgs(m.Weeks)...)
	if err != nil {
		return nil, err
	}
	defer srv.kill()
	if err := srv.waitReady(true, 30*time.Second); err != nil {
		return nil, err
	}
	setups = append(setups, srv.setupSeconds())

	feeds, lastIdx := splitFeeds(recs, m.Sensors, m.Weeks)
	for _, f := range feeds {
		f.late.ms = make([]float64, 0, len(f.recs))
	}
	sched := schedule{start: time.Now().Add(20 * time.Millisecond), rate: liveRate}
	for _, f := range feeds {
		f.sched = sched
	}
	// With the dashboard's queries, CPU per packet is measured over the
	// query phase only, so every slice carries the same mix.
	var qdone chan *queryRun
	var cpuFrom uint64
	if dashboard {
		first := queryStartRecord(recs, panelStart) + int(sealMargin.Seconds()*liveRate)
		qstart := sched.due(first)
		rate := dashboardQueries / sched.due(len(recs)).Sub(qstart).Seconds()
		plan := queryPlan(b.seed, panelStart, dashboardQueries)
		qdone = make(chan *queryRun, 1)
		go func() { qdone <- runQueries(srv.httpAddr, plan, schedule{start: qstart, rate: rate}) }()
		cpuFrom = uint64(first)
	}
	stop := make(chan struct{})
	pollDone := make(chan *sealPoller, 1)
	go func() { pollDone <- pollSeals(srv, m.Weeks, uint64(m.Packets), cpuFrom, stop) }()

	var wg sync.WaitGroup
	reps := make([]wire.ShipReport, 2)
	shipErr := make([]error, 2)
	for i, f := range feeds {
		wg.Add(1)
		go func() {
			defer wg.Done()
			reps[i], shipErr[i] = wire.Ship(wire.SensorConfig{
				Addr: srv.wireAddr, Sensor: uint32(i + 1), Feed: f,
				Heartbeat: sensorHeartbeat, Linger: sensorLinger,
			})
		}()
	}
	wg.Wait()
	var queries *queryRun
	if dashboard {
		queries = <-qdone
	}
	close(stop)
	poll := <-pollDone
	if poll.err != nil {
		return nil, fmt.Errorf("status poll: %w", poll.err)
	}
	for i, f := range feeds {
		b.chk.check(shipErr[i] == nil && reps[i].Acked == uint64(len(f.recs)),
			"sensor %d: acked %d of %d: %v", i+1, reps[i].Acked, len(f.recs), shipErr[i])
	}
	if poll.allIn.IsZero() {
		return nil, fmt.Errorf("collector never reported all %d packets applied", m.Packets)
	}

	var fresh []float64
	sealed := 0
	for w, t := range poll.visible {
		if t.IsZero() {
			continue
		}
		sealed = w + 1
		fresh = append(fresh, ms(t.Sub(sched.due(lastIdx[w]))))
	}
	b.diag["sealed_weeks"] = sealed
	b.chk.check(sealed >= 100, "only %d weeks sealed during the run (need 100)", sealed)
	b.chk.check(poll.late == 0, "live_late %d", poll.late)
	var p panel
	if err := srv.getJSON("/v1/panel", &p); err != nil {
		return nil, err
	}
	perr := panelMismatch(m.PlannedWeekly, p.Series.Values, sealed)
	b.chk.check(perr == nil, "sealed panel: %v", perr)

	genLate := lateness{ms: slices.Concat(feeds[0].late.ms, feeds[1].late.ms)}
	b.diag["gen.sensor_late_p99_ms"] = genLate.p99()
	if dashboard {
		queries.book(&b.chk)
		genLate.ms = append(genLate.ms, queries.late.ms...)
		b.diag["gen.query_late_p99_ms"] = queries.late.p99()
		b.diag["queries"] = len(queries.latMS)
		// Query latencies are reported beside the result, not in it: on
		// the same code they moved by 20-35% between runs on the
		// benchmark's 2-CPU host, beyond any bound worth gating. The
		// queries' cost to the writes still shows in cpu_us_per_pkt and
		// the freshness figures.
		q50, q99, model50, err := queries.latencies()
		if err != nil {
			return nil, fmt.Errorf("queries: %w", err)
		}
		b.diag["query_p50_ms"], b.diag["query_p99_ms"], b.diag["model_p50_ms"] = q50, q99, model50
	}

	code, text, err := srv.get(srv.client, "/v1/metrics")
	if err != nil || code != 200 {
		return nil, fmt.Errorf("metrics scrape: status %d: %v", code, err)
	}
	shed, found, err := metricSum(string(text), "booters_ingest_shed_packets_total")
	b.chk.check(err == nil && (!found || shed == 0), "shed %v packets (%v)", shed, err)
	if dashboard {
		// The fit memo's hits depend on whether a snapshot was published
		// between a block's two model queries; the count shows how much
		// of the fit cost in cpu_us_per_pkt the memo saved.
		b.diag["model_hits"], _, _ = metricSum(string(text), "booters_model_cache_hits_total")
		b.diag["model_misses"], _, _ = metricSum(string(text), "booters_model_cache_misses_total")
	}

	hwm, err := procPeakRSS(srv.pid())
	if err != nil {
		return nil, err
	}
	if err := srv.stop(60 * time.Second); err != nil {
		return nil, err
	}
	// The collector seals its last weeks only when it drains at
	// shutdown; its drain summary must account for the whole capture.
	sum := srv.logLine("collection finished")
	for _, kv := range []struct {
		key  string
		want int
	}{{"packets", m.Packets}, {"attacks", m.Attacks}, {"scans", m.Scans}} {
		got, err := strconv.Atoi(logField(sum, kv.key))
		b.chk.check(err == nil && got == kv.want, "drain summary %s=%q, manifest %d", kv.key, logField(sum, kv.key), kv.want)
	}

	genP99 := genLate.p99()
	b.diag["gen.late_p99_ms"] = genP99
	b.diag["fresh_samples"] = len(fresh)
	b.diag["recs_per_batch"] = float64(reps[0].Records+reps[1].Records) / float64(reps[0].Batches+reps[1].Batches)
	b.chk.check(genP99 <= maxGenLateMS, "generator fell behind: p99 %.1f ms late", genP99)

	b.diag["cpu_windows"] = len(poll.cpuPerPkt)
	if len(poll.cpuPerPkt) == 0 {
		return nil, fmt.Errorf("run too short for one %d-packet CPU window", cpuWindow)
	}
	return e2eMetrics(b, setups, float64(m.Packets)/poll.allIn.Sub(sched.start).Seconds(), fresh,
		median(poll.cpuPerPkt), float64(hwm)/(1<<20))
}
