package main

import (
	"io"
	"strings"
	"testing"
	"time"

	"booters/internal/ingest"
)

func TestPercentileSampleCountRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if v, err := percentile(xs, 0.5); err != nil || v != 50 {
		t.Fatalf("p50 of 1..100 = %v, %v; want 50", v, err)
	}
	// A p90 needs ten samples beyond it: 100 samples, not 99.
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples accepted")
	}
	// A p99 needs 1000 samples.
	big := make([]float64, 1000)
	if _, err := percentile(big, 0.99); err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	if _, err := percentile(big[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples accepted")
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Fatal("median of no samples accepted")
	}
	// The input is left unsorted.
	in := []float64{3, 1, 2}
	if median(in) != 2 || in[0] != 3 {
		t.Fatalf("median modified or wrong: %v", in)
	}
}

func TestScheduleDueTimes(t *testing.T) {
	start := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	s := schedule{start: start, rate: 50000}
	if !s.due(0).Equal(start) {
		t.Fatalf("due(0) = %v", s.due(0))
	}
	if got := s.due(50000).Sub(start); got != time.Second {
		t.Fatalf("due(rate) - start = %v, want 1s", got)
	}
	if got := s.due(1).Sub(start); got != 20*time.Microsecond {
		t.Fatalf("due(1) - start = %v, want 20µs", got)
	}
	var l lateness
	l.add(start, start.Add(-time.Millisecond)) // early counts as on time
	l.add(start, start.Add(3*time.Millisecond))
	if l.ms[0] != 0 || l.ms[1] != 3 {
		t.Fatalf("lateness samples %v, want [0 3]", l.ms)
	}
	if l.p99() != 3 {
		t.Fatalf("p99 fallback to max = %v, want 3", l.p99())
	}
}

func TestPacedFeedReleasesOnlyDueRecords(t *testing.T) {
	recs := []ingest.Datagram{{Port: 1}, {Port: 2}, {Port: 3}}
	// Records 0 and 1 are long due; record 2 is due in an hour.
	f := &pacedFeed{
		recs:  recs,
		idx:   []int{0, 1, 3600 * 1000},
		sched: schedule{start: time.Now().Add(-time.Second), rate: 1000},
	}
	for want := 1; want <= 2; want++ {
		d, err := f.Next()
		if err != nil || d.Port != want {
			t.Fatalf("Next = %v, %v; want port %d", d, err, want)
		}
	}
	if _, err := f.Next(); err != io.EOF {
		t.Fatalf("Next before due = %v, want io.EOF", err)
	}
	if f.Offset() != 2 || len(f.late.ms) != 2 {
		t.Fatalf("offset %d, %d lateness samples", f.Offset(), len(f.late.ms))
	}
	if err := f.Seek(4); err == nil {
		t.Fatal("seek past the end accepted")
	}
	if err := f.Seek(1); err != nil || f.Offset() != 1 {
		t.Fatalf("seek(1): %v, offset %d", err, f.Offset())
	}
}

func TestSplitFeedsKeepsScheduleAndWeekEnds(t *testing.T) {
	day := 24 * time.Hour
	recs := []ingest.Datagram{
		{Time: panelStart.Add(time.Hour), Sensor: 0},
		{Time: panelStart.Add(2 * time.Hour), Sensor: 5},
		{Time: panelStart.Add(8 * day), Sensor: 1},
		{Time: panelStart.Add(9 * day), Sensor: 7},
	}
	feeds, last := splitFeeds(recs, 8, 2)
	if len(feeds[0].recs) != 2 || len(feeds[1].recs) != 2 {
		t.Fatalf("split %d/%d, want 2/2", len(feeds[0].recs), len(feeds[1].recs))
	}
	if feeds[1].idx[0] != 1 || feeds[1].idx[1] != 3 {
		t.Fatalf("sensor 2 schedule indices %v, want [1 3]", feeds[1].idx)
	}
	if last[0] != 1 || last[1] != 3 {
		t.Fatalf("week-end indices %v, want [1 3]", last)
	}
}

func TestProcParsing(t *testing.T) {
	// The command field may hold spaces and parentheses.
	stat := "4242 (booter (x) serve) S 1 4242 4242 0 -1 4194560 1 0 0 0 250 50 0 0 20 0 9 0 1 2 3\n"
	cpu, err := parseStatCPU([]byte(stat))
	if err != nil || cpu != 3*time.Second {
		t.Fatalf("parseStatCPU = %v, %v; want 3s", cpu, err)
	}
	if _, err := parseStatCPU([]byte("4242 (x) S 1 2")); err == nil {
		t.Fatal("short stat line accepted")
	}
	status := "Name:\tbooterserve\nVmPeak:\t  999 kB\nVmHWM:\t   17920 kB\nVmRSS:\t 1000 kB\n"
	hwm, err := parseVmHWM([]byte(status))
	if err != nil || hwm != 17920*1024 {
		t.Fatalf("parseVmHWM = %v, %v", hwm, err)
	}
	if _, err := parseVmHWM([]byte("VmRSS:\t1 kB\n")); err == nil {
		t.Fatal("status without VmHWM accepted")
	}
	if _, err := parseVmHWM([]byte("VmHWM:\t12 MB\n")); err == nil {
		t.Fatal("VmHWM in unexpected unit accepted")
	}
}

func TestPanelMismatchDetection(t *testing.T) {
	plan := []float64{10, 20, 30, 40}
	if err := panelMismatch(plan, []float64{10, 20, 30, 40}, 4); err != nil {
		t.Fatalf("equal panels: %v", err)
	}
	// Only the checked weeks count: the open tail may still differ.
	if err := panelMismatch(plan, []float64{10, 20, 0, 0}, 2); err != nil {
		t.Fatalf("sealed prefix: %v", err)
	}
	err := panelMismatch(plan, []float64{10, 21, 30, 40}, 4)
	if err == nil || !strings.Contains(err.Error(), "week 1") {
		t.Fatalf("mismatch at week 1 reported as %v", err)
	}
	if err := panelMismatch(plan, []float64{10, 20}, 4); err == nil {
		t.Fatal("short served panel accepted")
	}
	if err := panelMismatch(plan, plan, 5); err == nil {
		t.Fatal("check beyond the plan accepted")
	}
}

func TestMetricSum(t *testing.T) {
	text := `# TYPE booters_ingest_shed_packets_total counter
booters_ingest_shed_packets_total{sensor="1"} 3
booters_ingest_shed_packets_total{sensor="2"} 4
booters_ingest_shed_packets_total_extra 100
`
	sum, found, err := metricSum(text, "booters_ingest_shed_packets_total")
	if err != nil || !found || sum != 7 {
		t.Fatalf("metricSum = %v, %v, %v; want 7", sum, found, err)
	}
	if _, found, _ := metricSum(text, "booters_absent"); found {
		t.Fatal("absent family found")
	}
}

func TestQueryPlanMix(t *testing.T) {
	a := queryPlan(7, panelStart, 1200)
	b := queryPlan(7, panelStart, 1200)
	if strings.Join(a, ",") != strings.Join(b, ",") {
		t.Fatal("query plan not deterministic for a seed")
	}
	if strings.Join(a, ",") == strings.Join(queryPlan(8, panelStart, 1200), ",") {
		t.Fatal("query plan does not depend on the seed")
	}
	counts := map[string]int{}
	for i := 0; i < len(a); i += 8 {
		var fits []string
		for _, p := range a[i : i+8] {
			kind, _, _ := strings.Cut(p, "?")
			counts[kind]++
			if kind == "/v1/model" {
				fits = append(fits, p)
			}
		}
		if len(fits) != 2 || fits[0] != fits[1] {
			t.Fatalf("block %d: fits %v, want one window twice", i/8, fits)
		}
	}
	for _, kind := range []string{"/v1/panel", "/v1/series", "/v1/top", "/v1/model"} {
		if counts[kind] != 300 {
			t.Fatalf("%d %s queries in 1200, want 300: %v", counts[kind], kind, counts)
		}
	}
	for _, w := range modelWindows(panelStart) {
		weeks := int(w.to.Sub(w.from) / (7 * 24 * time.Hour))
		if weeks != 60 || w.to.After(panelStart.AddDate(0, 0, 7*76)) {
			t.Fatalf("window %s: %d weeks or past the panel", w.path(), weeks)
		}
	}
}

func TestSelfTime(t *testing.T) {
	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	tr := newTracer()
	parent := tr.record("parent", span{}, 1, at(0), at(10))
	tr.record("child", parent, 1, at(1), at(3))
	tr.record("child", parent, 1, at(2), at(5)) // overlaps the first child
	tr.record("child", parent, 1, at(7), at(8))
	tr.record("child", parent, 1, at(9), at(12)) // runs past the parent
	tr.record("other", span{}, 2, at(1), at(9))  // a root on another lane
	spans, err := tr.spans()
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]selfTime{}
	for _, r := range selfTimes(spans) {
		rows[r.name] = r
	}
	if got := rows["parent"].self; got != 4*time.Millisecond {
		t.Fatalf("parent self time %v, want 4ms", got)
	}
	if got := rows["child"]; got.count != 4 || got.self != got.total {
		t.Fatalf("child row %+v", got)
	}
	if got := rows["other"]; got.count != 1 || got.self != 8*time.Millisecond {
		t.Fatalf("other row %+v", got)
	}
}

func TestLogField(t *testing.T) {
	line := `time=2026-01-01T00:00:00Z level=INFO msg="collection finished" sub=collector packets=123 attacks=7 scans=2`
	if logField(line, "packets") != "123" || logField(line, "scans") != "2" || logField(line, "absent") != "" {
		t.Fatalf("logField misparsed %q", line)
	}
}
