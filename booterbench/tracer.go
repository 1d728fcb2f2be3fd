package main

import (
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"sync/atomic"
	"time"

	"booters/internal/obs/trace"
)

// traceRingSize is the per-lane span capacity of the traced run's
// recorder. The repository's trace rings overwrite their oldest spans
// when full; the ladder records a few thousand spans on its busiest
// lane, so this size keeps every span, and spans() refuses a trace that
// lost any.
const traceRingSize = 1 << 14

// tracer records the traced run's benchmark-side spans into the
// repository's own span recorder (internal/obs/trace), sampling every
// span. A nil tracer records nothing, which is how the untraced passes
// run the same code.
type tracer struct {
	t        *trace.Tracer
	recorded atomic.Int64
}

// span is one open or finished traced interval; the zero span is the
// parent of a root.
type span struct {
	ctx    trace.Context
	parent uint64
	name   trace.NameID
	lane   int
	start  time.Time
}

func newTracer() *tracer {
	return &tracer{t: trace.New(trace.Config{SampleEvery: 1, RingSize: traceRingSize, Lanes: 4, SlowThreshold: -1})}
}

// begin opens a span named name under parent on a viewer lane.
func (t *tracer) begin(name string, parent span, lane int) span {
	if t == nil {
		return span{}
	}
	ctx := t.t.RootAlways()
	if parent.ctx.Sampled() {
		ctx = t.t.Child(parent.ctx)
	}
	return span{ctx: ctx, parent: parent.ctx.Span, name: t.t.Register(name), lane: lane, start: time.Now()}
}

// end closes s.
func (t *tracer) end(s span) {
	if t == nil || !s.ctx.Sampled() {
		return
	}
	t.t.Record(s.name, s.lane, s.ctx, s.parent, s.start.UnixNano(), time.Since(s.start).Nanoseconds(), 0)
	t.recorded.Add(1)
}

// record adds an already-timed span and returns it, so it can parent
// others.
func (t *tracer) record(name string, parent span, lane int, start, end time.Time) span {
	if t == nil {
		return span{}
	}
	s := t.begin(name, parent, lane)
	s.start = start
	t.t.Record(s.name, s.lane, s.ctx, s.parent, start.UnixNano(), end.Sub(start).Nanoseconds(), 0)
	t.recorded.Add(1)
	return s
}

// spans returns every recorded span, or an error when the rings lost
// some.
func (t *tracer) spans() ([]trace.Span, error) {
	spans := t.t.Snapshot()
	if n := t.recorded.Load(); int64(len(spans)) != n || t.t.Drops() != 0 {
		return nil, fmt.Errorf("trace kept %d of %d spans (%d dropped): raise traceRingSize", len(spans), n, t.t.Drops())
	}
	return spans, nil
}

// writeTrace writes spans as Chrome trace-event JSON, which Perfetto
// (ui.perfetto.dev) and chrome://tracing load directly.
func writeTrace(path string, spans []trace.Span) error {
	return os.WriteFile(path, trace.AppendTraceEvents(nil, spans), 0o644)
}

// selfTime is one row of the per-layer self-time table.
type selfTime struct {
	name        string
	count       int
	total, self time.Duration
}

// selfTimes sums, per span name, the spans' durations and their self
// time: the duration minus the part of the span its children cover.
func selfTimes(spans []trace.Span) []selfTime {
	children := map[uint64][]trace.Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	rows := map[string]*selfTime{}
	for _, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &selfTime{name: s.Name}
			rows[s.Name] = r
		}
		r.count++
		r.total += time.Duration(s.Dur)
		r.self += time.Duration(s.Dur - covered(s, children[s.ID]))
	}
	out := make([]selfTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].self > out[j].self })
	return out
}

// covered returns how many nanoseconds of parent's interval the
// children's intervals cover, counting overlapping children once.
func covered(parent trace.Span, kids []trace.Span) int64 {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, k := range kids {
		a := max(k.Start, parent.Start)
		b := min(k.Start+k.Dur, parent.Start+parent.Dur)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
	var sum int64
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case v.a <= cur.b:
			cur.b = max(cur.b, v.b)
		default:
			sum += cur.b - cur.a
			cur = v
		}
	}
	if len(ivs) > 0 {
		sum += cur.b - cur.a
	}
	return sum
}

// writeSelfTimes prints the self-time table.
func writeSelfTimes(w io.Writer, rows []selfTime) {
	fmt.Fprintf(w, "%-36s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-36s %8d %12.3f %12.3f\n", r.name, r.count, ms(r.total), ms(r.self))
	}
}
