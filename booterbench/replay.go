package main

import (
	"errors"
	"fmt"
	"io"
	"strconv"
	"time"

	"booters/internal/spool"
)

const (
	// replayPoll is how often the replay workload polls /v1/status for
	// sealed weeks and the final panel.
	replayPoll = 5 * time.Millisecond
	// replayRate is the rate booterserve -throttle paces the replay to:
	// an eighth of the slowest single-core closed-loop rate measured on
	// the 2-CPU host the benchmark was built on (1.57M packets/s), so
	// the replay keeps its schedule through the host's slow spells and
	// freshness follows the pipeline's seal cadence (watermark every
	// 8192 packets ≈ 41 ms at this rate) rather than millisecond timer
	// jitter. Closed-loop throughput on that host moved with its
	// memory-system contention: over ten runs its middle half spread up
	// to 27% of the median, beyond the largest bound a metric may carry.
	replayRate = 200000
)

// replayArgs are booterserve's flags for replaying the capture in dir
// at replayRate.
func replayArgs(dir string) []string {
	return []string{"-replay", dir, "-addr", "127.0.0.1:0", "-throttle", strconv.Itoa(replayRate)}
}

// runReplay is the researcher's reproduction from a recorded capture:
// booterserve -replay on the zstd capture under GOMAXPROCS=1, paced by
// -throttle to replayRate, until the final sealed panel is visible over
// HTTP. It repeats the replay with a fresh process while another
// repetition fits in the run's time. Set-up time is a median over setupRuns extra start-ups and
// every repetition; peak RSS is a median over the repetitions; the
// packet rate and CPU per packet are totals over all of them (all
// packets ÷ all replay time).
func runReplay(b *bench, in *input) (map[string]metric, error) {
	m := in.manifest
	weekEnd, err := weekLastIndex(in.dir, m.Weeks)
	if err != nil {
		return nil, err
	}
	sched := schedule{rate: replayRate}
	var (
		setups, fresh, rss []float64
		wall, cpu          time.Duration // summed over repetitions
	)
	for i := 0; i < setupRuns; i++ {
		srv, err := startServer(b, []string{"GOMAXPROCS=1"}, replayArgs(in.dir)...)
		if err != nil {
			return nil, err
		}
		err = srv.waitReady(false, 30*time.Second)
		srv.kill()
		if err != nil {
			return nil, err
		}
		setups = append(setups, srv.serving().Sub(srv.startAt).Seconds())
	}
	// A repetition starts only if one as long as the last still fits in
	// the run's time.
	start := time.Now()
	var lastDur time.Duration
	for iter := 0; iter == 0 || time.Since(start)+lastDur <= b.seconds; iter++ {
		iterStart := time.Now()
		srv, err := startServer(b, []string{"GOMAXPROCS=1"}, replayArgs(in.dir)...)
		if err != nil {
			return nil, err
		}
		err = func() error {
			defer srv.kill()
			if err := srv.waitReady(false, 30*time.Second); err != nil {
				return err
			}
			// The replay and its pacer start as soon as the server logs
			// that it is serving, so set-up ends and the replay's
			// schedule starts at that line.
			ready := srv.serving()
			setups = append(setups, ready.Sub(srv.startAt).Seconds())
			sched.start = ready
			seen := -1
			var st status
			for {
				st, err = srv.status()
				now := time.Now()
				if err != nil {
					return err
				}
				idx, err := st.sealedIndex()
				if err != nil {
					return err
				}
				// A week's freshness runs from the due time of its last
				// packet on the pacer's schedule to the first poll that
				// shows it sealed.
				for ; seen < idx && seen+1 < m.Weeks; seen++ {
					fresh = append(fresh, ms(now.Sub(sched.due(weekEnd[seen+1]))))
				}
				if st.Final {
					wall += now.Sub(ready)
					break
				}
				if now.Sub(ready) > time.Minute {
					return fmt.Errorf("replay not final after a minute")
				}
				time.Sleep(replayPoll)
			}
			c, err := procCPU(srv.pid())
			if err != nil {
				return err
			}
			cpu += c
			b.chk.check(st.LiveLate == 0, "replay %d: live_late %d", iter, st.LiveLate)
			b.chk.check(st.Attacks == m.Attacks, "replay %d: %d attacks, manifest %d", iter, st.Attacks, m.Attacks)
			var p panel
			if err := srv.getJSON("/v1/panel", &p); err != nil {
				return err
			}
			err = panelMismatch(m.PlannedWeekly, p.Series.Values, m.Weeks)
			if err == nil && len(p.Series.Values) != m.Weeks {
				err = fmt.Errorf("served %d weeks, manifest %d", len(p.Series.Values), m.Weeks)
			}
			b.chk.check(p.Final && err == nil, "replay %d: final panel: %v", iter, err)
			hwm, err := procPeakRSS(srv.pid())
			if err != nil {
				return err
			}
			rss = append(rss, float64(hwm)/(1<<20))
			// A replay server holds nothing to drain, and it only traps
			// signals after its own post-replay self-check, so it is
			// killed rather than interrupted.
			return nil
		}()
		if err != nil {
			return nil, err
		}
		lastDur = time.Since(iterStart)
	}
	b.diag["replays"] = len(rss)
	b.diag["fresh_samples"] = len(fresh)
	pkts := float64(m.Packets * len(rss))
	return e2eMetrics(b, setups, pkts/wall.Seconds(), fresh, float64(cpu.Nanoseconds())/1e3/pkts, median(rss))
}

// weekLastIndex returns, for each of the capture's weeks, the stream
// index of its last packet: the replay reads the spool in this order, so
// the pacer's schedule makes that packet due at start + index/rate. A
// week without packets inherits the previous week's index.
func weekLastIndex(dir string, weeks int) ([]int, error) {
	r, err := spool.Open(dir)
	if err != nil {
		return nil, err
	}
	defer r.Close()
	last := make([]int, weeks)
	for i := 0; ; i++ {
		d, err := r.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			return nil, err
		}
		if w := int(d.Time.Sub(panelStart) / (7 * 24 * time.Hour)); w >= 0 && w < weeks {
			last[w] = i
		}
	}
	for w := 1; w < weeks; w++ {
		last[w] = max(last[w], last[w-1])
	}
	return last, nil
}
