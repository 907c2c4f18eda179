package main

import (
	"context"
	"fmt"
	"os"
	"slices"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
)

// Load model: every workload is a closed loop. A device user waits for
// their join, and the daemon protocol allows one request in flight per
// connection, so each client sends its next join only when the previous
// one has returned. With at most two clients no queue builds up; an
// open-loop capacity knee is a different experiment (see README).

// clientLog is what one client measured.
type clientLog struct {
	lats       []time.Duration
	bytes      []float64
	replyBytes []float64
	stats      []core.Stats
	failed     int
	firstErr   error
	first      time.Time // start of the first measured join
	last       time.Time // end of the last measured join
}

// loopResult is one closed-loop measurement.
type loopResult struct {
	clients []clientLog
	wall    time.Duration
}

func (lr loopResult) attempted() (n int) {
	for _, c := range lr.clients {
		n += len(c.lats) + c.failed
	}
	return n
}

func (lr loopResult) failed() (n int) {
	for _, c := range lr.clients {
		n += c.failed
	}
	return n
}

func (lr loopResult) err() error {
	for _, c := range lr.clients {
		if c.firstErr != nil {
			return c.firstErr
		}
	}
	return nil
}

// closedLoop runs the given clients of sys back to back for warm (joins
// discarded) plus dur (joins measured). check judges every measured
// join; a join that errors or fails the check counts as failed. A client
// gives up after three failures in a row — a dead daemon ends the run at
// once instead of spinning.
func closedLoop(sys system, clients []int, warm, dur time.Duration, check func(joinResult) error) loopResult {
	start := time.Now()
	measureFrom, until := start.Add(warm), start.Add(warm+dur)
	logs := make([]clientLog, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		wg.Add(1)
		go func(log *clientLog, c int) {
			defer wg.Done()
			streak := 0
			for streak < 3 {
				t0 := time.Now()
				if t0.After(until) {
					return
				}
				jr, err := sys.Join(context.Background(), c, false)
				if err == nil {
					err = check(jr)
				}
				if err != nil {
					streak++
				} else {
					streak = 0
				}
				if t0.Before(measureFrom) && err == nil {
					continue
				}
				if log.first.IsZero() {
					log.first = t0
				}
				log.last = time.Now()
				if err != nil {
					log.failed++
					if log.firstErr == nil {
						log.firstErr = err
					}
					continue
				}
				log.lats = append(log.lats, jr.lat)
				log.bytes = append(log.bytes, float64(jr.bytes))
				log.replyBytes = append(log.replyBytes, float64(jr.replyBytes))
				if jr.stats != nil {
					log.stats = append(log.stats, *jr.stats)
				}
			}
		}(&logs[i], c)
	}
	wg.Wait()
	lr := loopResult{clients: logs}
	var first, last time.Time
	for _, l := range logs {
		if !l.first.IsZero() && (first.IsZero() || l.first.Before(first)) {
			first = l.first
		}
		if l.last.After(last) {
			last = l.last
		}
	}
	lr.wall = last.Sub(first)
	return lr
}

// joinCheck is the correctness rule of every timed join: the pair count
// is the oracle's, and on a sequential workload the wire bytes are the
// same on every join.
type joinCheck struct {
	sc    scenario
	pairs int

	mu    sync.Mutex
	bytes int
}

func (jc *joinCheck) check(jr joinResult) error {
	if jr.pairs != jc.pairs {
		return fmt.Errorf("%s: join returned %d pairs, the oracle has %d", jc.sc.Name, jr.pairs, jc.pairs)
	}
	if !jc.sc.Sequential() {
		return nil
	}
	jc.mu.Lock()
	defer jc.mu.Unlock()
	if jc.bytes == 0 {
		jc.bytes = jr.bytes
	}
	if jr.bytes != jc.bytes {
		return fmt.Errorf("%s: sequential join moved %d wire bytes, an earlier one %d", jc.sc.Name, jr.bytes, jc.bytes)
	}
	return nil
}

// verify compares, outside any timing, each client's full result with
// the oracle's pairs.
func verify(sys system, sc scenario, want []geom.Pair) error {
	for c := range sc.Algs {
		jr, err := sys.Join(context.Background(), c, true)
		if err != nil {
			return err
		}
		if !slices.Equal(jr.list, want) {
			return fmt.Errorf("%s: %s returned %d pairs that differ from the oracle's %d", sc.Name, sc.Algs[c], len(jr.list), len(want))
		}
	}
	return nil
}

func allClients(sc scenario) []int {
	out := make([]int, len(sc.Algs))
	for i := range out {
		out[i] = i
	}
	return out
}

// runLengths are the phases of one run, derived from the one --seconds.
type runLengths struct {
	warm, measure time.Duration
	setups        int
}

func lengths(seconds float64) runLengths {
	d := time.Duration(seconds * float64(time.Second))
	return runLengths{warm: min(2*time.Second, d/5), measure: d, setups: 9}
}

// e2eResult is one untraced end-to-end run of one workload.
type e2eResult struct {
	metrics   map[string]float64
	samples   int // joins behind join_p50_ms and join_p90_ms
	attempted int
	failed    int
	err       error // first failure, if any
}

// runE2E measures a workload end to end with nothing decorated: set-up
// (several times over, median reported), one full comparison with the
// oracle, a warm-up, then the measured closed loop.
func runE2E(sc scenario, seed int64, rl runLengths, work string) (e2eResult, error) {
	var sys system
	var r, s []geom.Object
	var setups []float64
	for i := 0; i < rl.setups; i++ {
		if sys != nil {
			sys.Close()
		}
		t0 := time.Now()
		r, s = relations(sc.N, seed)
		var err error
		if sys, err = build(sc, r, s, work); err != nil {
			return e2eResult{}, err
		}
		if _, err := sys.Join(context.Background(), 0, false); err != nil {
			sys.Close()
			return e2eResult{}, fmt.Errorf("%s: first join: %w", sc.Name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	defer sys.Close()

	want := oraclePairs(r, s, joinSpec)
	res := e2eResult{metrics: map[string]float64{"setup_s": median(setups)}}
	if err := verify(sys, sc, want); err != nil {
		res.failed, res.attempted, res.err = 1, 1, err
		return res, nil
	}
	jc := &joinCheck{sc: sc, pairs: len(want)}
	lr := closedLoop(sys, allClients(sc), rl.warm, rl.measure, jc.check)
	res.attempted, res.failed, res.err = lr.attempted(), lr.failed(), lr.err()
	if res.attempted == res.failed {
		res.attempted = max(res.attempted, 1)
		return res, nil
	}

	// Latency is the first client's: the only one, or the daemon's
	// high-priority tenant. Bytes are averaged per client first, so the
	// figure does not move with how many joins each tenant got in.
	lat := millis(lr.clients[0].lats)
	var perClient []float64
	for _, c := range lr.clients {
		perClient = append(perClient, mean(c.bytes))
	}
	res.samples = len(lat)
	res.metrics["joins_per_s"] = float64(res.attempted-res.failed) / lr.wall.Seconds()
	res.metrics["join_p50_ms"] = percentile(lat, 50)
	res.metrics["join_p90_ms"] = percentile(lat, 90)
	res.metrics["wire_bytes_per_join"] = mean(perClient)
	return res, nil
}

// workDir makes the run's scratch directory (daemon binary, dataset
// files) under $BENCH_WORK_DIR — the wrapper script points that inside
// the checkout — or the system's temporary directory, and registers its
// removal.
func workDir() (string, error) {
	base := os.Getenv("BENCH_WORK_DIR")
	if base != "" {
		if err := os.MkdirAll(base, 0o755); err != nil {
			return "", err
		}
	}
	dir, err := os.MkdirTemp(base, "run-")
	if err != nil {
		return "", err
	}
	onExit(func() { os.RemoveAll(dir) })
	return dir, nil
}
