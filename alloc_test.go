package repro

import (
	"runtime"
	"runtime/debug"
	"testing"

	"repro/internal/testenv"
)

// TestNaiveWarmSessionRecyclesWindows pins the device's memory reuse: on
// a warm in-process session, a Naive join with an unlimited buffer
// downloads two 12 000-object windows (480 KB each) and joins them, and
// allocates neither window again, nor its pair lists — only the result
// and per-run bookkeeping, well under one window's size.
func TestNaiveWarmSessionRecyclesWindows(t *testing.T) {
	if testenv.Race {
		t.Skip("race instrumentation allocates and sync.Pool drops items at random")
	}
	r := GaussianClusters(12000, 8, 250, World, 1)
	s := GaussianClusters(12000, 8, 250, World, 2)
	sess := newTestSession(t, SessionConfig{R: r, S: s, Window: World})
	spec := Spec{Kind: Distance, Eps: 5}
	run := func() *Result {
		res, err := sess.Run(Naive{}, spec)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	// No collection may empty the free lists mid-measurement, and with
	// one P no buffer waits in another P's private slot.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := run()
	for range 3 {
		run()
	}
	const runs = 5
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for range runs {
		if got := run(); len(got.Pairs) != len(want.Pairs) {
			t.Fatalf("warm run: %d pairs, first run %d", len(got.Pairs), len(want.Pairs))
		}
	}
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / runs
	t.Logf("%d pairs, %d bytes allocated per warm run", len(want.Pairs), perRun)
	if perRun > 64<<10 {
		t.Fatalf("a warm Naive run allocates %d bytes; a downloaded window alone is 480 KB", perRun)
	}
}
