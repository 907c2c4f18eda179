package main

import (
	"testing"
	"time"
)

// TestSmoke runs every workload through both passes at test size: one
// set-up, the oracle comparison, at least one measured join, then the
// traced pass on a fraction of a second. It checks that nothing fails
// and that every metric the benchmark declares is actually produced.
func TestSmoke(t *testing.T) {
	work := t.TempDir()
	for _, sc := range scenarios {
		sc := sc.short()
		t.Run(sc.Name, func(t *testing.T) {
			if sc.Transport == "daemon" && testing.Short() {
				t.Skip("builds and spawns spatialjoind")
			}
			res, err := runE2E(sc, 2, runLengths{measure: 40 * time.Millisecond, setups: 1}, work)
			if err != nil {
				t.Fatal(err)
			}
			if res.failed > 0 || res.attempted < 1 {
				t.Fatalf("%d of %d joins failed: %v", res.failed, res.attempted, res.err)
			}
			for _, d := range endToEnd {
				if res.metrics[d.Name] <= 0 {
					t.Errorf("%s = %g, want a positive value", d.Name, res.metrics[d.Name])
				}
			}
			m, err := runTraced(sc, 2, 1, work, "")
			if err != nil {
				t.Fatal(err)
			}
			known := map[string]bool{}
			for _, d := range perLayer {
				known[d.Name] = true
			}
			for name := range m {
				if !known[name] {
					t.Errorf("traced pass reports %s, which metrics.go does not declare", name)
				}
			}
			for _, name := range []string{"core.self_ms_per_join", "core.probes_per_join", "memjoin.gridjoin_ms", "go.allocs_per_join"} {
				if m[name] <= 0 {
					t.Errorf("%s = %g, want a positive value", name, m[name])
				}
			}
		})
	}
	cleanup() // reap the daemons before TempDir goes
}
