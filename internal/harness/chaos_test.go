package harness

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// goroutineCount counts live goroutines after giving stragglers a short
// grace period to unwind (retried because shutdown is asynchronous: the
// registry's probers and the servers' worker pools exit after Close
// returns their wait).
func stableGoroutines(t *testing.T, want int) int {
	t.Helper()
	n := runtime.NumGoroutine()
	deadline := time.Now().Add(5 * time.Second)
	for n > want && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestChaosScenarios replays every committed scenario file and fails on
// any violated expectation. Each scenario is also a goroutine-leak
// check: the fleet, the registry's recovery probers, and any hung round
// trips must all unwind once the run's resources close.
func TestChaosScenarios(t *testing.T) {
	files, err := ScenarioFiles(filepath.Join("testdata", "scenarios"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 4 {
		t.Fatalf("expected at least the four committed scenarios, found %d", len(files))
	}
	for _, path := range files {
		sc, err := LoadScenario(path)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(sc.Name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			rep, err := RunScenario(sc)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Violations) > 0 {
				t.Errorf("scenario %s: %d violation(s):\n  %s",
					sc.Name, len(rep.Violations), strings.Join(rep.Violations, "\n  "))
			}
			if after := stableGoroutines(t, before); after > before {
				t.Errorf("scenario %s leaked goroutines: %d before, %d after", sc.Name, before, after)
			}
			t.Logf("%s: pairs=%d wall=%v completeness=%v skips=%d",
				rep.Scenario, rep.Pairs, rep.Wall.Round(time.Millisecond), rep.Completeness, rep.Usage.BreakerSkips)
		})
	}
}

// TestChaosScenarioValidation pins the harness's scenario hygiene:
// unknown fields and unknown enum values are loud errors, not silent
// no-ops — a typo in a fault plan must not quietly disable the fault.
func TestChaosScenarioValidation(t *testing.T) {
	dir := t.TempDir()
	bad := filepath.Join(dir, "bad.json")
	if err := os.WriteFile(bad, []byte(`{"topologgy": {"shards": 2}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadScenario(bad); err == nil {
		t.Fatal("unknown scenario field was accepted")
	}

	if _, err := RunScenario(&Scenario{Query: ChaosQuery{Algorithm: "quantum"}}); err == nil {
		t.Fatal("unknown algorithm was accepted")
	}
	if _, err := RunScenario(&Scenario{Query: ChaosQuery{Kind: "cartesian"}}); err == nil {
		t.Fatal("unknown join kind was accepted")
	}
}

// TestChaosMatch pins the target pattern semantics the scenario files
// rely on: exact match, or prefix with a trailing '*'.
func TestChaosMatch(t *testing.T) {
	cases := []struct {
		pattern, name string
		want          bool
	}{
		{"S2/2-r1", "S2/2-r1", true},
		{"S2/2-r1", "S2/2-r2", false},
		{"S2/2-*", "S2/2-r1", true},
		{"S2/2-*", "S2/2-r2", true},
		{"S2/2-*", "S1/2-r1", false},
		{"*", "anything", true},
		{"R", "R", true},
		{"R", "R-r1", false},
	}
	for _, c := range cases {
		if got := match(c.pattern, c.name); got != c.want {
			t.Errorf("match(%q, %q) = %v, want %v", c.pattern, c.name, got, c.want)
		}
	}
}
