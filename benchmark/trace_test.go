package main

import "testing"

func TestSelfTimesParallelSpans(t *testing.T) {
	// One join of 100 ns. Two probes overlap each other (10–50 and 30–70,
	// union 60), as under Parallelism 4; their round trips overlap too
	// (15–45 and 35–60, union 45) and one handler call runs inside each
	// (20–30 and 40–50, union 20).
	var ivs [numLayers][]interval
	ivs[layerJoin] = []interval{{0, 100}}
	ivs[layerProbe] = []interval{{10, 50}, {30, 70}}
	ivs[layerRT] = []interval{{15, 45}, {35, 60}}
	ivs[layerHandler] = []interval{{20, 30}, {40, 50}}
	self, unaccounted := selfTimes(ivs)
	want := [numLayers]int64{layerJoin: 40, layerProbe: 15, layerRT: 25, layerHandler: 20}
	if self != want {
		t.Errorf("self times = %v, want %v", self, want)
	}
	if unaccounted != 0 {
		t.Errorf("nested spans left %d ns unaccounted", unaccounted)
	}
	var sum int64
	for _, s := range self {
		sum += s
	}
	if sum != 100 {
		t.Errorf("self times sum to %d, the join took 100", sum)
	}
}

func TestSelfTimesUnaccounted(t *testing.T) {
	// A round trip that outlives its probe by 5 ns is time no shallower
	// layer covers.
	var ivs [numLayers][]interval
	ivs[layerJoin] = []interval{{0, 100}}
	ivs[layerProbe] = []interval{{10, 50}}
	ivs[layerRT] = []interval{{20, 55}}
	_, unaccounted := selfTimes(ivs)
	if unaccounted != 5 {
		t.Errorf("unaccounted = %d, want 5", unaccounted)
	}
}

func TestMergedAndOverlap(t *testing.T) {
	m := merged([]interval{{5, 8}, {0, 3}, {2, 4}, {8, 9}, {20, 30}})
	want := []interval{{0, 4}, {5, 9}, {20, 30}}
	if len(m) != len(want) {
		t.Fatalf("merged = %v, want %v", m, want)
	}
	for i := range m {
		if m[i] != want[i] {
			t.Fatalf("merged = %v, want %v", m, want)
		}
	}
	if got := overlap(m, []interval{{3, 6}, {25, 40}}); got != 1+1+5 {
		t.Errorf("overlap = %d, want 7", got)
	}
}

func TestResolveParents(t *testing.T) {
	spans := []span{
		{Layer: layerJoin, ID: 1, Join: 1, Start: 0, End: 100},
		{Layer: layerProbe, ID: 2, Join: 1, Start: 10, End: 50},
		{Layer: layerRT, ID: 3, Parent: 2, Join: 1, Start: 15, End: 45},
		{Layer: layerHandler, ID: 4, Join: 1, Start: 20, End: 30}, // no context: parent by containment
		{Layer: layerRT, ID: 5, Join: 1, Start: 60, End: 70},      // inside no probe: the join's
	}
	resolveParents(spans)
	for id, want := range map[int32]int32{2: 1, 3: 2, 4: 3, 5: 1} {
		for _, s := range spans {
			if s.ID == id && s.Parent != want {
				t.Errorf("span %d has parent %d, want %d", id, s.Parent, want)
			}
		}
	}
}
