package bufpool

import (
	"testing"

	"repro/internal/testenv"
)

func TestGetPutCycle(t *testing.T) {
	b := Get()
	if len(b) != 0 {
		t.Fatalf("Get returned len %d", len(b))
	}
	b = append(b, 1, 2, 3)
	Put(b)
	c := Get()
	if len(c) != 0 {
		t.Fatalf("recycled buffer has len %d", len(c))
	}
}

func TestGetCap(t *testing.T) {
	b := GetCap(1 << 16)
	if cap(b) < 1<<16 {
		t.Fatalf("GetCap(64K) cap = %d", cap(b))
	}
	if len(b) != 0 {
		t.Fatalf("GetCap returned len %d", len(b))
	}
	Put(b)
}

func TestPutForeignAndOversized(t *testing.T) {
	Put(make([]byte, 100))         // foreign buffer joins the pool
	Put(make([]byte, maxPooled+1)) // oversized buffer is dropped
	Put(nil)                       // nil is a no-op
	if b := Get(); b == nil && cap(b) != 0 {
		t.Fatal("pool corrupted")
	}
}

func TestSameBacking(t *testing.T) {
	a := make([]byte, 10, 20)
	if !SameBacking(a, a) {
		t.Fatal("slice does not share backing with itself")
	}
	if !SameBacking(a, a[3:7]) {
		t.Fatal("offset sub-slice not detected as aliasing")
	}
	if SameBacking(a, make([]byte, 10)) {
		t.Fatal("distinct allocations reported as aliasing")
	}
	if SameBacking(nil, a) || SameBacking(a, nil) {
		t.Fatal("nil slice reported as aliasing")
	}
}

// TestSteadyStateAllocs checks the headline property: a Get/Put cycle at
// steady state performs zero allocations.
func TestSteadyStateAllocs(t *testing.T) {
	if testenv.Race {
		t.Skip("race instrumentation allocates; alloc counts are meaningless")
	}
	// Warm the pool so entry boxes exist.
	for i := 0; i < 16; i++ {
		Put(Get())
	}
	avg := testing.AllocsPerRun(1000, func() {
		b := Get()
		b = append(b, 'x')
		Put(b)
	})
	if avg > 0.05 {
		t.Fatalf("Get/Put cycle allocates %v times per run", avg)
	}
}
