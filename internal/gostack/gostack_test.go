package gostack

import "testing"

func TestGrowThenRunDeep(t *testing.T) {
	done := make(chan int)
	go func() {
		Grow()
		done <- deep(10)
	}()
	if got := <-done; got != 10 {
		t.Fatalf("deep(10) = %d, want 10", got)
	}
}

var sink int

// deep recurses n frames of about 1 KiB each, the depth of a nested
// gather chain, and returns n.
//
//go:noinline
func deep(n int) int {
	var pad [1 << 10]byte
	pad[n%len(pad)] = 1
	if n == 0 {
		return 0
	}
	return deep(n-1) + int(pad[n%len(pad)])
}

// BenchmarkGoDeep starts goroutines that need a 10 KiB stack, as they
// are and with Grow first: the first pays a copy per doubling of a
// stack that holds more and more frames, the second one growth on an
// empty stack.
func BenchmarkGoDeep(b *testing.B) {
	for _, tc := range []struct {
		name string
		grow bool
	}{{"go", false}, {"grow", true}} {
		b.Run(tc.name, func(b *testing.B) {
			done := make(chan int)
			for i := 0; i < b.N; i++ {
				go func() {
					if tc.grow {
						Grow()
					}
					done <- deep(10)
				}()
				sink += <-done
			}
		})
	}
}
