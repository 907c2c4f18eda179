// Package bufpool is the one slice free list of the repository. Its
// byte instance serves the wire codec, the transports and the server
// handlers: one pool serves all frame sizes, buffers circulate from the
// encoder of one endpoint to the decoder of the other and come back, so
// the steady state of a serving loop performs no buffer allocation at
// all. Its object instance holds the windows the device downloads
// (wire.DecodeObjects draws from it), and its pair instance the pair
// lists the device builds, sorts and deduplicates, so a device joining
// partition after partition reuses the memory of the last one.
//
// Ownership convention (see docs/PERFORMANCE.md), the same for every
// element type: whoever calls Get — or receives a slice from a party that
// documents handing ownership over, such as a reply frame or a decoded
// object window — must either Put it exactly once after its elements are
// dead, or drop it (dropping is always safe, it merely re-allocates
// later). A slice must never be Put while any view of it is still in use,
// and never Put twice. In race builds a pool with a poison value
// overwrites every element of a slice handed back to it, so a consumer
// still reading a released object window reads NaN rectangles and the
// id ^uint32(0) instead of plausible data, and the oracle suites fail.
package bufpool

import (
	"math"
	"sync"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/testenv"
)

// maxPooled bounds the size of recycled slices, in bytes. Slices larger
// than this (whole-dataset downloads in the hundreds of megabytes would
// need a pathological workload) are left to the garbage collector rather
// than pinned in the pool forever.
const maxPooled = 8 << 20

// Pool is a free list of []T of any capacity. Get/Put cycles allocate
// nothing: a slice rides in a box, and the boxes themselves are recycled
// when their payload moves out.
type Pool[T any] struct {
	slices, boxes sync.Pool
	max           int // capacity bound, in elements
	fresh         int // capacity of a slice made for an empty pool
	poison        *T  // race builds: what a released slice is overwritten with
}

type box[T any] struct{ s []T }

// New returns a pool whose empty-handed Get makes slices of capacity
// fresh, and which overwrites released slices with *poison in race
// builds (nil: never).
func New[T any](fresh int, poison *T) *Pool[T] {
	var zero T
	return &Pool[T]{max: maxPooled / int(max(unsafe.Sizeof(zero), 1)), fresh: fresh, poison: poison}
}

// Get returns an empty slice (len 0) with whatever capacity the pool has
// on hand. Append to it; hand it back with Put when its elements are
// dead.
func (p *Pool[T]) Get() []T {
	b, _ := p.slices.Get().(*box[T])
	if b == nil {
		return make([]T, 0, p.fresh)
	}
	s := b.s
	b.s = nil
	p.boxes.Put(b)
	return s[:0]
}

// GetCap returns an empty slice with capacity at least n. A pooled slice
// that is too small goes back to the pool (it keeps serving smaller
// requests) rather than being dropped.
func (p *Pool[T]) GetCap(n int) []T {
	s := p.Get()
	if cap(s) < n {
		p.Put(s)
		s = make([]T, 0, n)
	}
	return s
}

// Put recycles s. It is safe to Put slices that did not come from Get
// (they join the pool); it is never safe to Put the same slice twice or
// while its elements are still referenced.
func (p *Pool[T]) Put(s []T) {
	if cap(s) == 0 || cap(s) > p.max {
		return
	}
	if testenv.Race && p.poison != nil {
		s = s[:cap(s)]
		for i := range s {
			s[i] = *p.poison
		}
	}
	b, _ := p.boxes.Get().(*box[T])
	if b == nil {
		b = new(box[T])
	}
	b.s = s[:0]
	p.slices.Put(b)
}

// The instances. Frames start at 1 KB, which holds every probe and most
// replies without a regrow.
var (
	Bytes   = New[byte](1024, nil)
	Objects = New[geom.Object](0, &geom.Object{
		ID:  ^uint32(0),
		MBR: geom.Rect{MinX: math.NaN(), MinY: math.NaN(), MaxX: math.NaN(), MaxY: math.NaN()},
	})
	Pairs = New[geom.Pair](0, &geom.Pair{RID: ^uint32(0), SID: ^uint32(0)})
)

// Get returns an empty frame buffer from Bytes.
func Get() []byte { return Bytes.Get() }

// GetCap returns an empty frame buffer of capacity at least n from Bytes.
func GetCap(n int) []byte { return Bytes.GetCap(n) }

// Put recycles a frame buffer into Bytes.
func Put(b []byte) { Bytes.Put(b) }

// SameBacking reports whether two slices share one allocation, by
// comparing the address of the last element of each slice's capacity. It
// catches any aliasing (including sub-slices at different offsets) —
// exactly what a releaser must check before Putting both slices.
func SameBacking(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}
