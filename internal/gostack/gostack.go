// Package gostack grows a new goroutine's stack up front.
//
// A goroutine starts on a small stack (2–8 KiB) and the runtime doubles
// it each time a call overflows it, copying the whole stack every time.
// A goroutine that gathers a routed reply runs a nested chain — router,
// aggregator, replica set, batcher, codec — that overflows a fresh stack
// several times, and in a CPU profile of an aggregation-tree join those
// copies took a sixth of the samples. A goroutine that calls Grow first
// pays one growth, on an empty stack, instead.
package gostack

// frame is the stack space Grow reserves. The runtime grows the stack
// to the next power of two that fits it, 16 KiB: in a CPU profile of an
// aggregation-tree join that holds nearly every gather chain, while a
// 16 KiB frame (a 32 KiB stack, too large for the runtime's per-P stack
// cache) cost more to reserve than it saved.
const frame = 8 << 10

// Grow grows the calling goroutine's stack to 16 KiB unless it is that
// large already. Call it first in a goroutine that will run deep.
//
//go:noinline
func Grow() {
	var b [frame]byte
	keep(b[:])
}

// keep stops the compiler from dropping Grow's array.
//
//go:noinline
func keep([]byte) {}
