//go:build race

// Package testenv tells tests what they are running under.
package testenv

// Race reports whether the race detector is compiled in. It gates
// timing- and allocation-count assertions: the detector's instrumentation
// distorts both (sync.Pool, for one, drops items at random under -race).
const Race = true
