package core

import (
	"strings"
	"testing"
)

// TestParseAlgorithm pins the one name → algorithm table to every
// spelling the three parsers it replaced accepted (spatialjoin's flags,
// spatialjoind's protocol, the chaos scenarios): full names in any case,
// the CLI short forms, and the empty default of the protocol and the
// scenarios.
func TestParseAlgorithm(t *testing.T) {
	for name, want := range map[string]string{
		"": "upJoin", "upjoin": "upJoin", "up": "upJoin", "UpJoin": "upJoin",
		"naive": "naive", "grid": "grid", "GRID": "grid",
		"mobijoin": "mobiJoin", "mobi": "mobiJoin",
		"srjoin": "srJoin", "sr": "srJoin", "SrJoin": "srJoin",
		"semijoin": "semiJoin", "semi": "semiJoin",
		"auto": "auto",
	} {
		alg, err := ParseAlgorithm(name)
		if err != nil {
			t.Errorf("algorithm %q rejected: %v", name, err)
		} else if !strings.EqualFold(alg.Name(), want) {
			t.Errorf("algorithm %q resolved to %s, want %s", name, alg.Name(), want)
		}
	}
	for _, name := range []string{"quantum", "up join", "upjoin "} {
		if alg, err := ParseAlgorithm(name); err == nil {
			t.Errorf("algorithm %q accepted as %s", name, alg.Name())
		}
	}
}

// TestParseSpec pins the kind names and that each kind keeps only the
// parameters it reads, so whatever a caller's unused flags hold, the
// spec validates.
func TestParseSpec(t *testing.T) {
	for kind, want := range map[string]Spec{
		"":             {Kind: Distance, Eps: 75},
		"distance":     {Kind: Distance, Eps: 75},
		"Distance":     {Kind: Distance, Eps: 75},
		"intersection": {Kind: Intersection},
		"iceberg":      {Kind: IcebergSemi, Eps: 75, MinMatches: 3},
		"ICEBERG":      {Kind: IcebergSemi, Eps: 75, MinMatches: 3},
	} {
		got, err := ParseSpec(kind, 75, 3)
		if err != nil || got != want {
			t.Errorf("kind %q: got %+v, %v; want %+v", kind, got, err, want)
		} else if err := got.Validate(); err != nil {
			t.Errorf("kind %q: %v", kind, err)
		}
	}
	for _, kind := range []string{"cartesian", "iceberg-semi"} {
		if got, err := ParseSpec(kind, 75, 3); err == nil {
			t.Errorf("kind %q accepted as %+v", kind, got)
		}
	}
}
