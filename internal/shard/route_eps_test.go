package shard

import (
	"testing"

	"repro/internal/geom"
	"repro/internal/wire"
)

// TestRoutePrunesWithTheServersEpsTest pins the router's shard pruning
// to the servers' ε test. The probe point is exact in float32; shard 0
// holds a point whose math.Hypot distance rounds to 75 while dx²+dy²
// exceeds 75², shard 1 one whose Hypot rounds above 75 while dx²+dy² is
// exactly 75². The servers decide with the squared form, so only shard 1
// can hold a match, and a router deciding with Hypot would prune it.
func TestRoutePrunesWithTheServersEpsTest(t *testing.T) {
	const eps = 75
	p := geom.Pt(75.28449249267578, 1534.757080078125)
	infos := []wire.Info{
		{Count: 1, Bounds: geom.RectFromPoint(geom.Pt(60.26884680918559, 1608.23857696481))},
		{Count: 1, Bounds: geom.RectFromPoint(geom.Pt(15.92488409301442, 1488.915648047277))},
	}
	for _, req := range [][]byte{
		wire.AppendRange(nil, p, eps),
		wire.AppendRangeCount(nil, p, eps),
		wire.AppendBucketRange(nil, []geom.Point{p}, eps),
		wire.AppendBucketRangeCount(nil, []geom.Point{p}, eps),
	} {
		pl, err := routes[wire.Type(req)](req, infos)
		if err != nil {
			t.Fatal(err)
		}
		if len(pl.subs) != 1 || pl.subs[0].shard != 1 {
			var shards []int
			for _, s := range pl.subs {
				shards = append(shards, s.shard)
			}
			t.Fatalf("%v routes to shards %v, want [1]", wire.Type(req), shards)
		}
	}
}
