package shard

import (
	"repro/internal/geom"
	"repro/internal/wire"
)

// This file holds the value-level folds behind the routing table's
// merges (route.go). A routed list is its shards' replies concatenated
// in plan order (wire.AppendList); MergeObjects is that rule on decoded
// objects. The flat router and every tree level run the same folds, so
// a tree of any depth is bit-identical to the flat scatter.

// MergeObjects appends per-shard object lists to dst in part order
// (pass dst[:0] to reuse a previous result's capacity): the decoded
// form of the routed OBJECTS reply, and the reference the tests hold
// routed replies to. Each object lives on exactly one shard, so the
// result is duplicate-free. Concatenation is associative, so merging
// consecutive partial merges equals merging everything at once.
func MergeObjects(dst []geom.Object, parts [][]geom.Object) []geom.Object {
	for _, p := range parts {
		dst = append(dst, p...)
	}
	return dst
}

// mergeInfos folds per-shard metadata into the relation's: cardinalities
// sum, bounds union (empty shards contribute nothing), PointData holds
// iff it holds on every non-empty shard, and TreeHeight is the minimum
// published height over non-empty shards — the deepest level guaranteed
// to exist in every shard tree — or 0 when any shard withholds its index.
// The fold is associative, so an aggregation tree merging level by level
// reaches the same relation metadata as the flat fan-out.
func mergeInfos(infos []wire.Info) wire.Info {
	var m wire.Info
	m.PointData = true
	first := true
	for _, info := range infos {
		m.Count += info.Count
		if info.Count == 0 {
			continue
		}
		if first {
			m.Bounds = info.Bounds
			m.TreeHeight = info.TreeHeight
			first = false
		} else {
			m.Bounds = m.Bounds.Union(info.Bounds)
			if info.TreeHeight < m.TreeHeight {
				m.TreeHeight = info.TreeHeight
			}
		}
		if !info.PointData {
			m.PointData = false
		}
	}
	return m
}
