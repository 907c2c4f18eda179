package shard

import "repro/internal/netsim"

// Per-tenant attribution surfaces for the fleet topologies. Like Usage,
// each is an additive sum over the endpoint's links, so a tenant's slice
// of a router (or tree, or replica set) sums column by column with every
// other tenant's to the endpoint's own Usage(). Endpoints without the
// seam — anything that is not a *client.Remote, *ReplicaSet, or *Router
// — contribute zero, matching the optional-interface pattern LinkStats
// uses. An interior tree node's uplink is charged outside any tenant
// context, so a subtree's tenant slice is its leaf links' alone.

// endpointTenantUsage reads an endpoint's per-tenant attribution when it
// exposes one.
func endpointTenantUsage(e Endpoint, id netsim.TenantID) netsim.Usage {
	if tu, ok := e.(interface {
		TenantUsage(netsim.TenantID) netsim.Usage
	}); ok {
		return tu.TenantUsage(id)
	}
	return netsim.Usage{}
}

// TenantUsage returns the tenant's attributed slice of the relation's
// traffic, summed over all shard links.
func (r *Router) TenantUsage(id netsim.TenantID) netsim.Usage {
	var sum netsim.Usage
	for _, s := range r.shards {
		sum = sum.Add(endpointTenantUsage(s, id))
	}
	return sum
}

// TenantUsage returns the tenant's attributed slice of the shard's
// traffic, summed over all replica links.
func (rs *ReplicaSet) TenantUsage(id netsim.TenantID) netsim.Usage {
	var sum netsim.Usage
	for _, r := range rs.replicas {
		sum = sum.Add(r.TenantUsage(id))
	}
	return sum
}
