package topology

import (
	"context"
	"math"
	"sort"

	"repro/internal/sparse"
)

// RouteECMP computes equal-cost multipath routing: each demand is split
// evenly over all metric-shortest paths between its head-end routers, the
// way OSPF/IS-IS ECMP splits flows in practice. The resulting routing
// matrix has fractional entries, the generalization the paper notes below
// equation (1) ("the routing matrix may easily be transformed to reflect a
// situation where traffic demands are routed on more than one path ... by
// allowing fractional values").
//
// The per-link fractions are computed exactly by shortest-path DAG counting
// (as in betweenness centrality): with σ(v) shortest paths from the source
// to v, the share of traffic crossing DAG edge (u, v) equals the product of
// the split fractions along each path, summed over paths — evaluated in
// O(E) by a topological sweep.
func (n *Network) RouteECMP() (*Routing, error) {
	p := n.NumPairs()
	np := n.NumPoPs()
	rt := &Routing{Net: n, PairPaths: make([][]int, p)}
	// One shortest-path DAG per source PoP serves its N−1 demands; sources
	// are independent, so the per-source work fans out over the shared
	// routing pool. Each source appends its fractional entries to its own
	// slot and the slots are merged in source order afterwards, which
	// keeps the assembled matrix identical to a serial construction (no
	// two sources ever touch the same matrix column).
	perSrc := make([][]ecmpEntry, np)
	err := routePool.ForEach(context.Background(), np, func(srcPoP int) error {
		srcRouter := n.HeadEnd(srcPoP)
		dist, dagIn := n.shortestPathDAG(srcRouter)
		for dstPoP := 0; dstPoP < np; dstPoP++ {
			if dstPoP == srcPoP {
				continue
			}
			pair := n.PairIndex(srcPoP, dstPoP)
			dstRouter := n.HeadEnd(dstPoP)
			if math.IsInf(dist[dstRouter], 1) {
				return &unreachableError{src: srcRouter, dst: dstRouter}
			}
			// Restrict the shortest-path DAG to the ancestors of dst
			// (routers that lie on some shortest path to it).
			seen := map[int]bool{dstRouter: true}
			stack := []int{dstRouter}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				for _, lid := range dagIn[v] {
					u := n.Links[lid].Src
					if !seen[u] {
						seen[u] = true
						stack = append(stack, u)
					}
				}
			}
			// Restricted out-edges per router (forward ECMP split set).
			outEdges := map[int][]int{}
			order := make([]int, 0, len(seen))
			for v := range seen {
				order = append(order, v)
				for _, lid := range dagIn[v] {
					u := n.Links[lid].Src
					outEdges[u] = append(outEdges[u], lid)
				}
			}
			sort.Slice(order, func(a, c int) bool {
				if dist[order[a]] != dist[order[c]] {
					return dist[order[a]] < dist[order[c]]
				}
				return order[a] < order[c]
			})
			// Forward sweep: at each router the passing share splits
			// equally over its next hops toward dst, exactly like
			// OSPF/IS-IS ECMP.
			frac := map[int]float64{srcRouter: 1}
			var pathLinks []int
			for _, u := range order {
				fu := frac[u]
				outs := outEdges[u]
				if fu == 0 || len(outs) == 0 {
					continue
				}
				share := fu / float64(len(outs))
				// Deterministic output order.
				sort.Ints(outs)
				for _, lid := range outs {
					perSrc[srcPoP] = append(perSrc[srcPoP], ecmpEntry{row: lid, col: pair, v: share})
					pathLinks = append(pathLinks, lid)
					frac[n.Links[lid].Dst] += share
				}
			}
			rt.PairPaths[pair] = pathLinks
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	b := sparse.NewBuilder(n.NumLinks(), p)
	for _, entries := range perSrc {
		for _, e := range entries {
			b.Add(e.row, e.col, e.v)
		}
	}
	n.addAccessRows(b)
	rt.R = b.Build()
	rt.indexAccessRows()
	return rt, nil
}

// ecmpEntry is one fractional routing-matrix entry produced by a source's
// forward sweep.
type ecmpEntry struct {
	row, col int
	v        float64
}

type unreachableError struct{ src, dst int }

func (e *unreachableError) Error() string {
	return "topology: ECMP: unreachable router pair"
}

// shortestPathDAG returns the distance of every router from src and, for
// every router v, the incoming interior links that lie on some shortest
// path from src to v. Distances equal within 1e-9 (relative) count as
// ties, so every equal-cost path joins the DAG.
func (n *Network) shortestPathDAG(src int) ([]float64, [][]int) {
	const eps = 1e-9
	dist, _ := n.dijkstra(src, eps)
	dagIn := make([][]int, len(n.Routers))
	for _, l := range n.Links {
		if l.Kind != Interior {
			continue
		}
		if math.IsInf(dist[l.Src], 1) {
			continue
		}
		if math.Abs(dist[l.Src]+l.Metric-dist[l.Dst]) <= eps*(1+dist[l.Dst]) {
			dagIn[l.Dst] = append(dagIn[l.Dst], l.ID)
		}
	}
	return dist, dagIn
}
