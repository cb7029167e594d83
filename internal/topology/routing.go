package topology

import (
	"container/heap"
	"context"
	"fmt"
	"math"
	"runtime"

	"repro/internal/linalg"
	"repro/internal/runner"
	"repro/internal/sparse"
)

// routePool bounds the concurrency of parallel routing construction across
// the whole process. Route and RouteECMP fan their per-source work out on
// it; because runner.Pool.ForEach always works on the calling goroutine,
// nesting routing construction inside jobs already running on other pools
// (experiment drivers, failure sweeps) cannot deadlock. The floor of 4
// keeps the concurrent construction paths exercised (and race-checked)
// even on single-core machines, where GOMAXPROCS alone would degenerate
// them to purely serial loops.
var routePool = runner.NewPool(max(4, runtime.GOMAXPROCS(0)))

// Routing holds the single-path routes of every ordered PoP pair and the
// resulting routing matrix R (equation (1) of the paper): R[l][p] = 1 iff
// the demand of pair p crosses link l. Rows cover all links, access links
// included, so the ingress row of PoP n is the total traffic entering at n
// (t_{e(n)}) and the egress row of PoP m is the total leaving at m
// (t_{x(m)}).
type Routing struct {
	Net       *Network
	PairPaths [][]int // demand p -> interior link IDs along its path
	R         *sparse.Matrix

	// ingressRows/egressRows cache the access-link row of each PoP.
	// IngressRow is on the hot path of the fanout estimator (one lookup
	// per demand per interval), where a linear scan over the links would
	// dominate at 100+ PoPs.
	ingressRows, egressRows []int
}

// dijkstraItem is a priority-queue entry.
type dijkstraItem struct {
	router int
	dist   float64
	index  int
}

type dijkstraPQ []*dijkstraItem

func (q dijkstraPQ) Len() int           { return len(q) }
func (q dijkstraPQ) Less(i, j int) bool { return q[i].dist < q[j].dist }
func (q dijkstraPQ) Swap(i, j int)      { q[i], q[j] = q[j], q[i]; q[i].index = i; q[j].index = j }
func (q *dijkstraPQ) Push(x interface{}) {
	it := x.(*dijkstraItem)
	it.index = len(*q)
	*q = append(*q, it)
}
func (q *dijkstraPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return it
}

// dijkstra runs Dijkstra from router src over all interior links and
// returns the distance of every router plus the predecessor link through
// which its distance was last lowered (-1 for src and for unreachable
// routers). A relaxation counts only when it improves a distance by more
// than eps, and each router's out-links are relaxed in ID order, so among
// equal-metric paths the predecessors pick the lexicographically smallest
// link-ID sequence deterministically. Route reads the single-path tree
// off the predecessors; RouteECMP reads only the distances.
func (n *Network) dijkstra(src int, eps float64) (dist []float64, prevLink []int) {
	dist = make([]float64, len(n.Routers))
	prevLink = make([]int, len(n.Routers))
	for i := range dist {
		dist[i] = math.Inf(1)
		prevLink[i] = -1
	}
	dist[src] = 0
	pq := &dijkstraPQ{}
	heap.Init(pq)
	heap.Push(pq, &dijkstraItem{router: src, dist: 0})
	done := make([]bool, len(n.Routers))
	for pq.Len() > 0 {
		it := heap.Pop(pq).(*dijkstraItem)
		u := it.router
		if done[u] {
			continue
		}
		done[u] = true
		for _, lid := range n.outLinks[u] {
			l := &n.Links[lid]
			v := l.Dst
			nd := dist[u] + l.Metric
			if nd < dist[v]-eps {
				dist[v] = nd
				prevLink[v] = lid
				heap.Push(pq, &dijkstraItem{router: v, dist: nd})
			}
		}
	}
	return dist, prevLink
}

// Route computes shortest-path routes for every ordered PoP pair between
// head-end routers and assembles the routing matrix. It is the plain
// (capacity-oblivious) routing used when LSP reservations are far below
// capacity.
//
// Construction runs one Dijkstra per source PoP (serving its N−1 demands
// from the shortest-path tree) instead of one per ordered pair, and the
// per-source work fans out over a process-wide pool — the difference
// between O(N²) and O(N) Dijkstra runs is what keeps 150-PoP backbones
// routable in milliseconds. The resulting paths are identical to a
// per-pair computation with the same tie-breaking: every router on a
// shortest path to a destination settles strictly before it (interior
// metrics are strictly positive), so a run stopped at the destination
// has made the same relaxations.
func (n *Network) Route() (*Routing, error) {
	np := n.NumPoPs()
	rt := &Routing{Net: n, PairPaths: make([][]int, n.NumPairs())}
	err := routePool.ForEach(context.Background(), np, func(src int) error {
		head := n.HeadEnd(src)
		dist, prev := n.dijkstra(head, 1e-12)
		for dst := 0; dst < np; dst++ {
			if dst == src {
				continue
			}
			target := n.HeadEnd(dst)
			pair := n.PairIndex(src, dst)
			if math.IsInf(dist[target], 1) {
				return fmt.Errorf("topology: pair %d (%s→%s): router %d unreachable from %d",
					pair, n.PoPs[src].Name, n.PoPs[dst].Name, target, head)
			}
			var path []int
			for v := target; v != head; {
				lid := prev[v]
				path = append(path, lid)
				v = n.Links[lid].Src
			}
			for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
				path[i], path[j] = path[j], path[i]
			}
			rt.PairPaths[pair] = path
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rt.R = rt.buildMatrix()
	rt.indexAccessRows()
	return rt, nil
}

// indexAccessRows fills the per-PoP access-link row caches.
func (rt *Routing) indexAccessRows() {
	n := rt.Net
	rt.ingressRows = make([]int, len(n.PoPs))
	rt.egressRows = make([]int, len(n.PoPs))
	for i := range rt.ingressRows {
		rt.ingressRows[i] = -1
		rt.egressRows[i] = -1
	}
	for _, l := range n.Links {
		switch l.Kind {
		case Ingress:
			rt.ingressRows[l.Src] = l.ID
		case Egress:
			rt.egressRows[l.Dst] = l.ID
		}
	}
}

// buildMatrix assembles R from the per-pair paths plus the access rows.
func (rt *Routing) buildMatrix() *sparse.Matrix {
	n := rt.Net
	b := sparse.NewBuilder(n.NumLinks(), n.NumPairs())
	for p, path := range rt.PairPaths {
		for _, lid := range path {
			b.Add(lid, p, 1)
		}
	}
	n.addAccessRows(b)
	return b.Build()
}

// addAccessRows adds the access-link rows of R to b: every demand fully
// enters the network once at its source PoP's ingress link and leaves it
// once at its destination's egress link, whatever its interior route.
func (n *Network) addAccessRows(b *sparse.Builder) {
	for _, l := range n.Links {
		switch l.Kind {
		case Ingress:
			for dst := range n.PoPs {
				if dst != l.Src {
					b.Add(l.ID, n.PairIndex(l.Src, dst), 1)
				}
			}
		case Egress:
			for src := range n.PoPs {
				if src != l.Dst {
					b.Add(l.ID, n.PairIndex(src, l.Dst), 1)
				}
			}
		}
	}
}

// IngressRow returns the row index of PoP n's ingress access link in R.
// Routings built by Route/RouteECMP answer from the cached
// index; a hand-assembled Routing (tests) falls back to a link scan —
// deliberately without populating the cache, since a lazy write would
// race between the concurrent estimator calls an Instance permits.
func (rt *Routing) IngressRow(pop int) int {
	if rt.ingressRows != nil {
		if r := rt.ingressRows[pop]; r >= 0 {
			return r
		}
	} else {
		for _, l := range rt.Net.Links {
			if l.Kind == Ingress && l.Src == pop {
				return l.ID
			}
		}
	}
	panic(fmt.Sprintf("topology: PoP %d has no ingress link", pop))
}

// EgressRow returns the row index of PoP m's egress access link in R.
// Same caching contract as IngressRow.
func (rt *Routing) EgressRow(pop int) int {
	if rt.egressRows != nil {
		if r := rt.egressRows[pop]; r >= 0 {
			return r
		}
	} else {
		for _, l := range rt.Net.Links {
			if l.Kind == Egress && l.Dst == pop {
				return l.ID
			}
		}
	}
	panic(fmt.Sprintf("topology: PoP %d has no egress link", pop))
}

// LinkLoads computes t = R·s for a demand vector s (equation (2)).
func (rt *Routing) LinkLoads(s linalg.Vector) linalg.Vector {
	return rt.R.MulVec(nil, s)
}
