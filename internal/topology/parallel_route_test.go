package topology

import (
	"container/heap"
	"fmt"
	"math"
	"sync"
	"testing"
)

// ShortestPath is the per-pair oracle for Route: the interior link IDs of
// the metric-shortest path from router src to router dst, computed by its
// own Dijkstra run that stops once dst settles. Ties are broken the way
// Network.dijkstra breaks them (a strict improvement test plus ordered
// edge relaxation), preferring the lexicographically smallest link-ID
// sequence. Returns an error if dst is unreachable.
func (n *Network) ShortestPath(src, dst int) ([]int, error) {
	const eps = 1e-12
	dist := make([]float64, len(n.Routers))
	prevLink := make([]int, len(n.Routers))
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
		if u == dst {
			break
		}
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
	if math.IsInf(dist[dst], 1) {
		return nil, fmt.Errorf("topology: router %d unreachable from %d", dst, src)
	}
	var path []int
	for v := dst; v != src; {
		lid := prevLink[v]
		path = append(path, lid)
		v = n.Links[lid].Src
	}
	// Reverse into src→dst order.
	for i, j := 0, len(path)-1; i < j; i, j = i+1, j-1 {
		path[i], path[j] = path[j], path[i]
	}
	return path, nil
}

// TestRouteMatchesPerPairShortestPath pins the contract of the parallel
// per-source-tree construction: for every ordered pair, the path read off
// the source's shortest-path tree is identical (link for link) to a
// dedicated ShortestPath run with the same deterministic tie-breaking —
// on the paper networks and on scaled/quantized (tie-heavy) backbones.
func TestRouteMatchesPerPairShortestPath(t *testing.T) {
	nets := []*Network{Europe(1), America(1), QuantizeMetrics(Europe(3), 150)}
	if sc, err := Scaled(2, 40); err != nil {
		t.Fatal(err)
	} else {
		nets = append(nets, sc, QuantizeMetrics(sc, 200))
	}
	for _, net := range nets {
		rt, err := net.Route()
		if err != nil {
			t.Fatalf("%s: Route: %v", net.Name, err)
		}
		for pair := 0; pair < net.NumPairs(); pair++ {
			src, dst := net.PairFromIndex(pair)
			want, err := net.ShortestPath(net.HeadEnd(src), net.HeadEnd(dst))
			if err != nil {
				t.Fatalf("%s: ShortestPath pair %d: %v", net.Name, pair, err)
			}
			got := rt.PairPaths[pair]
			if len(got) != len(want) {
				t.Fatalf("%s pair %d: tree path %v, per-pair path %v", net.Name, pair, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("%s pair %d: tree path %v, per-pair path %v", net.Name, pair, got, want)
				}
			}
		}
	}
}

// TestRouteDeterministicAcrossRuns: repeated (and concurrent) Route calls
// over the same network produce identical matrices — the property the
// byte-stable experiment outputs stand on.
func TestRouteDeterministicAcrossRuns(t *testing.T) {
	net := QuantizeMetrics(America(5), 150)
	ref, err := net.Route()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	results := make([]*Routing, 8)
	for i := range results {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt, err := net.Route()
			if err != nil {
				t.Errorf("run %d: %v", i, err)
				return
			}
			results[i] = rt
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for i, rt := range results {
		if rt.R.NNZ() != ref.R.NNZ() {
			t.Fatalf("run %d: nnz %d vs %d", i, rt.R.NNZ(), ref.R.NNZ())
		}
		for r := 0; r < ref.R.Rows(); r++ {
			ref.R.Row(r, func(c int, v float64) {
				if rt.R.At(r, c) != v {
					t.Fatalf("run %d: R[%d,%d] differs", i, r, c)
				}
			})
		}
	}
}

// TestRouteUnreachable: a disconnected network must fail with the pair
// named, from the parallel construction path.
func TestRouteUnreachable(t *testing.T) {
	// Two PoPs with no interior adjacency.
	pops := []PoP{{ID: 0, Name: "A", Routers: []int{0}}, {ID: 1, Name: "B", Routers: []int{1}}}
	routers := []Router{{ID: 0, PoP: 0, Name: "A-cr1"}, {ID: 1, PoP: 1, Name: "B-cr1"}}
	links := []Link{
		{ID: 0, Kind: Ingress, Src: 0, Dst: 0, CapacityMbps: 1},
		{ID: 1, Kind: Egress, Src: 0, Dst: 0, CapacityMbps: 1},
		{ID: 2, Kind: Ingress, Src: 1, Dst: 1, CapacityMbps: 1},
		{ID: 3, Kind: Egress, Src: 1, Dst: 1, CapacityMbps: 1},
	}
	net, err := FromParts("disconnected", pops, routers, links)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := net.Route(); err == nil {
		t.Fatal("Route on a disconnected network must fail")
	}
	if _, err := net.RouteECMP(); err == nil {
		t.Fatal("RouteECMP on a disconnected network must fail")
	}
}

// TestScaledGenerator covers the scaled backbone builder: size, naming,
// access links, and the adjacency-density cap on tiny networks.
func TestScaledGenerator(t *testing.T) {
	net, err := Scaled(1, 60)
	if err != nil {
		t.Fatal(err)
	}
	if net.NumPoPs() != 60 || net.NumPairs() != 60*59 {
		t.Fatalf("got %d PoPs / %d pairs", net.NumPoPs(), net.NumPairs())
	}
	if got, want := net.InteriorLinks(), 2*3*60; got != want {
		t.Fatalf("interior links %d, want %d", got, want)
	}
	ing, eg := 0, 0
	for _, l := range net.Links {
		switch l.Kind {
		case Ingress:
			ing++
		case Egress:
			eg++
		}
	}
	if ing != 60 || eg != 60 {
		t.Fatalf("access links %d/%d, want 60/60", ing, eg)
	}
	// Tiny network: 3·n exceeds n(n-1)/2, must cap instead of failing.
	small, err := Scaled(1, 4)
	if err != nil {
		t.Fatalf("Scaled(4): %v", err)
	}
	if got, want := small.InteriorLinks(), 2*(4*3/2); got != want {
		t.Fatalf("capped interior links %d, want %d", got, want)
	}
	// Names: the 37 real cities first, then synthetic.
	names := ScaledNames(40)
	if names[0] != "London" || names[12] != "NewYork" {
		t.Fatalf("unexpected leading names %v", names[:14])
	}
	if names[37] != "PoP038" || names[39] != "PoP040" {
		t.Fatalf("unexpected synthetic names %v", names[37:])
	}
	if len(ScaledNames(5)) != 5 {
		t.Fatal("ScaledNames must truncate")
	}
}
