package topology

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/linalg"
)

func TestEuropeDimensionsMatchPaper(t *testing.T) {
	net := Europe(1)
	if got := net.NumPoPs(); got != 12 {
		t.Fatalf("Europe PoPs = %d, want 12", got)
	}
	if got := net.NumPairs(); got != 132 {
		t.Fatalf("Europe pairs = %d, want 132", got)
	}
	if got := net.InteriorLinks(); got != 72 {
		t.Fatalf("Europe interior links = %d, want 72", got)
	}
	if got := net.NumLinks(); got != 96 { // + 2 access links per PoP
		t.Fatalf("Europe total links = %d, want 96", got)
	}
}

func TestAmericaDimensionsMatchPaper(t *testing.T) {
	net := America(1)
	if got := net.NumPoPs(); got != 25 {
		t.Fatalf("America PoPs = %d, want 25", got)
	}
	if got := net.NumPairs(); got != 600 {
		t.Fatalf("America pairs = %d, want 600", got)
	}
	if got := net.InteriorLinks(); got != 284 {
		t.Fatalf("America interior links = %d, want 284", got)
	}
	if got := net.NumLinks(); got != 334 { // + 2 access links per PoP
		t.Fatalf("America total links = %d, want 334", got)
	}
}

func TestGenerateRejectsBadConfigs(t *testing.T) {
	_, err := Generate(GeneratorConfig{PoPNames: []string{"a", "b"}, UndirectedEdges: 1})
	if err == nil {
		t.Fatal("expected error for < 3 PoPs")
	}
	_, err = Generate(GeneratorConfig{
		PoPNames: []string{"a", "b", "c"}, UndirectedEdges: 99,
	})
	if err == nil {
		t.Fatal("expected error for too many edges")
	}
}

func TestPairIndexRoundTrip(t *testing.T) {
	net := Europe(1)
	seen := make(map[int]bool)
	for src := 0; src < net.NumPoPs(); src++ {
		for dst := 0; dst < net.NumPoPs(); dst++ {
			if src == dst {
				continue
			}
			p := net.PairIndex(src, dst)
			if p < 0 || p >= net.NumPairs() {
				t.Fatalf("PairIndex(%d,%d) = %d out of range", src, dst, p)
			}
			if seen[p] {
				t.Fatalf("duplicate pair index %d", p)
			}
			seen[p] = true
			s, d := net.PairFromIndex(p)
			if s != src || d != dst {
				t.Fatalf("round trip (%d,%d) -> %d -> (%d,%d)", src, dst, p, s, d)
			}
		}
	}
	if len(seen) != net.NumPairs() {
		t.Fatalf("covered %d pairs, want %d", len(seen), net.NumPairs())
	}
}

func TestShortestPathIsConnectedAndOrdered(t *testing.T) {
	net := Europe(7)
	path, err := net.ShortestPath(0, 5)
	if err != nil {
		t.Fatalf("ShortestPath: %v", err)
	}
	if len(path) == 0 {
		t.Fatal("empty path between distinct routers")
	}
	// The path must be link-contiguous from 0 to 5.
	at := 0
	for _, lid := range path {
		l := net.Links[lid]
		if l.Src != at {
			t.Fatalf("discontiguous path at link %d: at router %d, link starts at %d", lid, at, l.Src)
		}
		at = l.Dst
	}
	if at != 5 {
		t.Fatalf("path ends at %d, want 5", at)
	}
}

func TestShortestPathOptimality(t *testing.T) {
	// Compare Dijkstra's distance with brute-force Bellman-Ford.
	net := Europe(3)
	nr := len(net.Routers)
	const inf = math.MaxFloat64 / 4
	dist := make([][]float64, nr)
	for i := range dist {
		dist[i] = make([]float64, nr)
		for j := range dist[i] {
			if i != j {
				dist[i][j] = inf
			}
		}
	}
	for _, l := range net.Links {
		if l.Kind == Interior && l.Metric < dist[l.Src][l.Dst] {
			dist[l.Src][l.Dst] = l.Metric
		}
	}
	for k := 0; k < nr; k++ {
		for i := 0; i < nr; i++ {
			for j := 0; j < nr; j++ {
				if d := dist[i][k] + dist[k][j]; d < dist[i][j] {
					dist[i][j] = d
				}
			}
		}
	}
	for src := 0; src < nr; src++ {
		for dst := 0; dst < nr; dst++ {
			if src == dst {
				continue
			}
			path, err := net.ShortestPath(src, dst)
			if err != nil {
				t.Fatalf("unreachable %d->%d", src, dst)
			}
			var got float64
			for _, lid := range path {
				got += net.Links[lid].Metric
			}
			if math.Abs(got-dist[src][dst]) > 1e-9 {
				t.Fatalf("path %d->%d length %v, want %v", src, dst, got, dist[src][dst])
			}
		}
	}
}

func TestRouteBuildsConsistentMatrix(t *testing.T) {
	net := Europe(1)
	rt, err := net.Route()
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	if rt.R.Rows() != 96 || rt.R.Cols() != 132 {
		t.Fatalf("R is %dx%d, want 96x132", rt.R.Rows(), rt.R.Cols())
	}
	// Every demand must appear in exactly one ingress and one egress row.
	for p := 0; p < net.NumPairs(); p++ {
		src, dst := net.PairFromIndex(p)
		if got := rt.R.At(rt.IngressRow(src), p); got != 1 {
			t.Fatalf("pair %d missing from its ingress row", p)
		}
		if got := rt.R.At(rt.EgressRow(dst), p); got != 1 {
			t.Fatalf("pair %d missing from its egress row", p)
		}
		for other := 0; other < net.NumPoPs(); other++ {
			if other != src {
				if rt.R.At(rt.IngressRow(other), p) != 0 {
					t.Fatalf("pair %d leaked into ingress row of PoP %d", p, other)
				}
			}
		}
	}
}

// Property: link loads satisfy flow conservation at transit routers — for a
// single unit demand, every interior router on the path has in-degree load
// equal to out-degree load.
func TestFlowConservation(t *testing.T) {
	net := America(2)
	rt, err := net.Route()
	if err != nil {
		t.Fatalf("Route: %v", err)
	}
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		p := rng.Intn(net.NumPairs())
		s := linalg.NewVector(net.NumPairs())
		s[p] = 1
		loads := rt.LinkLoads(s)
		src, dst := net.PairFromIndex(p)
		in := make([]float64, len(net.Routers))
		out := make([]float64, len(net.Routers))
		for _, l := range net.Links {
			if l.Kind != Interior || loads[l.ID] == 0 {
				continue
			}
			out[l.Src] += loads[l.ID]
			in[l.Dst] += loads[l.ID]
		}
		for r := range net.Routers {
			net1 := out[r] - in[r]
			switch {
			case r == net.HeadEnd(src):
				if math.Abs(net1-1) > 1e-12 {
					t.Fatalf("source router imbalance %v", net1)
				}
			case r == net.HeadEnd(dst):
				if math.Abs(net1+1) > 1e-12 {
					t.Fatalf("sink router imbalance %v", net1)
				}
			default:
				if math.Abs(net1) > 1e-12 {
					t.Fatalf("transit router %d imbalance %v", r, net1)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := Europe(99)
	b := Europe(99)
	if len(a.Links) != len(b.Links) {
		t.Fatal("same seed, different link counts")
	}
	for i := range a.Links {
		if a.Links[i] != b.Links[i] {
			t.Fatalf("same seed, different link %d", i)
		}
	}
	c := Europe(100)
	diff := false
	for i := range a.Links {
		if a.Links[i] != c.Links[i] {
			diff = true
			break
		}
	}
	if !diff {
		t.Fatal("different seeds produced identical networks")
	}
}

func TestQuantizeMetrics(t *testing.T) {
	net := Europe(1)
	q := QuantizeMetrics(net, 150)
	for i, l := range q.Links {
		if l.Kind != Interior {
			continue
		}
		if rem := math.Mod(l.Metric, 150); rem > 1e-9 && rem < 150-1e-9 {
			t.Fatalf("link %d metric %v not on the grid", i, l.Metric)
		}
		if l.Metric < net.Links[i].Metric {
			t.Fatalf("link %d metric decreased", i)
		}
	}
	// Original untouched, structure preserved.
	if net.Links[0].Metric == q.Links[0].Metric && net.Links[0].Metric > 150 {
		t.Log("metric incidentally on grid; fine")
	}
	if _, err := q.Route(); err != nil {
		t.Fatalf("routing on quantized network: %v", err)
	}
}

func TestQuantizeMetricsPanicsOnBadStep(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	QuantizeMetrics(Europe(1), 0)
}

func TestLinkKindString(t *testing.T) {
	if Interior.String() != "interior" || Ingress.String() != "ingress" || Egress.String() != "egress" {
		t.Fatal("LinkKind.String wrong")
	}
	if LinkKind(9).String() != "LinkKind(9)" {
		t.Fatal("unknown kind format wrong")
	}
}

func BenchmarkRouteAmerica(b *testing.B) {
	net := America(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := net.Route(); err != nil {
			b.Fatal(err)
		}
	}
}
