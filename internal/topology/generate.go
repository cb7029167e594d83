package topology

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// europePoPs are the 12 European PoPs of the paper's extracted subnetwork.
// City names are representative of Global Crossing's European footprint.
var europePoPs = []string{
	"London", "Amsterdam", "Paris", "Frankfurt", "Brussels", "Zurich",
	"Milan", "Madrid", "Stockholm", "Copenhagen", "Dublin", "Vienna",
}

// americaPoPs are the 25 American PoPs of the paper's extracted subnetwork.
var americaPoPs = []string{
	"NewYork", "Newark", "Washington", "Atlanta", "Miami", "Chicago",
	"Dallas", "Houston", "Denver", "Seattle", "SanFrancisco", "SanJose",
	"LosAngeles", "SanDiego", "Phoenix", "LasVegas", "SaltLake",
	"Minneapolis", "StLouis", "KansasCity", "Detroit", "Cleveland",
	"Boston", "Philadelphia", "Tampa",
}

// GeneratorConfig controls the seeded backbone generator.
type GeneratorConfig struct {
	Name            string
	PoPNames        []string
	UndirectedEdges int     // interior adjacencies (each becomes two directed links)
	Seed            int64   // RNG seed for chord placement
	CapacityMbps    float64 // uniform interior link capacity
	AccessCapacity  float64 // ingress/egress link capacity
}

// Europe returns the 12-PoP European subnetwork with the paper's link
// count: 72 directed interior links (36 adjacencies). One ingress and one
// egress access link per PoP are added on top, making the marginal totals
// te(n) and tx(m) observable as the paper's methods require.
func Europe(seed int64) *Network {
	n, err := Generate(GeneratorConfig{
		Name:            "europe",
		PoPNames:        europePoPs,
		UndirectedEdges: 36,
		Seed:            seed,
		CapacityMbps:    10000, // STM-64-class trunks
		AccessCapacity:  20000,
	})
	if err != nil {
		panic(err) // static config cannot fail
	}
	return n
}

// America returns the 25-PoP American subnetwork with the paper's link
// count: 284 directed interior links (142 adjacencies), plus one ingress
// and one egress access link per PoP.
func America(seed int64) *Network {
	n, err := Generate(GeneratorConfig{
		Name:            "america",
		PoPNames:        americaPoPs,
		UndirectedEdges: 142,
		Seed:            seed,
		CapacityMbps:    10000,
		AccessCapacity:  20000,
	})
	if err != nil {
		panic(err)
	}
	return n
}

// ScaledNames returns n deterministic PoP names for generated backbones:
// the 37 real city names of the paper's two subnetworks first, then
// synthetic "PoP038"-style names. Used by the scaled scenario family to
// grow backbones past the paper's 25-PoP ceiling.
func ScaledNames(n int) []string {
	names := make([]string, 0, n)
	names = append(names, europePoPs...)
	names = append(names, americaPoPs...)
	if n <= len(names) {
		return names[:n]
	}
	for i := len(names); i < n; i++ {
		names = append(names, fmt.Sprintf("PoP%03d", i+1))
	}
	return names
}

// Scaled generates an n-PoP backbone with the same construction as the
// paper's two subnetworks (ring + skewed chords, Euclidean metrics, one
// ingress and one egress access link per PoP) at an adjacency density of
// about three adjacencies per PoP — sparse enough that the estimation
// problem stays as underdetermined as on the real networks (P = n(n−1)
// demands against ~8n link observations). It is the base topology of the
// scenario lab's scaled(n) family.
func Scaled(seed int64, n int) (*Network, error) {
	edges := 3 * n
	if max := n * (n - 1) / 2; edges > max {
		edges = max
	}
	return Generate(GeneratorConfig{
		Name:            fmt.Sprintf("scaled-%d", n),
		PoPNames:        ScaledNames(n),
		UndirectedEdges: edges,
		Seed:            seed,
		CapacityMbps:    10000,
		AccessCapacity:  40000,
	})
}

// Generate builds a connected backbone with one core router per PoP. PoPs
// are embedded at seeded random positions in a plane and link metrics are
// the Euclidean distances — exactly how IGP metrics track fiber distance in
// real backbones. Because Euclidean metrics satisfy the triangle
// inequality, every adjacent PoP pair routes over its direct link, which is
// what makes large demands well-identified from link loads (the property
// the paper's regularized estimators exploit). Connectivity comes from a
// tour over the PoPs in angular order; seeded chords preferring major
// (low-index) PoPs densify the core until the requested adjacency count is
// reached. Each PoP also receives one ingress and one egress access link.
func Generate(cfg GeneratorConfig) (*Network, error) {
	np := len(cfg.PoPNames)
	if np < 3 {
		return nil, fmt.Errorf("topology: need at least 3 PoPs, got %d", np)
	}
	maxEdges := np * (np - 1) / 2
	if cfg.UndirectedEdges < np || cfg.UndirectedEdges > maxEdges {
		return nil, fmt.Errorf("topology: %d adjacencies out of range [%d, %d]",
			cfg.UndirectedEdges, np, maxEdges)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	net := &Network{Name: cfg.Name}
	// Plane embedding: major PoPs nearer the center of the region.
	xs := make([]float64, np)
	ys := make([]float64, np)
	for i := 0; i < np; i++ {
		spread := 0.35 + 0.65*float64(i)/float64(np)
		xs[i] = 500 * spread * (2*rng.Float64() - 1)
		ys[i] = 500 * spread * (2*rng.Float64() - 1)
	}
	for i, name := range cfg.PoPNames {
		net.PoPs = append(net.PoPs, PoP{ID: i, Name: name, Routers: []int{i}})
		net.Routers = append(net.Routers, Router{ID: i, PoP: i, Name: name + "-cr1"})
	}
	type edge struct{ a, b int }
	have := make(map[edge]bool)
	addAdjacency := func(a, b int) {
		dx, dy := xs[a]-xs[b], ys[a]-ys[b]
		metric := math.Hypot(dx, dy) + 1 // +1 keeps metrics strictly positive
		for _, pair := range [2][2]int{{a, b}, {b, a}} {
			net.Links = append(net.Links, Link{
				ID: len(net.Links), Kind: Interior,
				Src: pair[0], Dst: pair[1],
				CapacityMbps: cfg.CapacityMbps, Metric: metric,
			})
		}
		have[edge{a, b}] = true
		have[edge{b, a}] = true
	}
	// Tour in angular order around the centroid: a planar-looking ring.
	var cx, cy float64
	for i := 0; i < np; i++ {
		cx += xs[i] / float64(np)
		cy += ys[i] / float64(np)
	}
	order := make([]int, np)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		return math.Atan2(ys[order[a]]-cy, xs[order[a]]-cx) < math.Atan2(ys[order[b]]-cy, xs[order[b]]-cx)
	})
	for i := 0; i < np; i++ {
		addAdjacency(order[i], order[(i+1)%np])
	}
	// Random chords, preferring low-index ("large") PoPs so the generated
	// backbone is densest around major cities, like a real one.
	for added := np; added < cfg.UndirectedEdges; {
		a := pickSkewed(rng, np)
		b := pickSkewed(rng, np)
		if a == b || have[edge{a, b}] {
			continue
		}
		addAdjacency(a, b)
		added++
	}
	// Access links.
	for i := range net.PoPs {
		net.Links = append(net.Links, Link{
			ID: len(net.Links), Kind: Ingress, Src: i, Dst: net.HeadEnd(i),
			CapacityMbps: cfg.AccessCapacity, Metric: 0,
		})
		net.Links = append(net.Links, Link{
			ID: len(net.Links), Kind: Egress, Src: net.HeadEnd(i), Dst: i,
			CapacityMbps: cfg.AccessCapacity, Metric: 0,
		})
	}
	if err := net.validate(); err != nil {
		return nil, err
	}
	return net, nil
}

// pickSkewed draws a PoP index with probability decreasing in the index,
// so low indices (major cities) get more chords.
func pickSkewed(rng *rand.Rand, n int) int {
	// Squaring a uniform variate biases toward 0.
	u := rng.Float64()
	return int(u * u * float64(n))
}

// QuantizeMetrics returns a copy of the network with every interior link
// metric rounded up to a multiple of step. Coarse metric grids are common
// in practice (operators assign small-integer IGP weights) and create
// equal-cost ties, which is what makes ECMP splitting actually occur.
func QuantizeMetrics(net *Network, step float64) *Network {
	if step <= 0 {
		panic("topology: QuantizeMetrics needs positive step")
	}
	c := &Network{Name: net.Name}
	c.PoPs = make([]PoP, len(net.PoPs))
	for i, p := range net.PoPs {
		c.PoPs[i] = p
		c.PoPs[i].Routers = append([]int(nil), p.Routers...)
	}
	c.Routers = append([]Router(nil), net.Routers...)
	c.Links = append([]Link(nil), net.Links...)
	for i := range c.Links {
		if c.Links[i].Kind == Interior {
			c.Links[i].Metric = math.Ceil(c.Links[i].Metric/step) * step
		}
	}
	if err := c.validate(); err != nil {
		panic(err) // metric changes cannot invalidate the structure
	}
	return c
}

// RemoveAdjacency returns a copy of the network with the given interior
// link and its reverse direction removed — the basic move of failure
// analysis. Link IDs are re-assigned contiguously in the copy.
func RemoveAdjacency(net *Network, linkID int) *Network {
	failed := net.Links[linkID]
	c := &Network{Name: net.Name}
	c.PoPs = make([]PoP, len(net.PoPs))
	for i, p := range net.PoPs {
		c.PoPs[i] = p
		c.PoPs[i].Routers = append([]int(nil), p.Routers...)
	}
	c.Routers = append([]Router(nil), net.Routers...)
	for _, l := range net.Links {
		if l.Kind == Interior &&
			((l.Src == failed.Src && l.Dst == failed.Dst) ||
				(l.Src == failed.Dst && l.Dst == failed.Src)) {
			continue
		}
		l.ID = len(c.Links)
		c.Links = append(c.Links, l)
	}
	if err := c.validate(); err != nil {
		panic(err) // removal cannot invalidate PoPs or routers
	}
	return c
}
