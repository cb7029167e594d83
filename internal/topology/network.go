// Package topology models the backbone network: PoPs, routers, directed
// links, shortest-path and ECMP path computation and the construction of
// the routing matrix R of equation (1) in the paper.
//
// The paper's data comes from Global Crossing's MPLS backbone, where a full
// mesh of LSPs connects the core routers and each LSP's path is computed by
// constraint-based shortest-path-first (CSPF). The paper itself reproduced
// those paths with an off-line routing simulation (Cariden MATE); this
// package plays that role here. At the backbone's low LSP reservations no
// capacity constraint binds, so CSPF reduces to the metric-shortest path.
package topology

import (
	"fmt"
)

// LinkKind distinguishes interior backbone links from the access links over
// which traffic enters and leaves the network (the e(n) and x(m) links of
// the paper's notation).
type LinkKind int

const (
	// Interior links connect core routers.
	Interior LinkKind = iota
	// Ingress is the access link over which all traffic sourced at a PoP
	// enters the network: t_{e(n)}.
	Ingress
	// Egress is the access link over which all traffic destined to a PoP
	// leaves the network: t_{x(m)}.
	Egress
)

func (k LinkKind) String() string {
	switch k {
	case Interior:
		return "interior"
	case Ingress:
		return "ingress"
	case Egress:
		return "egress"
	default:
		return fmt.Sprintf("LinkKind(%d)", int(k))
	}
}

// PoP is a point of presence: one or more co-located core routers in a city.
type PoP struct {
	ID      int
	Name    string
	Routers []int // router IDs, first is the LSP head-end
}

// Router is a core router.
type Router struct {
	ID   int
	PoP  int
	Name string
}

// Link is a directed router-to-router link (Interior) or a PoP access link
// (Ingress/Egress, with the external side implicit).
type Link struct {
	ID           int
	Kind         LinkKind
	Src, Dst     int     // router IDs for Interior; PoP ID in Src for Ingress / Dst for Egress
	CapacityMbps float64 // link capacity
	Metric       float64 // IGP metric, the path length
}

// Network is an immutable backbone description.
type Network struct {
	Name    string
	PoPs    []PoP
	Routers []Router
	Links   []Link

	outLinks [][]int // router -> outgoing Interior link IDs
}

// FromParts assembles and validates a Network from previously serialized
// pieces (see netsim's scenario files).
func FromParts(name string, pops []PoP, routers []Router, links []Link) (*Network, error) {
	n := &Network{Name: name, PoPs: pops, Routers: routers, Links: links}
	if err := n.validate(); err != nil {
		return nil, err
	}
	return n, nil
}

// NumPoPs returns the number of PoPs.
func (n *Network) NumPoPs() int { return len(n.PoPs) }

// NumPairs returns the number of ordered PoP pairs P = N·(N−1).
func (n *Network) NumPairs() int { return len(n.PoPs) * (len(n.PoPs) - 1) }

// NumLinks returns the total number of links, access links included.
func (n *Network) NumLinks() int { return len(n.Links) }

// InteriorLinks returns the number of Interior links.
func (n *Network) InteriorLinks() int {
	c := 0
	for _, l := range n.Links {
		if l.Kind == Interior {
			c++
		}
	}
	return c
}

// PairIndex maps an ordered PoP pair (src, dst), src != dst, to its demand
// index p in 0..P-1. The enumeration is row-major with the diagonal removed.
func (n *Network) PairIndex(src, dst int) int {
	if src == dst {
		panic("topology: PairIndex of diagonal")
	}
	d := dst
	if dst > src {
		d--
	}
	return src*(len(n.PoPs)-1) + d
}

// PairFromIndex is the inverse of PairIndex.
func (n *Network) PairFromIndex(p int) (src, dst int) {
	nm1 := len(n.PoPs) - 1
	src = p / nm1
	d := p % nm1
	dst = d
	if d >= src {
		dst = d + 1
	}
	return src, dst
}

// HeadEnd returns the LSP head-end router of PoP n.
func (n *Network) HeadEnd(pop int) int { return n.PoPs[pop].Routers[0] }

// validate wires derived structures and sanity-checks the definition.
func (n *Network) validate() error {
	n.outLinks = make([][]int, len(n.Routers))
	for _, l := range n.Links {
		switch l.Kind {
		case Interior:
			if l.Src < 0 || l.Src >= len(n.Routers) || l.Dst < 0 || l.Dst >= len(n.Routers) {
				return fmt.Errorf("topology: link %d endpoints out of range", l.ID)
			}
			if l.Src == l.Dst {
				return fmt.Errorf("topology: link %d is a self-loop", l.ID)
			}
			n.outLinks[l.Src] = append(n.outLinks[l.Src], l.ID)
		case Ingress:
			if l.Src < 0 || l.Src >= len(n.PoPs) {
				return fmt.Errorf("topology: ingress link %d PoP out of range", l.ID)
			}
		case Egress:
			if l.Dst < 0 || l.Dst >= len(n.PoPs) {
				return fmt.Errorf("topology: egress link %d PoP out of range", l.ID)
			}
		}
	}
	for i, r := range n.Routers {
		if r.ID != i {
			return fmt.Errorf("topology: router %d has ID %d", i, r.ID)
		}
		if r.PoP < 0 || r.PoP >= len(n.PoPs) {
			return fmt.Errorf("topology: router %d PoP out of range", i)
		}
	}
	for i, l := range n.Links {
		if l.ID != i {
			return fmt.Errorf("topology: link %d has ID %d", i, l.ID)
		}
	}
	for i, p := range n.PoPs {
		if p.ID != i {
			return fmt.Errorf("topology: PoP %d has ID %d", i, p.ID)
		}
		if len(p.Routers) == 0 {
			return fmt.Errorf("topology: PoP %q has no routers", p.Name)
		}
		for _, r := range p.Routers {
			if r < 0 || r >= len(n.Routers) || n.Routers[r].PoP != i {
				return fmt.Errorf("topology: PoP %q router list inconsistent", p.Name)
			}
		}
	}
	return nil
}
