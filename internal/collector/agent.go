// Package collector simulates the paper's measurement infrastructure
// (§5.1.2) over real sockets: router agents expose per-LSP byte counters
// over UDP (standing in for SNMP, which also runs over UDP and shares its
// loss semantics), geographically distributed pollers query them at fixed
// intervals and adjust rates for the actual inter-poll spacing, and a
// central store ingests the rate records over TCP (a reliable transport,
// as in the paper).
//
// Time is simulated: a Clock maps wall time to measurement time at a
// configurable speedup so a 24-hour collection run takes milliseconds per
// interval in tests. Counters are derived from a traffic.Series, so the
// collected traffic matrix can be compared interval-by-interval with the
// ground truth.
package collector

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"
)

// Clock converts wall-clock time to simulation minutes at a fixed speedup.
type Clock struct {
	start   time.Time
	speedup float64 // simulated minutes per wall millisecond
}

// NewClock starts a simulation clock. minutesPerMilli is how many simulated
// minutes elapse per wall-clock millisecond.
func NewClock(minutesPerMilli float64) *Clock {
	return &Clock{start: time.Now(), speedup: minutesPerMilli}
}

// Now returns the current simulation time in minutes.
func (c *Clock) Now() float64 {
	return float64(time.Since(c.start).Microseconds()) / 1000 * c.speedup
}

// SleepSim blocks until the given number of simulated minutes has passed.
func (c *Clock) SleepSim(minutes float64) {
	time.Sleep(time.Duration(minutes / c.speedup * float64(time.Millisecond)))
}

// CounterSource provides cumulative per-LSP byte counters at a given
// simulation time. SeriesCounters adapts a traffic.Series.
type CounterSource interface {
	// BytesAt returns the cumulative bytes carried by LSP (pair) p from
	// simulation time 0 to simMinutes.
	BytesAt(p int, simMinutes float64) uint64
	// NumLSPs returns the number of LSPs.
	NumLSPs() int
}

// pollRequest is the UDP query datagram: a poll of all LSPs in the given
// half-open ID range (a full-table walk splits into ranged GetBulk-style
// requests exactly like SNMP pollers do).
type pollRequest struct {
	Seq      uint64 `json:"seq"`
	FromLSP  int    `json:"from"`
	ToLSP    int    `json:"to"`
	RouterID int    `json:"router"`
}

// pollResponse is the UDP reply.
type pollResponse struct {
	Seq      uint64            `json:"seq"`
	RouterID int               `json:"router"`
	SimTime  float64           `json:"sim_time"` // simulation minutes at counter read
	Counters map[string]uint64 `json:"counters"` // LSP id (decimal) -> cumulative bytes
}

// Agent is a simulated router: it owns a contiguous set of LSP head-ends
// and answers counter polls over UDP. A seeded drop probability simulates
// the unreliability the paper's distributed poller design defends against.
type Agent struct {
	RouterID int
	lsps     []int // LSP (pair) IDs head-ended at this router
	src      CounterSource
	clock    *Clock
	dropProb float64
	rng      *rand.Rand
	rngMu    sync.Mutex

	conn *net.UDPConn
	wg   sync.WaitGroup
}

// NewAgent creates an agent for the given router serving the listed LSPs.
func NewAgent(routerID int, lsps []int, src CounterSource, clock *Clock, dropProb float64, seed int64) *Agent {
	return &Agent{
		RouterID: routerID, lsps: lsps, src: src, clock: clock,
		dropProb: dropProb, rng: rand.New(rand.NewSource(seed)),
	}
}

// Start begins serving on an ephemeral UDP port on the loopback interface
// and returns the bound address.
func (a *Agent) Start() (*net.UDPAddr, error) {
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return nil, fmt.Errorf("collector: agent %d listen: %w", a.RouterID, err)
	}
	a.conn = conn
	a.wg.Add(1)
	go a.serve()
	return conn.LocalAddr().(*net.UDPAddr), nil
}

// Stop shuts the agent down and waits for its serve loop to exit.
func (a *Agent) Stop() {
	if a.conn != nil {
		a.conn.Close()
	}
	a.wg.Wait()
}

func (a *Agent) serve() {
	defer a.wg.Done()
	buf := make([]byte, 64*1024)
	for {
		n, addr, err := a.conn.ReadFromUDP(buf)
		if err != nil {
			return // closed
		}
		var req pollRequest
		if err := json.Unmarshal(buf[:n], &req); err != nil {
			continue // malformed datagram; drop like a real agent would
		}
		a.rngMu.Lock()
		drop := a.rng.Float64() < a.dropProb
		a.rngMu.Unlock()
		if drop {
			continue // simulated UDP loss
		}
		now := a.clock.Now()
		resp := pollResponse{Seq: req.Seq, RouterID: a.RouterID, SimTime: now,
			Counters: make(map[string]uint64)}
		for _, p := range a.lsps {
			if p >= req.FromLSP && p < req.ToLSP {
				resp.Counters[fmt.Sprint(p)] = a.src.BytesAt(p, now)
			}
		}
		out, err := json.Marshal(resp)
		if err != nil {
			continue
		}
		if _, err := a.conn.WriteToUDP(out, addr); err != nil {
			return
		}
	}
}
