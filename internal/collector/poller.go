package collector

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// RateRecord is one rate measurement shipped from a poller to the central
// store: the average rate of one LSP over one polling interval, already
// adjusted for the actual spacing between the two counter reads (§5.1.2 —
// "the corresponding utilization rate data is adjusted for the length of
// the real measurement interval").
type RateRecord struct {
	LSP      int     `json:"lsp"`
	Interval int     `json:"interval"` // nominal interval index
	RateMbps float64 `json:"rate_mbps"`
	Poller   string  `json:"poller"`
}

// PollerConfig configures a Poller.
type PollerConfig struct {
	Name          string
	StepMinutes   float64       // nominal polling period in simulated minutes
	Retries       int           // per-poll retry attempts after a loss
	Timeout       time.Duration // wall-clock wait per attempt
	BatchSize     int           // LSP IDs per request datagram
	TotalLSPRange int           // upper bound of LSP id space
}

// Poller polls a set of agents every StepMinutes of simulated time,
// converts counter deltas to rates, and uploads them to the store over TCP.
type Poller struct {
	cfg    PollerConfig
	clock  *Clock
	agents []*net.UDPAddr // primary assignment
	seq    atomic.Uint64

	mu       sync.Mutex
	lastSeen map[int]counterSample // per LSP
}

type counterSample struct {
	bytes   uint64
	simTime float64
}

// NewPoller creates a poller for the given agent addresses.
func NewPoller(cfg PollerConfig, clock *Clock, agents []*net.UDPAddr) *Poller {
	if cfg.BatchSize <= 0 {
		cfg.BatchSize = 256
	}
	if cfg.Retries <= 0 {
		cfg.Retries = 2
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 250 * time.Millisecond
	}
	return &Poller{cfg: cfg, clock: clock, agents: agents, lastSeen: make(map[int]counterSample)}
}

// pollAgent walks one agent's full LSP table once and returns its samples.
func (p *Poller) pollAgent(addr *net.UDPAddr) (map[int]counterSample, error) {
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, fmt.Errorf("collector: dial agent: %w", err)
	}
	defer conn.Close()
	out := make(map[int]counterSample)
	buf := make([]byte, 256*1024)
	for from := 0; from < p.cfg.TotalLSPRange; from += p.cfg.BatchSize {
		req := pollRequest{
			Seq:     p.seq.Add(1),
			FromLSP: from,
			ToLSP:   from + p.cfg.BatchSize,
		}
		payload, err := json.Marshal(req)
		if err != nil {
			return nil, fmt.Errorf("collector: marshal request: %w", err)
		}
		var resp *pollResponse
		for attempt := 0; attempt <= p.cfg.Retries; attempt++ {
			if _, err := conn.Write(payload); err != nil {
				return nil, fmt.Errorf("collector: send poll: %w", err)
			}
			if err := conn.SetReadDeadline(time.Now().Add(p.cfg.Timeout)); err != nil {
				return nil, err
			}
			n, err := conn.Read(buf)
			if err != nil {
				continue // timeout: retry
			}
			var r pollResponse
			if err := json.Unmarshal(buf[:n], &r); err != nil {
				continue
			}
			if r.Seq != req.Seq {
				continue // stale reply from an earlier retry
			}
			resp = &r
			break
		}
		if resp == nil {
			continue // this batch is lost for this cycle; rates resync next poll
		}
		for k, v := range resp.Counters {
			var lsp int
			if _, err := fmt.Sscanf(k, "%d", &lsp); err != nil {
				continue
			}
			out[lsp] = counterSample{bytes: v, simTime: resp.SimTime}
		}
	}
	return out, nil
}

// CollectContext runs `cycles` polling rounds against all assigned agents
// and streams rate records to sink. The first round only primes the
// counters (a rate needs two reads). sink is called from the polling
// goroutine. It stops between polling rounds (and between waits for the
// next nominal timestamp) once ctx is done, returning ctx.Err(). A round
// that has already started polling finishes first, so the store never
// sees a half-reported cycle from this poller.
func (p *Poller) CollectContext(ctx context.Context, cycles int, sink func(RateRecord)) error {
	for cycle := 0; cycle < cycles; cycle++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		target := float64(cycle) * p.cfg.StepMinutes
		// Wait for the nominal timestamp (fixed timestamps as in §5.1.2).
		for p.clock.Now() < target {
			if err := ctx.Err(); err != nil {
				return err
			}
			p.clock.SleepSim(p.cfg.StepMinutes / 50)
		}
		// Poll all assigned agents concurrently so the whole round completes
		// as close to the nominal timestamp as possible.
		var wg sync.WaitGroup
		results := make([]map[int]counterSample, len(p.agents))
		errs := make([]error, len(p.agents))
		for i, addr := range p.agents {
			wg.Add(1)
			go func(i int, addr *net.UDPAddr) {
				defer wg.Done()
				results[i], errs[i] = p.pollAgent(addr)
			}(i, addr)
		}
		wg.Wait()
		for i, samples := range results {
			if errs[i] != nil {
				return errs[i]
			}
			p.mu.Lock()
			for lsp, s := range samples {
				if prev, ok := p.lastSeen[lsp]; ok && s.simTime > prev.simTime {
					// Rate adjustment: divide by the *actual* spacing of the
					// two reads, not the nominal step.
					minutes := s.simTime - prev.simTime
					bits := float64(s.bytes-prev.bytes) * 8
					rate := bits / (minutes * 60) / 1e6 // Mbps
					interval := int(prev.simTime/p.cfg.StepMinutes + 0.5)
					sink(RateRecord{LSP: lsp, Interval: interval, RateMbps: rate, Poller: p.cfg.Name})
				}
				p.lastSeen[lsp] = s
			}
			p.mu.Unlock()
		}
	}
	return nil
}
