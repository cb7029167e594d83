package stream

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/linalg"
	"repro/internal/topology"
)

// pendingSwap is one scheduled routing hot-swap. at is the first
// interval measured under the new routing; epoch is the host-assigned
// tag the engine reports for it (Snapshot.TopologyEpoch).
type pendingSwap struct {
	at    int
	epoch int
	rt    *topology.Routing
}

// SwapRouting schedules a mid-stream routing hot-swap: from interval at
// onward the engine ingests, re-solves and checkpoints against rt,
// tagged as topology epoch. The swap applies lazily when the engine's
// own cursor reaches at (a feed never has to wait for consumption to
// catch up before announcing a topology change); at <= the current
// cursor applies immediately — in particular at 0 before Run, which is
// how a restored tenant is moved onto its checkpointed epoch.
//
// An effective swap re-expands the window: every ring interval's link
// loads are recomputed under rt (the collected demand vectors are
// routing-independent), and the warm-start iterate is remapped by
// iterative proportional fitting onto the window's per-PoP traffic
// totals instead of being thrown away — the post-reroute re-solve
// starts from the traffic matrix the engine already believed in,
// rescaled to be consistent with the new access rows, rather than from
// cold. A swap to a routing whose matrix is
// identical to the active one is a complete no-op (no epoch change, no
// state touched), so repeated announcements are harmless.
//
// The new routing must pose the same estimation problem: same PoP set,
// hence same demand dimension. Swaps must be scheduled in increasing
// interval order with increasing epoch tags.
func (e *Engine) SwapRouting(rt *topology.Routing, epoch, at int) error {
	if rt == nil {
		return fmt.Errorf("stream: SwapRouting with nil routing")
	}
	if at < 0 {
		return fmt.Errorf("stream: SwapRouting at negative interval %d", at)
	}
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	if got, want := rt.Net.NumPairs(), e.rt.Net.NumPairs(); got != want {
		return fmt.Errorf("stream: SwapRouting to a %d-pair topology, engine estimates %d pairs", got, want)
	}
	if epoch < e.epoch {
		return fmt.Errorf("stream: SwapRouting to epoch %d behind active epoch %d", epoch, e.epoch)
	}
	if n := len(e.swaps); n > 0 {
		last := e.swaps[n-1]
		if at <= last.at {
			return fmt.Errorf("stream: SwapRouting at interval %d not after already scheduled swap at %d", at, last.at)
		}
		if epoch <= last.epoch {
			return fmt.Errorf("stream: SwapRouting epoch %d not after already scheduled epoch %d", epoch, last.epoch)
		}
	}
	sw := pendingSwap{at: at, epoch: epoch, rt: rt}
	if at <= e.next {
		e.applySwapLocked(sw)
		return nil
	}
	e.swaps = append(e.swaps, sw)
	return nil
}

// TopologyEpoch returns the active topology epoch tag (0 until the
// first effective SwapRouting has applied).
func (e *Engine) TopologyEpoch() int {
	e.stateMu.Lock()
	defer e.stateMu.Unlock()
	return e.epoch
}

// applySwapsLocked applies every scheduled swap due at or before the
// interval about to be consumed or skipped. Callers hold stateMu.
func (e *Engine) applySwapsLocked(interval int) {
	for len(e.swaps) > 0 && e.swaps[0].at <= interval {
		e.applySwapLocked(e.swaps[0])
		e.swaps = e.swaps[1:]
	}
}

// applySwapLocked installs one hot-swap: recompute the window's link
// loads under the new routing, remap the warm-start iterate, switch the
// active routing and epoch. Callers hold stateMu.
func (e *Engine) applySwapLocked(sw pendingSwap) {
	if sw.rt.R.Equal(e.rt.R) {
		// The "new" matrix is the one already installed: nothing was
		// measured differently, so nothing changes — including the epoch,
		// which keeps the next published snapshot byte-identical to a run
		// that never saw the announcement.
		return
	}
	for i := range e.ring {
		e.ring[i].loads = sw.rt.LinkLoads(e.ring[i].demand)
	}
	if e.warmEst != nil && len(e.ring) > 0 {
		total := demandTotal(e.ring, sw.rt.Net.NumPairs())
		e.warmEst = remapWarm(sw.rt.Net, e.warmEst, total, len(e.ring))
	}
	e.rt = sw.rt
	e.epoch = sw.epoch
}

// remapWarm rescales a warm-start iterate onto the current window's
// per-PoP origin/destination traffic totals by iterative proportional
// fitting (the Kruithof balancing the repo already uses for eq. 5
// refinement). The result is non-negative wherever the input was and
// exactly consistent with the access-link rows of the new routing
// matrix, which read those totals back out. The input vector is never
// mutated — it is shared with the published snapshot.
func remapWarm(net *topology.Network, warm, total linalg.Vector, k int) linalg.Vector {
	n := net.NumPoPs()
	te := linalg.NewVector(n)
	tx := linalg.NewVector(n)
	for p := 0; p < net.NumPairs(); p++ {
		src, dst := net.PairFromIndex(p)
		v := total[p] / float64(k)
		te[src] += v
		tx[dst] += v
	}
	tot := te.Sum()
	if tot <= 0 {
		return warm // an all-zero window pins no margins
	}
	// IPF cannot scale mass into an empty row or column; seed any that
	// carry target traffic with the gravity product so balancing has
	// something to move.
	seeded := warm.Clone()
	rows := linalg.NewVector(n)
	for p, v := range seeded {
		src, _ := net.PairFromIndex(p)
		rows[src] += v
	}
	for p := range seeded {
		if src, dst := net.PairFromIndex(p); te[src] > 0 && rows[src] == 0 {
			seeded[p] = te[src] * tx[dst] / tot
		}
	}
	cols := linalg.NewVector(n)
	for p, v := range seeded {
		_, dst := net.PairFromIndex(p)
		cols[dst] += v
	}
	for p := range seeded {
		if src, dst := net.PairFromIndex(p); tx[dst] > 0 && cols[dst] == 0 {
			seeded[p] = te[src] * tx[dst] / tot
		}
	}
	bal, err := core.KruithofPairs(net, seeded, te, tx, 200, 1e-9)
	if err != nil {
		return warm // keep the old iterate; it is still a usable start
	}
	return bal
}
