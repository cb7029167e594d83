package solver

import (
	"repro/internal/linalg"
)

// Workspace holds the scratch state of the iterative solvers — gradient,
// residual, momentum and power-iteration buffers plus a cached operator
// norm — so a caller that solves a sequence of related problems (the
// streaming re-solve loop of internal/stream, the pseudo-EM rounds of
// core.Cao) allocates them once instead of once per solve.
//
// A Workspace is owned by one solving goroutine at a time; it is not
// safe for concurrent use. Buffers are sized lazily on first use and
// resized when a larger problem arrives, so one workspace may serve
// differently sized systems back to back. The zero value is ready to
// use; every solver also accepts a nil workspace and then uses a fresh
// one.
//
// Numerical contract: a workspace changes where intermediate values are
// stored and whether the operator norm is recomputed — never the
// arithmetic — so solutions are bit-identical whether the workspace is
// fresh or reused.
type Workspace struct {
	r     linalg.Vector // residual, sized to the operator's row count
	g     linalg.Vector // gradient, sized to the column count
	y     linalg.Vector // FISTA momentum iterate
	xPrev linalg.Vector // FISTA's previous iterate, for the stopping rule

	px, py, pz linalg.Vector // power-iteration scratch

	// Cached ‖A‖₂² keyed by operator identity: re-solving against the
	// same routing matrix skips the 60-iteration power method entirely,
	// and returns the exact float the first call computed.
	op   LinOp
	opSq float64
}

// OperatorNormSq estimates ‖a‖₂² by power iteration (operatorNormSq),
// reusing the workspace's power-iteration buffers and caching the
// result per operator identity: repeated calls against the same LinOp
// value return the first call's float without re-running the power
// method.
func (ws *Workspace) OperatorNormSq(a LinOp) float64 {
	if ws.op == a {
		return ws.opSq
	}
	sq := operatorNormSq(a, linalg.Grow(&ws.px, a.Cols()), linalg.Grow(&ws.py, a.Rows()), linalg.Grow(&ws.pz, a.Cols()))
	ws.op, ws.opSq = a, sq
	return sq
}
