// Package repro is a from-scratch Go reproduction of
//
//	"Traffic Matrix Estimation on a Large IP Backbone — A Comparison on
//	Real Data", Gunnar, Johansson & Telkamp, ACM IMC 2004.
//
// The repository implements the paper's complete system: the
// MPLS/SNMP-style measurement substrate (internal/collector), backbone
// topology and shortest-path routing simulation (internal/topology), a demand
// generator calibrated to the paper's statistical findings
// (internal/traffic), every estimation method the paper evaluates
// (internal/core), the numerical machinery they need — dense/sparse linear
// algebra, a warm-startable simplex LP, FISTA, iterative proportional
// fitting (internal/linalg, internal/sparse, internal/solver) — and one
// experiment driver per table and figure of the evaluation section
// (internal/experiments).
//
// The experiment suite runs on a concurrent execution engine
// (internal/runner): a bounded worker pool sized to the machine schedules
// whole drivers and the sweep loops inside them, while reports are always
// emitted in paper order — so the rendered reports of a parallel run are
// byte-identical to a serial one (tmbench's -quiet flag drops the
// timing lines, which are the only nondeterministic output).
//
// Beyond the batch experiments, internal/stream runs the estimators
// continuously over the collector's poll windows — incremental gravity
// every interval, periodic full re-solves parked latest-wins for the
// engine's host to run, versioned snapshots — and cmd/tmserve serves
// the evolving matrix over HTTP/JSON from a live simulated deployment
// or a deterministic scenario replay.
//
// METHODS.md maps every estimation method of the paper to its entry
// point and the experiments that evaluate it.
//
// Start with examples/quickstart (batch) or examples/streaming (online),
// or run the full evaluation with
//
//	go run ./cmd/tmbench              # all cores
//	go run ./cmd/tmbench -parallel 1  # fully serial, same output
//	go run ./cmd/tmbench -run fig13   # selected experiments
//
// The benchmarks in bench_test.go regenerate every table and figure
// (BENCH_baseline.json pins the checked-in baseline):
//
//	go test -bench=. -benchmem
package repro
