package serve

import (
	"fmt"
	"net/http"
	"strings"

	"repro/internal/fleet"
)

// Route is one row of an HTTP surface: the method and path pattern a
// Server or Coordinator answers, and the handler that answers it. Each mode's Handler mounts its own table, so a row is what
// serves its path: a path no row names answers 404. docs/API.md is
// drift-tested against both tables.
type Route struct {
	Method  string
	Pattern string // {name} marks the tenant path segment
	// ClusterOnly rows are mounted only on cluster member nodes
	// (Options.Node set): the checkpoint-handoff admin surface.
	ClusterOnly bool

	// serve answers the route once the method is checked; t is the
	// tenant a node's {name} row was reached for, nil on every other
	// row.
	serve func(w http.ResponseWriter, r *http.Request, t fleet.Handle)
}

const (
	tenantPrefix  = "/v1/t/"
	tenantRow     = tenantPrefix + "{name}/"
	clusterPrefix = "/v1/cluster/"
)

// plain adapts a handler that reads no tenant to a Route's serve.
func plain(h http.HandlerFunc) func(http.ResponseWriter, *http.Request, fleet.Handle) {
	return func(w http.ResponseWriter, r *http.Request, _ fleet.Handle) { h(w, r) }
}

// Routes returns the server's route table, cluster-only rows included.
func (s *Server) Routes() []Route {
	return []Route{
		{Method: "GET", Pattern: "/v1/tenants", serve: plain(s.handleV1Tenants)},
		{Method: "GET", Pattern: "/v1/t/{name}/checkpoint", ClusterOnly: true, serve: s.serveCheckpoint},
		{Method: "POST", Pattern: "/v1/cluster/adopt", ClusterOnly: true, serve: plain(s.handleAdopt)},
		{Method: "GET", Pattern: "/v1/t/{name}/snapshot",
			serve: func(w http.ResponseWriter, r *http.Request, t fleet.Handle) {
				s.serveV1Snapshot(w, r, s.hubFor(t))
			}},
		{Method: "GET", Pattern: "/v1/t/{name}/events",
			serve: func(w http.ResponseWriter, r *http.Request, t fleet.Handle) {
				s.serveV1Events(w, r, s.hubFor(t))
			}},
		{Method: "GET", Pattern: "/v1/t/{name}/metrics",
			serve: func(w http.ResponseWriter, _ *http.Request, t fleet.Handle) {
				writeTenantMetrics(w, t)
			}},
		{Method: "GET", Pattern: "/metrics/prom", serve: plain(s.metrics.Handler().ServeHTTP)},
		{Method: "GET", Pattern: "/healthz", serve: plain(s.handleHealthz)},
	}
}

// Routes returns the route table of coordinator mode — the cluster's
// front door. Tenant-scoped requests are not answered locally: every
// path under /v1/t/{name}/ is proxied to the owning node whatever its
// method, with the error envelope and ETag/delta/SSE semantics passing
// through unchanged and the X-Tenant-Node header naming the owner.
func (co *Coordinator) Routes() []Route {
	return []Route{
		{Method: "GET", Pattern: "/v1/tenants", serve: plain(co.handleTenants)},
		{Method: "GET", Pattern: "/v1/t/{name}/{endpoint}", serve: plain(co.proxyTenant)},
		{Method: "GET", Pattern: "/metrics/prom", serve: plain(co.metrics.Handler().ServeHTTP)},
		{Method: "POST", Pattern: "/v1/cluster/migrate", serve: plain(co.handleMigrate)},
		{Method: "GET", Pattern: "/healthz", serve: plain(co.handleHealthz)},
	}
}

// handle answers a request for the row: the method check every row
// shares (a GET row answers HEAD too), then its handler.
func (rt Route) handle(w http.ResponseWriter, r *http.Request, t fleet.Handle) {
	if r.Method != rt.Method && !(rt.Method == http.MethodGet && r.Method == http.MethodHead) {
		allow := rt.Method
		if allow == http.MethodGet {
			allow = "GET, HEAD"
		}
		w.Header().Set("Allow", allow)
		writeV1Error(w, http.StatusMethodNotAllowed, "method_not_allowed", "use "+rt.Method)
		return
	}
	rt.serve(w, r, t)
}

// mount builds the mux over a route table. A fixed pattern is mounted as
// it stands, and the rest of the /v1/cluster/ prefix answers 404
// unknown_endpoint once a row lives there. The {name} rows share the
// /v1/t/ prefix, which tenant answers from them: wildcard patterns need
// Go 1.22's mux, and the module holds a go 1.21 floor because the frozen
// bench/go.mod says go 1.21 (a 1.22 go.mod here makes `go -C bench
// build` fail with "updates to go.mod needed"), so the prefix is split
// by hand.
func mount(rows []Route, tenant func(w http.ResponseWriter, r *http.Request, rows []Route)) *http.ServeMux {
	mux := http.NewServeMux()
	var tenantRows []Route
	var ops []string
	for _, rt := range rows {
		rt := rt
		if strings.HasPrefix(rt.Pattern, tenantPrefix) {
			tenantRows = append(tenantRows, rt)
			continue
		}
		mux.HandleFunc(rt.Pattern, func(w http.ResponseWriter, r *http.Request) { rt.handle(w, r, nil) })
		if op, ok := strings.CutPrefix(rt.Pattern, clusterPrefix); ok {
			ops = append(ops, op)
		}
	}
	if len(tenantRows) > 0 {
		mux.HandleFunc(tenantPrefix, func(w http.ResponseWriter, r *http.Request) { tenant(w, r, tenantRows) })
	}
	if len(ops) > 0 {
		mux.HandleFunc(clusterPrefix, func(w http.ResponseWriter, r *http.Request) {
			writeV1Error(w, http.StatusNotFound, "unknown_endpoint", fmt.Sprintf("unknown cluster endpoint %q (%s)",
				strings.TrimPrefix(r.URL.Path, clusterPrefix), strings.Join(ops, ", ")))
		})
	}
	return mux
}

// serveTenant answers /v1/t/{name}/{endpoint} on a node: it resolves the
// tenant, names this node on the response in cluster mode, and hands the
// request to the row the endpoint names.
func (s *Server) serveTenant(w http.ResponseWriter, r *http.Request, rows []Route) {
	name, endpoint, ok := strings.Cut(strings.TrimPrefix(r.URL.Path, tenantPrefix), "/")
	if !ok {
		writeV1Error(w, http.StatusNotFound, "missing_endpoint",
			fmt.Sprintf("missing endpoint: /v1/t/%s/{snapshot|events|metrics}", name))
		return
	}
	t, have := s.f.Handle(name)
	if !have {
		writeV1Error(w, http.StatusNotFound, "unknown_tenant",
			fmt.Sprintf("unknown tenant %q (see /v1/tenants)", name))
		return
	}
	if s.opts.Node != nil {
		// In cluster mode every tenant-scoped response names its serving
		// node, whether reached directly or through the coordinator proxy.
		w.Header().Set("X-Tenant-Node", s.opts.Node.NodeName())
	}
	for _, rt := range rows {
		if strings.TrimPrefix(rt.Pattern, tenantRow) == endpoint {
			rt.handle(w, r, t)
			return
		}
	}
	writeV1Error(w, http.StatusNotFound, "unknown_endpoint",
		fmt.Sprintf("unknown endpoint %q (snapshot, events or metrics)", endpoint))
}
