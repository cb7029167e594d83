package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httputil"
	"sort"
	"strings"
	"sync"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/obs"
)

// proxyTargetKey carries the resolved owner through the request
// context into the reverse proxy's Director.
type proxyTargetKey struct{}

// Coordinator is the cluster's HTTP front door: /v1/tenants aggregates
// every member node, and tenant-scoped reads are proxied to the owning
// node with the v1 error envelope and the ETag/delta/SSE semantics
// passing through unchanged — a client cannot tell a coordinator from
// a node except by the extra rows in the listing and the X-Tenant-Node
// header naming who actually answered.
type Coordinator struct {
	c       *cluster.Coordinator
	client  *http.Client
	proxy   *httputil.ReverseProxy
	metrics *obs.Registry
}

// NewCoordinator builds the front door over a cluster coordinator.
// client is used for the fan-out listing; nil selects
// http.DefaultClient.
func NewCoordinator(c *cluster.Coordinator, client *http.Client) *Coordinator {
	if client == nil {
		client = http.DefaultClient
	}
	co := &Coordinator{c: c, client: client, metrics: obs.NewRegistry()}
	RegisterCoordinatorMetrics(co.metrics, c.Report)
	co.proxy = &httputil.ReverseProxy{
		Director: func(r *http.Request) {
			addr := r.Context().Value(proxyTargetKey{}).(string)
			r.URL.Scheme = "http"
			r.URL.Host = addr
		},
		// Flush immediately: SSE streams must not sit in a proxy buffer.
		FlushInterval: -1,
		ErrorHandler: func(w http.ResponseWriter, r *http.Request, err error) {
			writeV1Error(w, http.StatusBadGateway, "node_unreachable", err.Error())
		},
	}
	return co
}

// Handler builds the coordinator mux over the route table in Routes.
// Its one {name} row proxies every tenant path whatever the method: the
// owner's row checks it, so a wrong method gets the owner's 405 with
// X-Tenant-Node, and an unknown tenant still gets 404 unknown_tenant.
func (co *Coordinator) Handler() http.Handler {
	return mount(co.Routes(), func(w http.ResponseWriter, r *http.Request, rows []Route) {
		rows[0].serve(w, r, nil)
	})
}

// RegisterCoordinatorMetrics declares the coordinator's per-node
// telemetry families on reg, collected from the cluster report each
// scrape: health, cumulative probe failures, and the proxied-request
// counter. Exported (with the report function as a seam) so the doc
// drift gate can enumerate the coordinator's families without standing
// up a cluster.
func RegisterCoordinatorMetrics(reg *obs.Registry, report func() []cluster.NodeReport) {
	node := []string{"node"}
	each := func(emit obs.Emit, field func(n cluster.NodeReport) float64) {
		for _, n := range report() {
			emit(field(n), n.Name)
		}
	}
	reg.GaugeFunc("tm_node_healthy", "1 while the member node passes health probes, else 0.", node,
		func(emit obs.Emit) {
			each(emit, func(n cluster.NodeReport) float64 { return boolSample(n.Healthy) })
		})
	reg.GaugeFunc("tm_node_tenants", "Tenants currently routed to the member node.", node,
		func(emit obs.Emit) {
			each(emit, func(n cluster.NodeReport) float64 { return float64(len(n.Tenants)) })
		})
	reg.CounterFunc("tm_node_probe_failures_total", "Failed health probes against the member node since coordinator boot.", node,
		func(emit obs.Emit) {
			each(emit, func(n cluster.NodeReport) float64 { return float64(n.ProbeFailures) })
		})
	reg.CounterFunc("tm_node_proxied_total", "Tenant-scoped requests proxied to the member node.", node,
		func(emit obs.Emit) {
			each(emit, func(n cluster.NodeReport) float64 { return float64(n.Proxied) })
		})
}

func boolSample(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (co *Coordinator) handleHealthz(w http.ResponseWriter, r *http.Request) {
	nodes := co.c.Registry().Status()
	ok := true
	for _, n := range nodes {
		if !n.Healthy {
			ok = false
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"ok": ok, "coordinator": true, "nodes": nodes,
	})
}

// handleTenants fans /v1/tenants out to every healthy node in
// parallel and merges the rows, each annotated with the node it came
// from, plus the per-node health/routing report — the fleet-wide view
// one node alone cannot give.
func (co *Coordinator) handleTenants(w http.ResponseWriter, r *http.Request) {
	report := co.c.Report()
	var (
		mu   sync.Mutex
		rows []map[string]any
		wg   sync.WaitGroup
	)
	for _, n := range report {
		if !n.Healthy {
			continue
		}
		wg.Add(1)
		go func(name, addr string) {
			defer wg.Done()
			var listing struct {
				Tenants []map[string]any `json:"tenants"`
			}
			if err := co.getJSON(r.Context(), addr, "/v1/tenants", &listing); err != nil {
				return // the node report already shows its health
			}
			mu.Lock()
			defer mu.Unlock()
			for _, row := range listing.Tenants {
				row["node"] = name
				rows = append(rows, row)
			}
		}(n.Name, n.Addr)
	}
	wg.Wait()
	sort.Slice(rows, func(i, j int) bool {
		a, _ := rows[i]["name"].(string)
		b, _ := rows[j]["name"].(string)
		return a < b
	})
	writeJSON(w, http.StatusOK, map[string]any{
		"coordinator": true,
		"nodes":       report,
		"tenants":     rows,
	})
}

func (co *Coordinator) getJSON(ctx context.Context, addr, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+path, nil)
	if err != nil {
		return err
	}
	resp, err := co.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s%s: %s", addr, path, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// proxyTenant proxies one tenant-scoped read to its owning node.
func (co *Coordinator) proxyTenant(w http.ResponseWriter, r *http.Request) {
	name, _, _ := strings.Cut(strings.TrimPrefix(r.URL.Path, tenantPrefix), "/")
	node, err := co.c.Route(name)
	if err != nil {
		switch {
		case errors.Is(err, fleet.ErrUnknownTenant):
			writeV1Error(w, http.StatusNotFound, "unknown_tenant",
				fmt.Sprintf("unknown tenant %q (see /v1/tenants)", name))
		case errors.Is(err, cluster.ErrNodeDown):
			// The owner is failing probes; failover is at most one probe
			// sweep away, so tell the client when to come back.
			w.Header().Set("Retry-After", "1")
			writeV1Error(w, http.StatusServiceUnavailable, "node_down", err.Error())
		default:
			writeV1Error(w, http.StatusInternalServerError, "routing_failed", err.Error())
		}
		return
	}
	w.Header().Set("X-Tenant-Node", node.Name)
	co.c.CountProxied(node.Name)
	ctx := context.WithValue(r.Context(), proxyTargetKey{}, node.Addr)
	co.proxy.ServeHTTP(w, r.WithContext(ctx))
}

// handleMigrate is the coordinator's admin route: POST
// /v1/cluster/migrate?tenant=X&to=node moves a tenant by checkpoint
// handoff.
func (co *Coordinator) handleMigrate(w http.ResponseWriter, r *http.Request) {
	tenant, to := r.URL.Query().Get("tenant"), r.URL.Query().Get("to")
	if tenant == "" || to == "" {
		writeV1Error(w, http.StatusBadRequest, "bad_request", "migrate needs ?tenant=<name>&to=<node>")
		return
	}
	if err := co.c.Migrate(r.Context(), tenant, to); err != nil {
		code, errCode := http.StatusBadGateway, "migrate_failed"
		switch {
		case errors.Is(err, fleet.ErrUnknownTenant):
			code, errCode = http.StatusNotFound, "unknown_tenant"
		case errors.Is(err, fleet.ErrAlreadyHosted):
			code, errCode = http.StatusConflict, "already_hosted"
		case errors.Is(err, cluster.ErrNodeDown):
			code, errCode = http.StatusServiceUnavailable, "node_down"
		}
		writeV1Error(w, code, errCode, err.Error())
		return
	}
	owner, _ := co.c.Owner(tenant)
	writeJSON(w, http.StatusOK, map[string]any{"migrated": tenant, "node": owner})
}
