package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fleet"
	"repro/internal/leakcheck"
)

// stubNode fakes a cluster member's HTTP surface with canned answers —
// enough for the front door's routing, aggregation and migration paths
// without booting engines.
func stubNode(t *testing.T, name string, adopts *int) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("/v1/tenants", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"tenants": []map[string]any{{"name": "eu", "state": "serving"}},
		})
	})
	mux.HandleFunc("/v1/t/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("X-Tenant-Node", name)
		if strings.HasSuffix(r.URL.Path, "/checkpoint") {
			writeJSON(w, http.StatusOK, map[string]any{"format": 2, "num_pairs": 0, "num_links": 0, "method": "entropy", "ring": []any{}, "next": 0, "consumed": 0, "skipped": 0, "since_resolve": 0, "cur_every": 0, "drift_peak": 0})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"version": 7, "served_by": name})
	})
	mux.HandleFunc("/v1/cluster/adopt", func(w http.ResponseWriter, r *http.Request) {
		*adopts++
		writeJSON(w, http.StatusOK, map[string]any{"adopted": "eu", "node": name})
	})
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func stubConfig(t *testing.T, n1, n2 *httptest.Server) cluster.Config {
	t.Helper()
	cfg := cluster.Config{
		Format:  cluster.ConfigFormat,
		Tenants: []fleet.TenantSpec{{Name: "eu"}},
		Nodes: []cluster.NodeSpec{
			{Name: "n1", Addr: strings.TrimPrefix(n1.URL, "http://")},
			{Name: "n2", Addr: strings.TrimPrefix(n2.URL, "http://")},
		},
		Placement:     map[string]string{"eu": "n1"},
		ProbeFailures: 1,
	}
	return cfg
}

// TestCoordinatorProxyAndAggregate: the front door proxies tenant
// reads to the owner (annotated with X-Tenant-Node), merges the
// listing with node reports, answers the admin surface, and degrades
// to 503/404 when routing cannot resolve.
func TestCoordinatorProxyAndAggregate(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ctx := context.Background()
	adopts1, adopts2 := 0, 0
	n1 := stubNode(t, "n1", &adopts1)
	n2 := stubNode(t, "n2", &adopts2)
	c := cluster.NewCoordinator(stubConfig(t, n1, n2), nil, t.Logf)
	c.Registry().Sweep(ctx)
	handler := NewCoordinator(c, nil).Handler()

	// Proxied read: the owner's body and header pass through untouched.
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/t/eu/snapshot?min_version=2", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Tenant-Node") != "n1" {
		t.Fatalf("proxied: %d via %q", rec.Code, rec.Header().Get("X-Tenant-Node"))
	}
	if !strings.Contains(rec.Body.String(), `"served_by":"n1"`) {
		t.Fatalf("proxied body: %s", rec.Body.String())
	}

	// Unknown tenant keeps the envelope.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/t/ghost/snapshot", nil))
	if rec.Code != http.StatusNotFound || !strings.Contains(rec.Body.String(), "unknown_tenant") {
		t.Fatalf("unknown tenant: %d %s", rec.Code, rec.Body.String())
	}

	// Aggregated listing: node-annotated rows plus per-node reports
	// carrying the proxied counter.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/tenants", nil))
	var listing struct {
		Coordinator bool                 `json:"coordinator"`
		Nodes       []cluster.NodeReport `json:"nodes"`
		Tenants     []struct {
			Name string `json:"name"`
			Node string `json:"node"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &listing); err != nil {
		t.Fatal(err)
	}
	// Both stubs claim eu; the point is the annotation, not dedup.
	if !listing.Coordinator || len(listing.Tenants) != 2 || len(listing.Nodes) != 2 {
		t.Fatalf("listing: %s", rec.Body.String())
	}
	var proxied uint64
	for _, n := range listing.Nodes {
		proxied += n.Proxied
	}
	if proxied != 1 {
		t.Fatalf("proxied counter %d, want 1", proxied)
	}
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/tenants", nil))
	if rec.Code != http.StatusMethodNotAllowed || v1Code(t, rec) != "method_not_allowed" {
		t.Fatalf("POST listing: %d %s", rec.Code, rec.Body.String())
	}

	// A tenant request of any method is proxied: the owner checks the
	// method, and an unknown tenant is still the coordinator's 404.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/t/eu/snapshot", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Tenant-Node") != "n1" {
		t.Fatalf("POST tenant path: %d via %q", rec.Code, rec.Header().Get("X-Tenant-Node"))
	}
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/t/ghost/snapshot", nil))
	if rec.Code != http.StatusNotFound || v1Code(t, rec) != "unknown_tenant" {
		t.Fatalf("POST unknown tenant: %d %s", rec.Code, rec.Body.String())
	}

	// Healthz names the coordinator and its nodes.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), `"coordinator":true`) {
		t.Fatalf("healthz: %d %s", rec.Code, rec.Body.String())
	}

	// Migrate pulls the owner's checkpoint and ships it to the target.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/cluster/migrate?tenant=eu&to=n2", nil))
	if rec.Code != http.StatusOK || adopts2 != 1 {
		t.Fatalf("migrate: %d (target adopts %d) %s", rec.Code, adopts2, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/cluster/migrate?tenant=eu", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("migrate without target: %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/cluster/migrate?tenant=eu&to=n1", nil))
	if rec.Code != http.StatusMethodNotAllowed || v1Code(t, rec) != "method_not_allowed" {
		t.Fatalf("GET migrate: %d %s", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("POST", "/v1/cluster/evict?tenant=eu", nil))
	if rec.Code != http.StatusNotFound || v1Code(t, rec) != "unknown_endpoint" {
		t.Fatalf("unknown admin op: %d %s", rec.Code, rec.Body.String())
	}

	// An owner that dies between probe and request is a 502 from the
	// proxy's error handler; once probes notice, routing answers 503.
	n2.Close()
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/t/eu/snapshot", nil))
	if rec.Code != http.StatusBadGateway || !strings.Contains(rec.Body.String(), "node_unreachable") {
		t.Fatalf("proxy to dead node: %d %s", rec.Code, rec.Body.String())
	}
	c.Registry().Sweep(ctx)
	// Failover has nowhere to go (n1 closed next) — here n2 is the dead
	// one, so eu fails over to... n2 was the owner after migration; the
	// reconcile promotes n1 and reads flow again.
	rec = httptest.NewRecorder()
	handler.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/t/eu/snapshot", nil))
	if rec.Code != http.StatusOK || rec.Header().Get("X-Tenant-Node") != "n1" {
		t.Fatalf("read after failover back: %d via %q", rec.Code, rec.Header().Get("X-Tenant-Node"))
	}
}
