package serve

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/fleet"
	"repro/internal/leakcheck"
	"repro/internal/stream"
)

// fakeNode is a NodeAdmin double: it records adoptions and answers with
// a scripted error, so the handler's error mapping is tested without a
// cluster.
type fakeNode struct {
	name    string
	err     error
	adopted []string
	gotCP   *stream.Checkpoint
}

func (n *fakeNode) NodeName() string { return n.name }

func (n *fakeNode) Adopt(_ context.Context, tenant string, cp *stream.Checkpoint) error {
	if n.err != nil {
		return n.err
	}
	n.adopted = append(n.adopted, tenant)
	n.gotCP = cp
	return nil
}

func do(t *testing.T, handler http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var rd *strings.Reader
	if body == "" {
		rd = strings.NewReader("")
	} else {
		rd = strings.NewReader(body)
	}
	req := httptest.NewRequest(method, path, rd)
	rec := httptest.NewRecorder()
	handler.ServeHTTP(rec, req)
	return rec
}

// v1Code parses the v1 error envelope and returns its code.
func v1Code(t *testing.T, rec *httptest.ResponseRecorder) string {
	t.Helper()
	var e struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("envelope does not parse: %v (%s)", err, rec.Body.String())
	}
	return e.Error.Code
}

// TestServerClusterEndpoints: with Options.Node set, the ClusterOnly
// routes serve, every tenant-scoped v1 response names the node, and the
// adopt endpoint maps the lifecycle sentinels onto the error envelope.
func TestServerClusterEndpoints(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	node := &fakeNode{name: "n1"}
	s := New(ctx, testFleet(t), Options{Node: node})
	handler := s.Handler()

	// The checkpoint route serves the handoff document with the node header.
	rec := do(t, handler, "GET", "/v1/t/default/checkpoint", "")
	if rec.Code != http.StatusOK {
		t.Fatalf("checkpoint: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Tenant-Node") != "n1" {
		t.Fatalf("checkpoint X-Tenant-Node %q", rec.Header().Get("X-Tenant-Node"))
	}
	var cp stream.Checkpoint
	if err := json.Unmarshal(rec.Body.Bytes(), &cp); err != nil {
		t.Fatalf("checkpoint body does not parse as a checkpoint: %v", err)
	}
	if cp.Format != stream.CheckpointFormat {
		t.Fatalf("checkpoint format %d, want %d", cp.Format, stream.CheckpointFormat)
	}

	// The snapshot route names the node too (so the coordinator proxy's
	// pass-through carries it without rewriting).
	rec = do(t, handler, "GET", "/v1/t/default/snapshot", "")
	if rec.Header().Get("X-Tenant-Node") != "n1" {
		t.Fatalf("snapshot X-Tenant-Node %q (status %d)", rec.Header().Get("X-Tenant-Node"), rec.Code)
	}

	// Adopt: happy path, with a shipped checkpoint.
	body, _ := json.Marshal(map[string]any{"tenant": "eu", "checkpoint": cp})
	rec = do(t, handler, "POST", "/v1/cluster/adopt", string(body))
	if rec.Code != http.StatusOK {
		t.Fatalf("adopt: %d %s", rec.Code, rec.Body.String())
	}
	var ok struct {
		Adopted string `json:"adopted"`
		Node    string `json:"node"`
	}
	if json.Unmarshal(rec.Body.Bytes(), &ok) != nil || ok.Adopted != "eu" || ok.Node != "n1" {
		t.Fatalf("adopt response: %s", rec.Body.String())
	}
	if len(node.adopted) != 1 || node.adopted[0] != "eu" || node.gotCP == nil {
		t.Fatalf("node saw adoptions %v, checkpoint %v", node.adopted, node.gotCP != nil)
	}

	// Sentinel mapping: unknown tenant is 404, a promotion retry is 409.
	for _, tc := range []struct {
		err    error
		status int
		code   string
	}{
		{fleet.ErrUnknownTenant, http.StatusNotFound, "unknown_tenant"},
		{fleet.ErrAlreadyHosted, http.StatusConflict, "already_hosted"},
	} {
		node.err = tc.err
		rec = do(t, handler, "POST", "/v1/cluster/adopt", `{"tenant":"eu"}`)
		if rec.Code != tc.status || v1Code(t, rec) != tc.code {
			t.Fatalf("adopt with %v: %d %s", tc.err, rec.Code, rec.Body.String())
		}
	}
	node.err = nil

	// Malformed requests.
	if rec = do(t, handler, "POST", "/v1/cluster/adopt", "{"); rec.Code != http.StatusBadRequest {
		t.Fatalf("truncated body: %d", rec.Code)
	}
	if rec = do(t, handler, "POST", "/v1/cluster/adopt", "{}"); rec.Code != http.StatusBadRequest {
		t.Fatalf("missing tenant: %d", rec.Code)
	}
	if rec = do(t, handler, "GET", "/v1/cluster/adopt", ""); rec.Code != http.StatusMethodNotAllowed || v1Code(t, rec) != "method_not_allowed" {
		t.Fatalf("GET adopt: %d %s", rec.Code, rec.Body.String())
	}
	if rec = do(t, handler, "POST", "/v1/cluster/evict", "{}"); rec.Code != http.StatusNotFound || v1Code(t, rec) != "unknown_endpoint" {
		t.Fatalf("unknown cluster op: %d %s", rec.Code, rec.Body.String())
	}

	// Every ClusterOnly row in the route table resolves on this server —
	// the complement of TestRoutesAllServed's skip.
	for _, rt := range s.Routes() {
		if !rt.ClusterOnly {
			continue
		}
		path := strings.ReplaceAll(rt.Pattern, "{name}", "default")
		rec := do(t, handler, rt.Method, path, `{"tenant":"eu"}`)
		if rec.Code == http.StatusNotFound {
			t.Errorf("cluster route %s %s served 404", rt.Method, rt.Pattern)
		}
	}
}

// TestServerClusterRoutesOffByDefault: without Options.Node the cluster
// admin surface does not exist — the checkpoint endpoint is an unknown
// endpoint and /v1/cluster/ is unrouted, so a plain daemon exposes no
// handoff surface.
func TestServerClusterRoutesOffByDefault(t *testing.T) {
	t.Cleanup(leakcheck.Check(t))
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	s := New(ctx, testFleet(t), Options{})
	handler := s.Handler()

	rec := do(t, handler, "GET", "/v1/t/default/checkpoint", "")
	if rec.Code != http.StatusNotFound || v1Code(t, rec) != "unknown_endpoint" {
		t.Fatalf("checkpoint without Node: %d %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("X-Tenant-Node") != "" {
		t.Fatal("X-Tenant-Node set outside cluster mode")
	}
	rec = do(t, handler, "POST", "/v1/cluster/adopt", `{"tenant":"eu"}`)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("adopt without Node: %d", rec.Code)
	}
	rec = do(t, handler, "GET", "/v1/t/default/snapshot", "")
	if rec.Header().Get("X-Tenant-Node") != "" {
		t.Fatal("snapshot carries X-Tenant-Node outside cluster mode")
	}
}
