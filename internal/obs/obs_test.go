package obs

import (
	"math"
	"net/http/httptest"
	"strings"
	"testing"
)

// populated builds a registry exercising every family kind, escaping
// edge cases included.
func populated() *Registry {
	r := NewRegistry()
	c := r.Counter("tm_requests_total", "Requests served.", "tenant", "route")
	c.With("eu", "/snapshot").Add(3)
	c.With("us", "/snapshot").Inc()
	c.With(`we"ird\ten`+"\nant", "/x").Inc()

	r.GaugeFunc("tm_drift", "Window drift (relative L1).", []string{"tenant"}, func(emit Emit) {
		emit(0.125, "eu")
		emit(math.Inf(1), "us")
	})

	h := r.Histogram("tm_resolve_seconds", "Resolve latency.", []float64{0.01, 0.1, 1}, "tenant")
	h.With("eu").Observe(0.005)
	h.With("eu").Observe(0.5)
	h.With("eu").Observe(5)

	r.GaugeFunc("tm_live", "Scrape-time gauge with a\nmultiline, back\\slash help.", []string{"node"}, func(emit Emit) {
		emit(2, "n2")
		emit(1, "n1")
	})
	r.CounterFunc("tm_proxied_total", "Proxied requests.", nil, func(emit Emit) {
		emit(42)
	})
	return r
}

func render(t *testing.T, r *Registry) string {
	t.Helper()
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return sb.String()
}

func TestExposition(t *testing.T) {
	out := render(t, populated())
	for _, want := range []string{
		"# HELP tm_requests_total Requests served.\n# TYPE tm_requests_total counter\n",
		`tm_requests_total{tenant="eu",route="/snapshot"} 3` + "\n",
		`tm_requests_total{tenant="we\"ird\\ten\nant",route="/x"} 1` + "\n",
		`tm_drift{tenant="us"} +Inf` + "\n",
		`tm_resolve_seconds_bucket{tenant="eu",le="0.01"} 1` + "\n",
		`tm_resolve_seconds_bucket{tenant="eu",le="0.1"} 1` + "\n",
		`tm_resolve_seconds_bucket{tenant="eu",le="1"} 2` + "\n",
		`tm_resolve_seconds_bucket{tenant="eu",le="+Inf"} 3` + "\n",
		`tm_resolve_seconds_sum{tenant="eu"} 5.505` + "\n",
		`tm_resolve_seconds_count{tenant="eu"} 3` + "\n",
		`# HELP tm_live Scrape-time gauge with a\nmultiline, back\\slash help.` + "\n",
		"tm_proxied_total 42\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n--- got ---\n%s", want, out)
		}
	}
	// Collector samples sort by label values regardless of emit order.
	if strings.Index(out, `tm_live{node="n1"}`) > strings.Index(out, `tm_live{node="n2"}`) {
		t.Errorf("collector samples not sorted:\n%s", out)
	}
}

func TestExpositionDeterministic(t *testing.T) {
	r := populated()
	if a, b := render(t, r), render(t, r); a != b {
		t.Fatalf("consecutive renders differ:\n%s\n---\n%s", a, b)
	}
}

// TestLintLiveRegistry is the satellite gate: the full live registry
// output must pass the promtool-style validator.
func TestLintLiveRegistry(t *testing.T) {
	out := render(t, populated())
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Fatalf("live registry output fails lint: %v\n%s", err, out)
	}
}

func TestHandler(t *testing.T) {
	srv := httptest.NewServer(populated().Handler())
	defer srv.Close()
	res, err := srv.Client().Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer res.Body.Close()
	if got := res.Header.Get("Content-Type"); got != ContentType {
		t.Errorf("Content-Type = %q, want %q", got, ContentType)
	}
	if got := res.Header.Get("Cache-Control"); got != "no-cache" {
		t.Errorf("Cache-Control = %q, want no-cache", got)
	}
	if err := Lint(res.Body); err != nil {
		t.Errorf("served exposition fails lint: %v", err)
	}
}

func TestFamilies(t *testing.T) {
	fams := populated().Families()
	names := make([]string, len(fams))
	for i, f := range fams {
		names[i] = f.Name
	}
	want := []string{"tm_drift", "tm_live", "tm_proxied_total", "tm_requests_total", "tm_resolve_seconds"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("Families() = %v, want %v", names, want)
	}
	for _, f := range fams {
		if f.Name == "tm_requests_total" {
			if strings.Join(f.Labels, ",") != "tenant,route" {
				t.Errorf("labels = %v", f.Labels)
			}
			if f.Type != TypeCounter {
				t.Errorf("type = %v", f.Type)
			}
		}
	}
}

func TestRegistrationPanics(t *testing.T) {
	cases := map[string]func(r *Registry){
		"duplicate": func(r *Registry) {
			r.GaugeFunc("tm_x", "x.", nil, func(Emit) {})
			r.Counter("tm_x", "x.")
		},
		"bad name":        func(r *Registry) { r.Counter("0bad", "x.") },
		"bad label":       func(r *Registry) { r.Counter("tm_x", "x.", "0bad") },
		"no help":         func(r *Registry) { r.Counter("tm_x", "") },
		"le reserved":     func(r *Registry) { r.Histogram("tm_x", "x.", nil, "le") },
		"bad buckets":     func(r *Registry) { r.Histogram("tm_x", "x.", []float64{1, 1}) },
		"arity mismatch":  func(r *Registry) { r.Counter("tm_x", "x.", "a").With("v1", "v2") },
		"counter go down": func(r *Registry) { r.Counter("tm_x", "x.").With().Add(-1) },
		"add on hist":     func(r *Registry) { r.Histogram("tm_x", "x.", nil).With().Add(1) },
		"observe counter": func(r *Registry) { r.Counter("tm_x", "x.").With().Observe(1) },
	}
	for name, fn := range cases {
		t.Run(name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn(NewRegistry())
		})
	}
}

func TestFloatFormatting(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("tm_v", "v.", []string{"k"}, func(emit Emit) {
		emit(math.NaN(), "nan")
		emit(math.Inf(-1), "neginf")
		emit(0.000001230000393, "small")
		emit(1e21, "big")
	})
	out := render(t, r)
	for _, want := range []string{
		`tm_v{k="nan"} NaN`,
		`tm_v{k="neginf"} -Inf`,
		`tm_v{k="small"} 1.230000393e-06`,
		`tm_v{k="big"} 1e+21`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	if err := Lint(strings.NewReader(out)); err != nil {
		t.Errorf("lint: %v", err)
	}
}
