// Package obs is a dependency-free metrics registry with Prometheus
// text-exposition (version 0.0.4) rendering. It carries the fleet's
// operational telemetry — per-tenant resolve latency/iteration
// histograms, drift and coverage gauges, serving fan-out counters,
// per-node cluster routing counters — to `GET /metrics/prom` on every
// tmserve surface without pulling the Prometheus client library into
// the module.
//
// The model is a cut-down prometheus/client_golang: a Registry holds
// metric families (counter, gauge, histogram), each family a vector
// over a fixed label set. Two registration styles exist:
//
//   - Counter/Histogram return a *Vec whose children are updated
//     imperatively (Inc/Add/Observe) from hot paths;
//   - CounterFunc/GaugeFunc register a scrape-time collector that
//     emits samples from live state (engine snapshots, hub stats,
//     cluster reports) so the exporter never caches what the system
//     already knows.
//
// Rendering is deterministic: families sort by name, children by
// label values, so consecutive scrapes of identical state are
// byte-identical. Lint validates any 0.0.4 exposition stream and runs
// against the live registry output in tests, so a malformed encoding
// fails `go test` rather than a scrape.
package obs

import (
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Type is a metric family's type as exposed on its `# TYPE` line.
type Type string

// The family types the registry can expose.
const (
	TypeCounter   Type = "counter"
	TypeGauge     Type = "gauge"
	TypeHistogram Type = "histogram"
)

// Family describes one registered family — the registry's self-
// inventory, drift-tested against docs/METRICS.md.
type Family struct {
	Name   string
	Type   Type
	Help   string
	Labels []string
}

// Emit is the callback handed to scrape-time collectors: each call
// contributes one sample with the family's label values in
// registration order.
type Emit func(value float64, labelValues ...string)

// DefBuckets are the default histogram buckets (seconds), spanning
// sub-millisecond cache hits to minute-long cold solves.
var DefBuckets = []float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10, 60}

// Registry is a set of metric families. All methods are safe for
// concurrent use; registration panics on invalid or duplicate names
// (programmer error, caught by the doc-drift test at init).
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
}

type family struct {
	name    string
	help    string
	typ     Type
	labels  []string
	buckets []float64 // histogram upper bounds, strictly increasing, +Inf implicit

	mu       sync.Mutex
	children map[string]*child

	collect func(Emit) // scrape-time collector; nil for static families
}

type child struct {
	values []string

	mu      sync.Mutex
	val     float64  // counter value
	bcounts []uint64 // histogram per-bucket (non-cumulative) counts
	binf    uint64   // observations above the last bucket
	sum     float64
	count   uint64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family)}
}

// Counter registers a counter family and returns its vector.
func (r *Registry) Counter(name, help string, labels ...string) *Vec {
	return &Vec{r.register(name, help, TypeCounter, labels, nil, nil)}
}

// Histogram registers a histogram family with the given upper bounds
// (strictly increasing, finite; +Inf is implicit; nil means
// DefBuckets) and returns its vector.
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *Vec {
	if buckets == nil {
		buckets = DefBuckets
	}
	for i, b := range buckets {
		if math.IsNaN(b) || math.IsInf(b, 0) || (i > 0 && b <= buckets[i-1]) {
			panic("obs: histogram " + name + ": buckets must be finite and strictly increasing")
		}
	}
	return &Vec{r.register(name, help, TypeHistogram, labels, append([]float64(nil), buckets...), nil)}
}

// GaugeFunc registers a gauge family whose samples are produced by
// collect at scrape time. collect must call emit with exactly
// len(labels) label values per sample and must not call back into the
// registry.
func (r *Registry) GaugeFunc(name, help string, labels []string, collect func(Emit)) {
	r.register(name, help, TypeGauge, labels, nil, collect)
}

// CounterFunc is GaugeFunc for monotone counters sourced from live
// state (e.g. lifetime totals the system already tracks).
func (r *Registry) CounterFunc(name, help string, labels []string, collect func(Emit)) {
	r.register(name, help, TypeCounter, labels, nil, collect)
}

func (r *Registry) register(name, help string, typ Type, labels []string, buckets []float64, collect func(Emit)) *family {
	if !validMetricName(name) {
		panic("obs: invalid metric name " + strconv.Quote(name))
	}
	if help == "" {
		panic("obs: metric " + name + " has no help text")
	}
	for _, l := range labels {
		if !validLabelName(l) {
			panic("obs: metric " + name + ": invalid label name " + strconv.Quote(l))
		}
		if typ == TypeHistogram && l == "le" {
			panic("obs: metric " + name + ": histogram label \"le\" is reserved")
		}
	}
	f := &family{
		name:     name,
		help:     help,
		typ:      typ,
		labels:   append([]string(nil), labels...),
		buckets:  buckets,
		children: make(map[string]*child),
		collect:  collect,
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.families[name]; dup {
		panic("obs: duplicate metric family " + name)
	}
	if typ == TypeHistogram {
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if _, dup := r.families[strings.TrimSuffix(name, suffix)]; dup && strings.HasSuffix(name, suffix) {
				panic("obs: metric family " + name + " collides with histogram series")
			}
		}
	}
	r.families[name] = f
	return f
}

// Families lists every registered family sorted by name.
func (r *Registry) Families() []Family {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Family, 0, len(r.families))
	for _, f := range r.families {
		out = append(out, Family{Name: f.name, Type: f.typ, Help: f.help, Labels: append([]string(nil), f.labels...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Vec is one family's vector of children keyed by label values.
type Vec struct{ f *family }

// With returns the child for the given label values, creating it on
// first use. The number of values must match the family's label set.
func (v *Vec) With(labelValues ...string) *Metric {
	f := v.f
	if len(labelValues) != len(f.labels) {
		panic("obs: metric " + f.name + ": got " + strconv.Itoa(len(labelValues)) + " label values, want " + strconv.Itoa(len(f.labels)))
	}
	key := childKey(labelValues)
	f.mu.Lock()
	c, ok := f.children[key]
	if !ok {
		c = &child{values: append([]string(nil), labelValues...)}
		if f.typ == TypeHistogram {
			c.bcounts = make([]uint64, len(f.buckets))
		}
		f.children[key] = c
	}
	f.mu.Unlock()
	return &Metric{f: f, c: c}
}

func childKey(values []string) string {
	if len(values) == 0 {
		return ""
	}
	// \xff cannot appear in valid UTF-8 label values, so the join is
	// collision-free for the names the fleet produces; a pathological
	// collision would only merge two children, never corrupt output.
	return strings.Join(values, "\xff")
}

// Metric is one child of a family: a single counter or histogram
// series.
type Metric struct {
	f *family
	c *child
}

// Inc adds 1 to a counter.
func (m *Metric) Inc() { m.Add(1) }

// Add adds delta to a counter. A negative delta panics (a programmer
// error the exposition format forbids).
func (m *Metric) Add(delta float64) {
	if m.f.typ != TypeCounter {
		panic("obs: Add on " + string(m.f.typ) + " " + m.f.name)
	}
	if delta < 0 {
		panic("obs: counter " + m.f.name + " decreased")
	}
	m.c.mu.Lock()
	m.c.val += delta
	m.c.mu.Unlock()
}

// Observe records one histogram observation.
func (m *Metric) Observe(v float64) {
	if m.f.typ != TypeHistogram {
		panic("obs: Observe on " + string(m.f.typ) + " " + m.f.name)
	}
	c := m.c
	c.mu.Lock()
	placed := false
	for i, ub := range m.f.buckets {
		if v <= ub {
			c.bcounts[i]++
			placed = true
			break
		}
	}
	if !placed {
		c.binf++
	}
	c.sum += v
	c.count++
	c.mu.Unlock()
}

// sample is one rendered exposition line's payload.
type sample struct {
	values []string
	v      float64
}

// WriteTo renders the full registry in text-exposition 0.0.4:
// families sorted by name, each with `# HELP` and `# TYPE` lines
// followed by its samples (children sorted by label values).
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	r.mu.Lock()
	fams := make([]*family, 0, len(r.families))
	for _, f := range r.families {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })

	b := make([]byte, 0, 4096)
	for _, f := range fams {
		b = f.render(b)
	}
	n, err := w.Write(b)
	return int64(n), err
}

func (f *family) render(b []byte) []byte {
	b = append(b, "# HELP "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = appendEscapedHelp(b, f.help)
	b = append(b, "\n# TYPE "...)
	b = append(b, f.name...)
	b = append(b, ' ')
	b = append(b, string(f.typ)...)
	b = append(b, '\n')

	if f.collect != nil {
		var samples []sample
		f.collect(func(v float64, labelValues ...string) {
			if len(labelValues) != len(f.labels) {
				panic("obs: collector for " + f.name + " emitted " + strconv.Itoa(len(labelValues)) + " label values, want " + strconv.Itoa(len(f.labels)))
			}
			samples = append(samples, sample{values: labelValues, v: v})
		})
		sort.Slice(samples, func(i, j int) bool { return lessValues(samples[i].values, samples[j].values) })
		for _, s := range samples {
			b = f.appendSample(b, f.name, s.values, "", 0, s.v)
		}
		return b
	}

	f.mu.Lock()
	children := make([]*child, 0, len(f.children))
	for _, c := range f.children {
		children = append(children, c)
	}
	f.mu.Unlock()
	sort.Slice(children, func(i, j int) bool { return lessValues(children[i].values, children[j].values) })

	for _, c := range children {
		c.mu.Lock()
		if f.typ == TypeHistogram {
			cum := uint64(0)
			for i, ub := range f.buckets {
				cum += c.bcounts[i]
				b = f.appendHistLine(b, c.values, ub, false, float64(cum))
			}
			cum += c.binf
			b = f.appendHistLine(b, c.values, 0, true, float64(cum))
			sum, count := c.sum, c.count
			c.mu.Unlock()
			b = f.appendSample(b, f.name+"_sum", c.values, "", 0, sum)
			b = f.appendSample(b, f.name+"_count", c.values, "", 0, float64(count))
			continue
		}
		v := c.val
		c.mu.Unlock()
		b = f.appendSample(b, f.name, c.values, "", 0, v)
	}
	return b
}

func (f *family) appendHistLine(b []byte, values []string, ub float64, inf bool, cum float64) []byte {
	le := "+Inf"
	if !inf {
		le = strconv.FormatFloat(ub, 'g', -1, 64)
	}
	return f.appendSample(b, f.name+"_bucket", values, le, 1, cum)
}

// appendSample emits one line; extraN=1 adds the le label with value
// extraLe after the family labels.
func (f *family) appendSample(b []byte, name string, values []string, extraLe string, extraN int, v float64) []byte {
	b = append(b, name...)
	if len(values) > 0 || extraN > 0 {
		b = append(b, '{')
		for i, l := range f.labels {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(b, l...)
			b = append(b, '=', '"')
			b = appendEscapedValue(b, values[i])
			b = append(b, '"')
		}
		if extraN > 0 {
			if len(f.labels) > 0 {
				b = append(b, ',')
			}
			b = append(b, "le=\""...)
			b = append(b, extraLe...)
			b = append(b, '"')
		}
		b = append(b, '}')
	}
	b = append(b, ' ')
	b = appendFloat(b, v)
	b = append(b, '\n')
	return b
}

func lessValues(a, b []string) bool {
	for i := range a {
		if i >= len(b) {
			return false
		}
		if a[i] != b[i] {
			return a[i] < b[i]
		}
	}
	return len(a) < len(b)
}

// Handler returns the scrape endpoint: the full registry rendered
// with the 0.0.4 content type and the same no-cache policy as every
// other serving route (headers only for HEAD). The route that mounts
// it checks the method.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		w.Header().Set("Cache-Control", "no-cache")
		if req.Method == http.MethodHead {
			return
		}
		if _, err := r.WriteTo(w); err != nil {
			return // client gone; headers already sent
		}
	})
}

// ContentType is the exposition content type for scrape responses.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

func appendEscapedHelp(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, s[i])
		}
	}
	return b
}

func appendEscapedValue(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b = append(b, '\\', '\\')
		case '"':
			b = append(b, '\\', '"')
		case '\n':
			b = append(b, '\\', 'n')
		default:
			b = append(b, s[i])
		}
	}
	return b
}

func appendFloat(b []byte, v float64) []byte {
	switch {
	case math.IsInf(v, 1):
		return append(b, "+Inf"...)
	case math.IsInf(v, -1):
		return append(b, "-Inf"...)
	case math.IsNaN(v):
		return append(b, "NaN"...)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

func validMetricName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || c == ':' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}

func validLabelName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		ok := c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (i > 0 && c >= '0' && c <= '9')
		if !ok {
			return false
		}
	}
	return true
}
