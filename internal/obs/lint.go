package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Lint validates a Prometheus text-exposition (0.0.4) stream the way
// `promtool check metrics` would: metadata ordering (HELP/TYPE before
// samples, at most once each), metric and label name charsets, label
// escape sequences, parseable values, no duplicate samples, no family
// interleaving, and histogram coherence (cumulative buckets, a +Inf
// bucket matching _count, a _sum series). It returns the first error,
// prefixed "line N: " for a line-level fault (an overlong line
// included) and "histogram " for an incoherent histogram found at the
// end, or nil for a clean stream.
//
// The registry's own tests run Lint over live WriteTo output, and the
// obs-smoke script runs it against a running daemon's /metrics/prom
// (TestLintLiveURL), so a malformed encoder fails `go test` rather
// than a scrape.
func Lint(r io.Reader) error {
	l := &linter{
		help:    make(map[string]bool),
		typ:     make(map[string]Type),
		started: make(map[string]bool),
		closed:  make(map[string]bool),
		seen:    make(map[string]int),
		hists:   make(map[string]*histState),
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	line := 0
	for sc.Scan() {
		line++
		if err := l.line(sc.Text()); err != nil {
			return fmt.Errorf("line %d: %w", line, err)
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("line %d: %w", line+1, err)
	}
	return l.finish()
}

type histState struct {
	// buckets maps a child's non-le label identity to its observed
	// (le, cumulative count) pairs in exposition order.
	buckets map[string][]bucketSample
	counts  map[string]float64
	sums    map[string]bool
}

type bucketSample struct {
	le  float64
	cum float64
}

type linter struct {
	help    map[string]bool
	typ     map[string]Type
	started map[string]bool
	closed  map[string]bool
	seen    map[string]int // full sample identity -> line seen
	hists   map[string]*histState
	current string
}

func (l *linter) line(s string) error {
	if strings.TrimSpace(s) == "" {
		return nil
	}
	if strings.HasPrefix(s, "#") {
		return l.comment(s)
	}
	return l.sample(s)
}

func (l *linter) comment(s string) error {
	rest, kind := "", ""
	switch {
	case strings.HasPrefix(s, "# HELP "):
		kind, rest = "HELP", s[len("# HELP "):]
	case strings.HasPrefix(s, "# TYPE "):
		kind, rest = "TYPE", s[len("# TYPE "):]
	default:
		return nil // free-form comment: legal, carries no metadata
	}
	name, arg, _ := strings.Cut(rest, " ")
	if !validMetricName(name) {
		return fmt.Errorf("%s for invalid metric name %q", kind, name)
	}
	if l.started[name] || l.closed[name] {
		return fmt.Errorf("%s %s after its samples", kind, name)
	}
	if kind == "HELP" {
		if l.help[name] {
			return fmt.Errorf("second HELP for %s", name)
		}
		if err := checkHelpEscapes(arg); err != nil {
			return fmt.Errorf("HELP %s: %w", name, err)
		}
		l.help[name] = true
		return nil
	}
	if _, dup := l.typ[name]; dup {
		return fmt.Errorf("second TYPE for %s", name)
	}
	switch Type(arg) {
	case TypeCounter, TypeGauge, TypeHistogram, "summary", "untyped":
	default:
		return fmt.Errorf("TYPE %s: unknown type %q", name, arg)
	}
	l.typ[name] = Type(arg)
	if Type(arg) == TypeHistogram {
		l.hists[name] = &histState{
			buckets: make(map[string][]bucketSample),
			counts:  make(map[string]float64),
			sums:    make(map[string]bool),
		}
	}
	return nil
}

func checkHelpEscapes(s string) error {
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' {
			continue
		}
		if i+1 >= len(s) || (s[i+1] != '\\' && s[i+1] != 'n') {
			return fmt.Errorf("invalid escape %q", s[i:min(i+2, len(s))])
		}
		i++
	}
	return nil
}

func (l *linter) sample(s string) error {
	name, labels, value, err := parseSample(s)
	if err != nil {
		return err
	}
	fam := l.familyOf(name)
	if l.closed[fam] {
		return fmt.Errorf("family %s interleaved: sample after other families started", fam)
	}
	if l.current != fam {
		if l.current != "" {
			l.closed[l.current] = true
		}
		l.current = fam
	}
	l.started[fam] = true

	id := sampleID(name, labels)
	if prev, dup := l.seen[id]; dup {
		return fmt.Errorf("duplicate sample %s (first at line %d)", id, prev)
	}
	l.seen[id] = 1

	typ := l.typ[fam]
	switch typ {
	case TypeCounter:
		if math.IsNaN(value) || value < 0 {
			return fmt.Errorf("counter %s has invalid value %v", name, value)
		}
	case TypeHistogram:
		return l.histSample(fam, name, labels, value)
	}
	return nil
}

// familyOf resolves a sample's metric name to its family: histogram
// series fold into their declared base family; everything else is its
// own family.
func (l *linter) familyOf(name string) string {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name {
			if t, ok := l.typ[base]; ok && (t == TypeHistogram || t == "summary") {
				return base
			}
		}
	}
	return name
}

func (l *linter) histSample(fam, name string, labels [][2]string, value float64) error {
	h := l.hists[fam]
	base := make([][2]string, 0, len(labels))
	var le string
	hasLe := false
	for _, kv := range labels {
		if kv[0] == "le" {
			le, hasLe = kv[1], true
			continue
		}
		base = append(base, kv)
	}
	key := sampleID("", base)
	switch name {
	case fam + "_bucket":
		if !hasLe {
			return fmt.Errorf("%s without le label", name)
		}
		ub, err := strconv.ParseFloat(le, 64)
		if err != nil {
			return fmt.Errorf("%s: unparseable le %q", name, le)
		}
		bs := h.buckets[key]
		if n := len(bs); n > 0 {
			if ub <= bs[n-1].le {
				return fmt.Errorf("%s: buckets out of order (le %q after %v)", name, le, bs[n-1].le)
			}
			if value < bs[n-1].cum {
				return fmt.Errorf("%s: cumulative count decreased at le %q", name, le)
			}
		}
		if value < 0 || math.IsNaN(value) {
			return fmt.Errorf("%s: invalid bucket count %v", name, value)
		}
		h.buckets[key] = append(bs, bucketSample{le: ub, cum: value})
	case fam + "_sum":
		h.sums[key] = true
	case fam + "_count":
		if value < 0 || math.IsNaN(value) {
			return fmt.Errorf("%s: invalid count %v", name, value)
		}
		h.counts[key] = value
	default:
		return fmt.Errorf("histogram %s has stray series %s", fam, name)
	}
	return nil
}

// finish runs the checks that only close out at end of stream: every
// histogram child has a +Inf bucket agreeing with _count, and a _sum.
func (l *linter) finish() error {
	fams := make([]string, 0, len(l.hists))
	for fam := range l.hists {
		fams = append(fams, fam)
	}
	sort.Strings(fams)
	for _, fam := range fams {
		h := l.hists[fam]
		keys := make([]string, 0, len(h.buckets))
		for k := range h.buckets {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, key := range keys {
			bs := h.buckets[key]
			last := bs[len(bs)-1]
			if !math.IsInf(last.le, 1) {
				return fmt.Errorf("histogram %s%s: no +Inf bucket", fam, key)
			}
			count, ok := h.counts[key]
			if !ok {
				return fmt.Errorf("histogram %s%s: no _count series", fam, key)
			}
			if count != last.cum {
				return fmt.Errorf("histogram %s%s: _count %v != +Inf bucket %v", fam, key, count, last.cum)
			}
			if !h.sums[key] {
				return fmt.Errorf("histogram %s%s: no _sum series", fam, key)
			}
		}
		for key := range h.counts {
			if _, ok := h.buckets[key]; !ok {
				return fmt.Errorf("histogram %s%s: _count without buckets", fam, key)
			}
		}
	}
	return nil
}

func sampleID(name string, labels [][2]string) string {
	kv := make([]string, 0, len(labels))
	for _, p := range labels {
		kv = append(kv, p[0]+"="+strconv.Quote(p[1]))
	}
	sort.Strings(kv)
	return name + "{" + strings.Join(kv, ",") + "}"
}

// parseSample parses `name{label="value",…} value [timestamp]`.
func parseSample(s string) (name string, labels [][2]string, value float64, err error) {
	i := 0
	for i < len(s) && s[i] != '{' && s[i] != ' ' && s[i] != '\t' {
		i++
	}
	name = s[:i]
	if !validMetricName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	rest := s[i:]
	if strings.HasPrefix(rest, "{") {
		labels, rest, err = parseLabels(rest[1:])
		if err != nil {
			return "", nil, 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("%s: want `value [timestamp]` after labels, got %q", name, strings.TrimSpace(rest))
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("%s: unparseable value %q", name, fields[0])
	}
	if len(fields) == 2 {
		if _, err := strconv.ParseInt(fields[1], 10, 64); err != nil {
			return "", nil, 0, fmt.Errorf("%s: unparseable timestamp %q", name, fields[1])
		}
	}
	return name, labels, value, nil
}

// parseLabels parses the body after `{` through the closing `}`,
// returning the pairs and the remainder of the line.
func parseLabels(s string) ([][2]string, string, error) {
	var labels [][2]string
	names := make(map[string]bool)
	for {
		s = strings.TrimLeft(s, " \t")
		if strings.HasPrefix(s, "}") {
			return labels, s[1:], nil
		}
		i := 0
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i == len(s) {
			return nil, "", fmt.Errorf("unterminated label set")
		}
		lname := strings.TrimSpace(s[:i])
		if !validLabelName(lname) {
			return nil, "", fmt.Errorf("invalid label name %q", lname)
		}
		if names[lname] {
			return nil, "", fmt.Errorf("duplicate label %s", lname)
		}
		names[lname] = true
		s = s[i+1:]
		if !strings.HasPrefix(s, `"`) {
			return nil, "", fmt.Errorf("label %s: unquoted value", lname)
		}
		val, rest, err := parseQuoted(s[1:])
		if err != nil {
			return nil, "", fmt.Errorf("label %s: %w", lname, err)
		}
		labels = append(labels, [2]string{lname, val})
		s = strings.TrimLeft(rest, " \t")
		switch {
		case strings.HasPrefix(s, ","):
			s = s[1:]
		case strings.HasPrefix(s, "}"):
			return labels, s[1:], nil
		default:
			return nil, "", fmt.Errorf("label %s: want `,` or `}` after value", lname)
		}
	}
}

// parseQuoted consumes an escaped label value up to its closing
// quote. Only \\, \" and \n escapes are legal in 0.0.4.
func parseQuoted(s string) (string, string, error) {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			return b.String(), s[i+1:], nil
		case '\\':
			if i+1 >= len(s) {
				return "", "", fmt.Errorf("dangling backslash")
			}
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
			case '"':
				b.WriteByte('"')
			case 'n':
				b.WriteByte('\n')
			default:
				return "", "", fmt.Errorf("invalid escape \\%c", s[i+1])
			}
			i++
		default:
			b.WriteByte(s[i])
		}
	}
	return "", "", fmt.Errorf("unterminated quoted value")
}
