package main

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/linalg"
	"repro/internal/serve"
	"repro/internal/stream"
)

// failures counts failed operations by cause. Every count lands in the
// run's failed total; the causes are printed so a failing run says why.
// Failed output checks are also counted apart: any of them makes the run
// incorrect.
type failures struct {
	mu      sync.Mutex
	byCause map[string]int
	checks  int
}

func (f *failures) add(cause string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.byCause == nil {
		f.byCause = make(map[string]int)
	}
	f.byCause[cause]++
}

// addCheck records a failed output check.
func (f *failures) addCheck(cause string) {
	f.add("check: " + cause)
	f.mu.Lock()
	f.checks++
	f.mu.Unlock()
}

// failedChecks is how many output checks failed.
func (f *failures) failedChecks() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.checks
}

// checkError marks an error as a failed output check rather than a
// failed operation.
type checkError struct{ error }

func (f *failures) total() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := 0
	for _, c := range f.byCause {
		n += c
	}
	return n
}

func (f *failures) String() string {
	f.mu.Lock()
	defer f.mu.Unlock()
	causes := make([]string, 0, len(f.byCause))
	for c, n := range f.byCause {
		causes = append(causes, fmt.Sprintf("%s ×%d", c, n))
	}
	sort.Strings(causes)
	return strings.Join(causes, "; ")
}

// versionCheck enforces that the versions one reader sees never go back
// and, when strict, always move forward.
type versionCheck struct {
	last   uint64
	strict bool
}

func (c *versionCheck) next(v uint64) error {
	if v < c.last || (c.strict && v == c.last && v != 0) {
		return fmt.Errorf("version %d after %d", v, c.last)
	}
	c.last = v
	return nil
}

// applyDeltaDoc verifies one delta response: the document must start at
// base's version, every step must apply, and the result must be the
// version the response's X-Snapshot-Version header names.
func applyDeltaDoc(base stream.Snapshot, body []byte, headerVersion uint64) (stream.Snapshot, error) {
	var doc serve.DeltaDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return stream.Snapshot{}, fmt.Errorf("decode delta document: %w", err)
	}
	if doc.From != base.Version {
		return stream.Snapshot{}, fmt.Errorf("delta from version %d, holding %d", doc.From, base.Version)
	}
	if doc.To != headerVersion {
		return stream.Snapshot{}, fmt.Errorf("delta to version %d, X-Snapshot-Version %d", doc.To, headerVersion)
	}
	cur := base
	for i, step := range doc.Steps {
		d, err := serve.DecodeDelta(step)
		if err != nil {
			return stream.Snapshot{}, fmt.Errorf("step %d: %w", i, err)
		}
		if cur, err = serve.Apply(cur, d); err != nil {
			return stream.Snapshot{}, fmt.Errorf("step %d: %w", i, err)
		}
	}
	if cur.Version != headerVersion {
		return stream.Snapshot{}, fmt.Errorf("delta chain ends at version %d, X-Snapshot-Version %d", cur.Version, headerVersion)
	}
	return cur, nil
}

// checkVectors reports the first published vector entry that is not a
// finite non-negative rate.
func checkVectors(s stream.Snapshot) error {
	for _, v := range []struct {
		name string
		x    linalg.Vector
	}{{"gravity", s.Gravity}, {"mean", s.Mean}, {"fanouts", s.Fanouts}, {"resolve", s.Resolve}} {
		for i, x := range v.x {
			if math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				return fmt.Errorf("version %d: %s[%d] = %v", s.Version, v.name, i, x)
			}
		}
	}
	return nil
}

// sameMRE reports whether got matches the reference want to within 1e-9
// relative error.
func sameMRE(got, want float64) bool {
	if want == 0 {
		return got == 0
	}
	return math.Abs(got-want) <= 1e-9*math.Abs(want)
}
