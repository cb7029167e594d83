package main

import (
	"bytes"
	"context"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/netsim"
)

// europeFile writes the European scenario, as tmgen -region europe does,
// and returns its path.
func europeFile(t *testing.T) string {
	t.Helper()
	sc, err := netsim.BuildEurope(1)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "eu.json")
	if err := sc.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestEveryMethod scores each of the eight methods on the European
// scenario file and checks that each prints its MRE line.
func TestEveryMethod(t *testing.T) {
	path := europeFile(t)
	for _, m := range []string{"gravity", "kruithof", "entropy", "bayes", "bayes-wcb", "wcb", "fanout", "vardi"} {
		t.Run(m, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(context.Background(), &out, path, m, 1000, 10, 0.01, 1); err != nil {
				t.Fatal(err)
			}
			s := out.String()
			if !strings.Contains(s, "method:   "+m+" (") || !strings.Contains(s, "MRE over demands carrying 90% of traffic") {
				t.Fatalf("output lacks the %s MRE line:\n%s", m, s)
			}
		})
	}
}

func TestUnknownMethod(t *testing.T) {
	err := run(context.Background(), &bytes.Buffer{}, europeFile(t), "magic", 1000, 10, 0.01, 1)
	if err == nil || !strings.Contains(err.Error(), `unknown method "magic"`) {
		t.Fatalf("err = %v, want unknown method", err)
	}
}
