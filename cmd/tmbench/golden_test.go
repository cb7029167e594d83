package main

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/runner"
)

// update rewrites the golden files instead of comparing against them:
//
//	go test ./cmd/tmbench -run TestGolden -update
var update = flag.Bool("update", false, "rewrite golden report files")

// goldenIDs are the experiments pinned byte-for-byte. They cover the two
// report flavors — a table (table1, Vardi) and a sweep row set (fig10,
// fanout windows) — and both regions, so a change to routing, traffic
// generation, solver numerics or report formatting shows up as a golden
// diff that -update makes reviewable.
var goldenIDs = []string{"table1", "fig10"}

func TestGoldenReports(t *testing.T) {
	if testing.Short() {
		t.Skip("golden drivers run full solves; skipped in -short mode")
	}
	// Pool size must not affect report bytes; use the machine default so
	// this test also exercises the determinism guarantee.
	suite, err := experiments.NewSuiteWithPool(1, runner.NewPool(0))
	if err != nil {
		t.Fatalf("NewSuiteWithPool: %v", err)
	}
	for _, id := range goldenIDs {
		id := id
		t.Run(id, func(t *testing.T) {
			d, ok := experiments.DriverByID(id)
			if !ok {
				t.Fatalf("unknown driver %s", id)
			}
			rep, err := d.Run(suite, context.Background())
			if err != nil {
				t.Fatalf("%s: %v", id, err)
			}
			var buf bytes.Buffer
			if err := rep.Render(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", id+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				t.Logf("wrote %s (%d bytes)", path, buf.Len())
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (regenerate with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s output drifted from golden.\n--- got ---\n%s--- want ---\n%s", id, buf.Bytes(), want)
			}
		})
	}
}
