package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, dir, name, content string) string {
	t.Helper()
	p := filepath.Join(dir, name)
	if err := os.WriteFile(p, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestBenchdiff(t *testing.T) {
	dir := t.TempDir()
	seed := write(t, dir, "seed.json", `{
  "BenchmarkAlpha": {"ns_per_op": 1000, "bytes_per_op": 1, "allocs_per_op": 1},
  "BenchmarkBeta": {"ns_per_op": 500, "bytes_per_op": 1, "allocs_per_op": 1},
  "BenchmarkGamma": {"ns_per_op": 300, "bytes_per_op": 1, "allocs_per_op": 1}
}`)

	t.Run("pass", func(t *testing.T) {
		// Beta at 900 ns/op is 1.8x its baseline and Gamma at 500 is
		// 1.67x: both under 2x; Delta has no baseline and is new.
		bench := write(t, dir, "ok.out", strings.Join([]string{
			"goos: linux",
			"BenchmarkAlpha-8   \t10\t1100 ns/op",
			"BenchmarkBeta-8    \t10\t900 ns/op",
			"BenchmarkGamma     \t10\t500 ns/op",
			"BenchmarkDelta-8   \t10\t999999 ns/op",
			"PASS",
		}, "\n"))
		var sb strings.Builder
		err := run([]string{"-baseline", seed, "-min-ns", "0", bench}, &sb)
		if err != nil {
			t.Fatalf("want pass, got %v\n%s", err, sb.String())
		}
		out := sb.String()
		for _, want := range []string{"ok    BenchmarkAlpha", "ok    BenchmarkBeta", "ok    BenchmarkGamma", "NEW   BenchmarkDelta"} {
			if !strings.Contains(out, want) {
				t.Errorf("output lacks %q:\n%s", want, out)
			}
		}
	})

	t.Run("fail-on-regression", func(t *testing.T) {
		bench := write(t, dir, "bad.out", "BenchmarkAlpha-4\t1\t2500 ns/op\n")
		var sb strings.Builder
		err := run([]string{"-baseline", seed, "-min-ns", "0", bench}, &sb)
		if err == nil || !strings.Contains(err.Error(), "regressed") {
			t.Fatalf("want regression failure, got %v\n%s", err, sb.String())
		}
		if !strings.Contains(sb.String(), "FAIL  BenchmarkAlpha") {
			t.Errorf("output lacks FAIL line:\n%s", sb.String())
		}
	})

	t.Run("median-of-repeats", func(t *testing.T) {
		// -count 3 prints Alpha three times. One outlier line at 9x
		// neither fails the gate nor shows as the gated number: the
		// median (1100) does. Two slow lines of three do fail it, and so
		// do allocations doubling in two lines of three.
		heavy := write(t, dir, "repeat.json", `{
  "BenchmarkAlpha": {"ns_per_op": 1000, "bytes_per_op": 4096, "allocs_per_op": 200}
}`)
		bench := write(t, dir, "outlier.out", strings.Join([]string{
			"BenchmarkAlpha-4\t1\t1100 ns/op\t9000 B/op\t200 allocs/op",
			"BenchmarkAlpha-4\t1\t9000 ns/op\t9000 B/op\t900 allocs/op",
			"BenchmarkAlpha-4\t1\t1000 ns/op\t9000 B/op\t210 allocs/op",
		}, "\n"))
		var sb strings.Builder
		if err := run([]string{"-baseline", heavy, "-min-ns", "0", bench}, &sb); err != nil {
			t.Fatalf("one outlier of three must not gate, got %v\n%s", err, sb.String())
		}
		for _, want := range []string{"ok    BenchmarkAlpha", " 1100 ns/op", " 210 allocs/op", "(median of 3)", "compared 1 benchmarks"} {
			if !strings.Contains(sb.String(), want) {
				t.Errorf("output lacks %q:\n%s", want, sb.String())
			}
		}
		for name, lines := range map[string][]string{
			"slow": {
				"BenchmarkAlpha-4\t1\t2500 ns/op",
				"BenchmarkAlpha-4\t1\t900 ns/op",
				"BenchmarkAlpha-4\t1\t2600 ns/op",
			},
			"allocs": {
				"BenchmarkAlpha-4\t1\t1000 ns/op\t9000 B/op\t500 allocs/op",
				"BenchmarkAlpha-4\t1\t1000 ns/op\t9000 B/op\t200 allocs/op",
				"BenchmarkAlpha-4\t1\t1000 ns/op\t9000 B/op\t450 allocs/op",
			},
		} {
			bench := write(t, dir, name+".out", strings.Join(lines, "\n"))
			sb.Reset()
			if err := run([]string{"-baseline", heavy, "-min-ns", "0", bench}, &sb); err == nil {
				t.Fatalf("%s: two regressed lines of three must gate\n%s", name, sb.String())
			}
		}
	})

	t.Run("sample-spread", func(t *testing.T) {
		// Beside each median, the min..max of its -count lines, ns/op and
		// allocs/op alike, for gated and new rows; a single line has none.
		heavy := write(t, dir, "spread.json", `{
  "BenchmarkAlpha": {"ns_per_op": 1000, "bytes_per_op": 4096, "allocs_per_op": 200},
  "BenchmarkBeta": {"ns_per_op": 500, "bytes_per_op": 1, "allocs_per_op": 1}
}`)
		bench := write(t, dir, "spread.out", strings.Join([]string{
			"BenchmarkAlpha-4\t1\t1900 ns/op\t9000 B/op\t200 allocs/op",
			"BenchmarkAlpha-4\t1\t1500 ns/op\t9000 B/op\t230 allocs/op",
			"BenchmarkAlpha-4\t1\t2300 ns/op\t9000 B/op\t210 allocs/op",
			"BenchmarkDelta-4\t1\t700 ns/op",
			"BenchmarkDelta-4\t1\t600 ns/op",
			"BenchmarkBeta-4\t1\t400 ns/op",
		}, "\n"))
		var sb strings.Builder
		if err := run([]string{"-baseline", heavy, "-min-ns", "0", bench}, &sb); err != nil {
			t.Fatalf("a 1.9x median must pass whatever its spread, got %v\n%s", err, sb.String())
		}
		out := sb.String()
		for _, want := range []string{
			" 1900 ns/op [1500..2300]  baseline", "(1.90x)", " 210 allocs/op [200..230]  baseline",
			" 650 ns/op [600..700] (no baseline)  (median of 2)", " 400 ns/op  baseline",
		} {
			if !strings.Contains(out, want) {
				t.Errorf("output lacks %q:\n%s", want, out)
			}
		}
	})

	t.Run("custom-factor", func(t *testing.T) {
		bench := write(t, dir, "factor.out", "BenchmarkAlpha-4\t1\t2500 ns/op\n")
		var sb strings.Builder
		if err := run([]string{"-baseline", seed, "-factor", "3", "-min-ns", "0", bench}, &sb); err != nil {
			t.Fatalf("2.5x must pass at -factor 3, got %v", err)
		}
	})

	t.Run("noise-floor", func(t *testing.T) {
		// A 2.5x blowup on a baseline below the floor is reported as
		// "fast" and does not fail the gate.
		bench := write(t, dir, "fast.out", "BenchmarkAlpha-4\t1\t2500 ns/op\n")
		var sb strings.Builder
		if err := run([]string{"-baseline", seed, bench}, &sb); err != nil {
			t.Fatalf("sub-floor benchmark must not gate, got %v\n%s", err, sb.String())
		}
		if !strings.Contains(sb.String(), "fast  BenchmarkAlpha") {
			t.Errorf("output lacks fast line:\n%s", sb.String())
		}
	})

	t.Run("fail-on-alloc-regression", func(t *testing.T) {
		// ns/op is fine (1.0x) but allocs/op tripled past the 2x gate.
		heavy := write(t, dir, "heavy.json", `{
  "BenchmarkAlpha": {"ns_per_op": 1000, "bytes_per_op": 4096, "allocs_per_op": 200}
}`)
		bench := write(t, dir, "allocbad.out", "BenchmarkAlpha-4\t1\t1000 ns/op\t9000 B/op\t600 allocs/op\n")
		var sb strings.Builder
		err := run([]string{"-baseline", heavy, "-min-ns", "0", bench}, &sb)
		if err == nil || !strings.Contains(err.Error(), "regressed") {
			t.Fatalf("want alloc regression failure, got %v\n%s", err, sb.String())
		}
		if !strings.Contains(sb.String(), "FAIL  BenchmarkAlpha") || !strings.Contains(sb.String(), "allocs/op") {
			t.Errorf("output lacks alloc FAIL line:\n%s", sb.String())
		}
	})

	t.Run("alloc-noise-floor", func(t *testing.T) {
		// The seed baseline has 1 alloc/op: below -min-allocs, a 600x blowup
		// is reported but not gated.
		bench := write(t, dir, "allocsmall.out", "BenchmarkAlpha-4\t1\t1000 ns/op\t9000 B/op\t600 allocs/op\n")
		var sb strings.Builder
		if err := run([]string{"-baseline", seed, "-min-ns", "0", bench}, &sb); err != nil {
			t.Fatalf("sub-floor alloc baseline must not gate, got %v\n%s", err, sb.String())
		}
	})

	t.Run("no-benchmem-no-alloc-gate", func(t *testing.T) {
		// Input without -benchmem columns never alloc-gates, whatever the
		// baseline says.
		heavy := write(t, dir, "heavy2.json", `{
  "BenchmarkAlpha": {"ns_per_op": 1000, "bytes_per_op": 4096, "allocs_per_op": 200}
}`)
		bench := write(t, dir, "noallocs.out", "BenchmarkAlpha-4\t1\t1000 ns/op\n")
		var sb strings.Builder
		if err := run([]string{"-baseline", heavy, "-min-ns", "0", bench}, &sb); err != nil {
			t.Fatalf("input without allocs column must not gate, got %v\n%s", err, sb.String())
		}
	})

	t.Run("no-bench-lines", func(t *testing.T) {
		bench := write(t, dir, "empty.out", "PASS\nok  repro 1.0s\n")
		var sb strings.Builder
		if err := run([]string{"-baseline", seed, bench}, &sb); err == nil {
			t.Fatal("want error on input without benchmark lines")
		}
	})

	t.Run("requires-baseline", func(t *testing.T) {
		var sb strings.Builder
		if err := run([]string{"-"}, &sb); err == nil {
			t.Fatal("want error without -baseline")
		}
	})

	t.Run("one-baseline-only", func(t *testing.T) {
		var sb strings.Builder
		if err := run([]string{"-baseline", seed, "-baseline", seed, "-"}, &sb); err == nil {
			t.Fatal("want error on a second -baseline")
		}
	})

	t.Run("bad-baseline-json", func(t *testing.T) {
		garbage := write(t, dir, "garbage.json", "not json")
		var sb strings.Builder
		if err := run([]string{"-baseline", garbage, "-"}, &sb); err == nil {
			t.Fatal("want error on malformed baseline")
		}
	})
}
