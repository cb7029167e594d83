package experiments

import (
	"bytes"
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/runner"
)

var (
	suiteOnce sync.Once
	suite     *Suite
	suiteErr  error
)

func getSuite(t *testing.T) *Suite {
	t.Helper()
	suiteOnce.Do(func() { suite, suiteErr = NewSuiteWithPool(1, runner.NewPool(0)) })
	if suiteErr != nil {
		t.Fatalf("NewSuiteWithPool: %v", suiteErr)
	}
	return suite
}

func TestDriversRegistryComplete(t *testing.T) {
	want := []string{
		"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
		"fig9", "fig10", "fig11", "table1", "fig12", "fig13", "fig14",
		"fig15", "fig16", "table2",
	}
	ds := Drivers()
	if len(ds) != len(want) {
		t.Fatalf("%d drivers, want %d", len(ds), len(want))
	}
	for i, id := range want {
		if ds[i].ID != id {
			t.Fatalf("driver %d = %s, want %s", i, ds[i].ID, id)
		}
	}
	if _, ok := DriverByID("fig7"); !ok {
		t.Fatal("DriverByID(fig7) not found")
	}
	if _, ok := DriverByID("nope"); ok {
		t.Fatal("DriverByID(nope) should not resolve")
	}
	exts := ExtDrivers()
	if len(exts) != 4 {
		t.Fatalf("%d extension drivers, want 4", len(exts))
	}
	for _, id := range []string{"ext1", "ext2", "ext3", "ext4"} {
		if _, ok := DriverByID(id); !ok {
			t.Fatalf("extension driver %s not resolvable", id)
		}
	}
	if got := len(AllDrivers()); got != len(ds)+len(exts) {
		t.Fatalf("AllDrivers = %d, want %d", got, len(ds)+len(exts))
	}
}

func TestSparkline(t *testing.T) {
	if got := sparkline(nil); got != "" {
		t.Fatalf("empty sparkline = %q", got)
	}
	s := sparkline([]float64{0, 1, 2, 4})
	if len([]rune(s)) != 4 {
		t.Fatalf("sparkline length %d", len([]rune(s)))
	}
	flat := sparkline([]float64{0, 0})
	if !strings.Contains(flat, "▁") {
		t.Fatalf("flat sparkline = %q", flat)
	}
}

func TestDownsample(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6}
	ds := downsample(xs, 3)
	want := []float64{1.5, 3.5, 5.5}
	for i := range want {
		if ds[i] != want[i] {
			t.Fatalf("downsample = %v", ds)
		}
	}
	if got := downsample(xs, 10); len(got) != 6 {
		t.Fatal("downsample should not upsample")
	}
}

func TestTopIndices(t *testing.T) {
	v := []float64{3, 1, 4, 1, 5}
	top := topIndices(v, 2)
	if top[0] != 4 || top[1] != 2 {
		t.Fatalf("topIndices = %v", top)
	}
	if got := topIndices(v, 99); len(got) != 5 {
		t.Fatal("k clamp failed")
	}
}

func TestReportRender(t *testing.T) {
	r := &Report{ID: "x", Title: "t", Lines: []string{"a", "b"}}
	var buf bytes.Buffer
	if err := r.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"=== x: t ===", "a\n", "b\n"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q in %q", want, out)
		}
	}
}

// TestAnalysisFigures runs the data-analysis drivers (cheap) and checks
// their qualitative claims.
func TestAnalysisFigures(t *testing.T) {
	s := getSuite(t)
	for _, id := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6"} {
		d, ok := DriverByID(id)
		if !ok {
			t.Fatalf("driver %s missing", id)
		}
		rep, err := d.Run(s, context.Background())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(rep.Lines) == 0 {
			t.Fatalf("%s produced no output", id)
		}
		var buf bytes.Buffer
		if err := rep.Render(&buf); err != nil {
			t.Fatalf("%s render: %v", id, err)
		}
		t.Logf("%s:\n%s", id, buf.String())
	}
}

// TestEstimationFiguresRun exercises the cheap estimation drivers
// end-to-end. The expensive sweeps (fig11-16, tables) are covered by the
// benchmark harness and by the method-level tests in internal/core.
func TestEstimationFiguresRun(t *testing.T) {
	if testing.Short() {
		t.Skip("estimation drivers are slow")
	}
	s := getSuite(t)
	for _, id := range []string{"fig7", "fig9", "fig10", "fig14"} {
		d, _ := DriverByID(id)
		rep, err := d.Run(s, context.Background())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		var buf bytes.Buffer
		if err := rep.Render(&buf); err != nil {
			t.Fatal(err)
		}
		t.Logf("%s:\n%s", id, buf.String())
	}
}
