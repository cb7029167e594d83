// Documentation gates: these tests fail when the docs drift from the
// code, and CI's docs step runs them explicitly (make docs).
package repro_test

import (
	"context"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/fleet"
	"repro/internal/obs"
	"repro/internal/runner"
	"repro/internal/serve"
)

// TestPackageComments fails when any internal/* package (or the root
// package and cmd/examples binaries) lacks a package-level doc comment.
func TestPackageComments(t *testing.T) {
	var dirs []string
	for _, glob := range []string{"internal/*", "cmd/*", "examples/*", "."} {
		m, err := filepath.Glob(glob)
		if err != nil {
			t.Fatal(err)
		}
		dirs = append(dirs, m...)
	}
	for _, dir := range dirs {
		if fi, err := os.Stat(dir); err != nil || !fi.IsDir() {
			continue
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		var sources []string
		for _, f := range files {
			if !strings.HasSuffix(f, "_test.go") {
				sources = append(sources, f)
			}
		}
		if len(sources) == 0 {
			continue
		}
		documented := false
		for _, f := range sources {
			fset := token.NewFileSet()
			af, err := parser.ParseFile(fset, f, nil, parser.PackageClauseOnly|parser.ParseComments)
			if err != nil {
				t.Fatalf("parse %s: %v", f, err)
			}
			if af.Doc != nil && strings.TrimSpace(af.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if !documented {
			t.Errorf("package in %s has no package-level doc comment in any file", dir)
		}
	}
}

// flagDefRe matches flag definitions in command sources:
// flag.String("name", …), fs.Int64("name", …), flag.StringVar(&v, "name", …),
// fs.Func("name", …).
var flagDefRe = regexp.MustCompile(`\.(?:String|Bool|Int|Int64|Uint|Float64|Duration|Func)(?:Var)?\(\s*(?:&[\w.\[\]]+\s*,\s*)?"([a-zA-Z][\w-]*)"`)

// rowFlagRe matches a backticked flag in a README table row: `-name`,
// `-name value`, `-name a\|b`.
var rowFlagRe = regexp.MustCompile("`-([a-zA-Z][\\w-]*)")

// TestREADMEFlagDrift fails when a command defines a flag that the
// README's "Commands and flags" table does not mention, or when a
// command's row documents a backticked `-name` flag the command does
// not define (a deleted or renamed flag left behind).
func TestREADMEFlagDrift(t *testing.T) {
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	cmds, err := filepath.Glob("cmd/*")
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) < 5 {
		t.Fatalf("found only %d commands under cmd/", len(cmds))
	}
	for _, dir := range cmds {
		name := filepath.Base(dir)
		row := ""
		for _, line := range strings.Split(string(readme), "\n") {
			if strings.HasPrefix(line, fmt.Sprintf("| `%s`", name)) {
				row = line
				break
			}
		}
		if row == "" {
			t.Errorf("README has no flags-table row for command %s", name)
			continue
		}
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		defined := make(map[string]bool)
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range flagDefRe.FindAllStringSubmatch(string(src), -1) {
				flag := m[1]
				defined[flag] = true
				// Boundary-anchored: "-reg" must not be satisfied by
				// "-region" appearing in the same row.
				re := regexp.MustCompile("-" + regexp.QuoteMeta(flag) + `($|[^a-zA-Z0-9-])`)
				if !re.MatchString(row) {
					t.Errorf("README row for %s does not document flag -%s", name, flag)
				}
			}
		}
		for _, m := range rowFlagRe.FindAllStringSubmatch(row, -1) {
			if !defined[m[1]] {
				t.Errorf("README row for %s documents flag -%s, which %s does not define", name, m[1], name)
			}
		}
	}
}

// TestAPIDocDrift fails when docs/API.md stops covering a route the
// server actually answers: every row of serve.Routes() — the single
// source of truth the mux is built from — must appear in the document
// as a backticked "METHOD /path" cell. (The reverse direction, every
// documented route being real, is TestRoutesAllServed in
// internal/serve.)
func TestAPIDocDrift(t *testing.T) {
	doc, err := os.ReadFile("docs/API.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, rt := range serve.Routes() {
		cell := "`" + rt.Method + " " + rt.Pattern + "`"
		if !strings.Contains(string(doc), cell) {
			t.Errorf("docs/API.md does not document route %s", cell)
		}
	}
	// Coordinator mode has its own route table (serve.CoordinatorRoutes,
	// the mux source for -coordinator processes); its rows must be
	// documented under the same cell convention.
	for _, rt := range serve.CoordinatorRoutes() {
		cell := "`" + rt.Method + " " + rt.Pattern + "`"
		if !strings.Contains(string(doc), cell) {
			t.Errorf("docs/API.md does not document coordinator route %s", cell)
		}
	}
	// The negotiation vocabulary must stay documented too: these are the
	// strings clients hardcode.
	for _, token := range []string{serve.DeltaMediaType, "If-None-Match", "min_version", "Retry-After", "X-Snapshot-Version", "X-Delta-From", "X-Tenant-Node"} {
		if !strings.Contains(string(doc), token) {
			t.Errorf("docs/API.md does not mention %q", token)
		}
	}
}

// TestMETHODSCoverage fails when METHODS.md stops covering an estimation
// entry point or an experiment driver ID — the "paper-to-code map covers
// all estimation methods evaluated by the suite" acceptance criterion —
// or when METHODS.md or README.md names a core.X or solver.X identifier
// the package does not export (a renamed or deleted entry point).
func TestMETHODSCoverage(t *testing.T) {
	methods, err := os.ReadFile("METHODS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(methods)
	entryPoints := []string{
		"core.Gravity", "core.GeneralizedGravity", "core.GravityFromTotals",
		"core.Kruithof", "core.Vardi", "core.Entropy", "core.Bayesian",
		"core.EstimateFanouts", "core.WorstCaseBounds",
		"core.DirectMeasurementCurve", "core.IterativeBayesian", "core.Cao",
		"core.MRE", "core.ShareThreshold",
	}
	for _, ep := range entryPoints {
		if !strings.Contains(doc, ep) {
			t.Errorf("METHODS.md does not mention entry point %s", ep)
		}
	}
	for _, d := range experiments.AllDrivers() {
		if !strings.Contains(doc, "`"+d.ID+"`") {
			t.Errorf("METHODS.md does not mention experiment ID %s (%s)", d.ID, d.Title)
		}
	}

	exported := map[string]map[string]bool{
		"core":   exportedNames(t, "internal/core"),
		"solver": exportedNames(t, "internal/solver"),
	}
	nameRe := regexp.MustCompile(`\b(core|solver)\.([A-Z][A-Za-z0-9_]*)`)
	for _, file := range []string{"METHODS.md", "README.md"} {
		text, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range nameRe.FindAllStringSubmatch(string(text), -1) {
			if !exported[m[1]][m[2]] {
				t.Errorf("%s names %s.%s, which internal/%s does not export", file, m[1], m[2], m[1])
			}
		}
	}
}

// exportedNames returns the exported package-level identifiers (funcs,
// types, vars and consts; not methods) declared by the non-test Go files
// in dir.
func exportedNames(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	names := make(map[string]bool)
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil && d.Name.IsExported() {
					names[d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch sp := spec.(type) {
					case *ast.TypeSpec:
						if sp.Name.IsExported() {
							names[sp.Name.Name] = true
						}
					case *ast.ValueSpec:
						for _, n := range sp.Names {
							if n.IsExported() {
								names[n.Name] = true
							}
						}
					}
				}
			}
		}
	}
	if len(names) == 0 {
		t.Fatalf("no exported identifiers found in %s", dir)
	}
	return names
}

// TestMetricsDocDrift fails when docs/METRICS.md and the live metric
// registries diverge: every family a production daemon registers must
// appear as a table row with matching type and label set, and every
// documented row must name a family that still exists. The registries
// are built exactly the way the daemons build them — one shared
// registry through fleet.Options.Metrics and serve.Options.Metrics,
// plus the coordinator families — so a rename, a label change or a
// forgotten doc row all fail go test.
func TestMetricsDocDrift(t *testing.T) {
	reg := obs.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	f := fleet.New(runner.NewPool(1), fleet.Options{Metrics: reg, AllowEmpty: true})
	serve.New(ctx, f, serve.Options{Metrics: reg})
	// Coordinator families live on their own registry in production;
	// names are disjoint, so one registry can enumerate all three layers.
	serve.RegisterCoordinatorMetrics(reg, func() []cluster.NodeReport { return nil })

	registered := make(map[string]obs.Family)
	for _, fam := range reg.Families() {
		registered[fam.Name] = fam
	}

	doc, err := os.ReadFile("docs/METRICS.md")
	if err != nil {
		t.Fatal(err)
	}
	rowRe := regexp.MustCompile("(?m)^\\| `(tm_[a-z0-9_]+)` \\| (counter|gauge|histogram) \\| ([^|]*) \\|")
	documented := make(map[string]bool)
	for _, m := range rowRe.FindAllStringSubmatch(string(doc), -1) {
		name, typ := m[1], m[2]
		var labels []string
		for _, l := range regexp.MustCompile("`([a-z_]+)`").FindAllStringSubmatch(m[3], -1) {
			labels = append(labels, l[1])
		}
		documented[name] = true
		fam, ok := registered[name]
		if !ok {
			t.Errorf("docs/METRICS.md documents %s, which no registry exports", name)
			continue
		}
		if string(fam.Type) != typ {
			t.Errorf("docs/METRICS.md says %s is a %s; the registry says %s", name, typ, fam.Type)
		}
		if strings.Join(labels, ",") != strings.Join(fam.Labels, ",") {
			t.Errorf("docs/METRICS.md says %s has labels %v; the registry says %v", name, labels, fam.Labels)
		}
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("registry exports %s but docs/METRICS.md does not document it", name)
		}
	}
	if len(documented) == 0 {
		t.Fatal("no metric rows parsed from docs/METRICS.md")
	}
}
