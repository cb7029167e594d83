// Command tmgen generates a synthetic evaluation scenario (topology +
// calibrated 24-hour demand time series) and writes it as JSON.
//
// Scenarios come either from the paper's two subnetworks (-region) or
// from the scenario lab's parameterized families (-family), which scale
// and perturb far beyond them; `-family help` lists the grammar. ECMP
// scenarios record their routing model in the file, so loading them
// rebuilds the same fractional routing matrix.
//
// -timeline compiles a timeline script (internal/timeline) instead:
// the scripted demand series and topology-epoch sequence are written as
// indented JSON — full demand vectors included — for inspection or as
// input to other tooling. The same script fed to `tmserve` via a
// scenario:script:<file> tenant replays live with routing hot-swaps.
//
// Usage:
//
//	tmgen -region europe -seed 1 -out europe.json
//	tmgen -region america -seed 7 -out america.json
//	tmgen -family scaled:100 -out big.json
//	tmgen -family ecmp:25:150 -out ecmp.json
//	tmgen -family failure:25:worst -out failed.json
//	tmgen -family help
//	tmgen -timeline examples/timelines/failure_reroute.json -out compiled.json
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/netsim"
	"repro/internal/scenario"
	"repro/internal/timeline"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintf(os.Stderr, "tmgen: %v\n", err)
		os.Exit(1)
	}
}

func run(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("tmgen", flag.ContinueOnError)
	region := fs.String("region", "europe", "subnetwork to generate: europe or america")
	family := fs.String("family", "", "scenario-family spec (e.g. scaled:100, ecmp:25:150); overrides -region; 'help' lists families")
	tlScript := fs.String("timeline", "", "timeline script to compile (overrides -region/-family); writes the scripted series + epochs as JSON")
	seed := fs.Int64("seed", 1, "deterministic generator seed")
	outPath := fs.String("out", "", "output file (default <region>.json or <family spec with : replaced>.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *family == "help" {
		fmt.Fprintln(out, "Scenario families (spec grammar -> description):")
		for _, f := range scenario.Families() {
			fmt.Fprintf(out, "  %-28s %s\n", f.Usage, f.Desc)
		}
		return nil
	}

	if *tlScript != "" {
		return compileTimeline(out, *tlScript, *seed, *outPath)
	}

	var (
		sc  *netsim.Scenario
		err error
	)
	switch {
	case *family != "":
		var in *scenario.Instance
		in, err = scenario.Build(*family, *seed)
		if err == nil {
			sc = in.Sc
			if in.Note != "" {
				fmt.Fprintln(out, in.Note)
			}
		}
		if *outPath == "" {
			*outPath = strings.ReplaceAll(*family, ":", "-") + ".json"
		}
	case *region == "europe":
		sc, err = netsim.BuildEurope(*seed)
	case *region == "america":
		sc, err = netsim.BuildAmerica(*seed)
	default:
		return fmt.Errorf("unknown region %q (want europe or america)", *region)
	}
	if err != nil {
		return err
	}
	if *outPath == "" {
		*outPath = *region + ".json"
	}
	if err := sc.SaveFile(*outPath); err != nil {
		return err
	}
	model := sc.Model
	if model == "" {
		model = netsim.RoutingSPF
	}
	fmt.Fprintf(out, "wrote %s: %d PoPs, %d demands, %d interior links, %d intervals, %s routing\n",
		*outPath, sc.Net.NumPoPs(), sc.Net.NumPairs(), sc.Net.InteriorLinks(), len(sc.Series.Demands), model)
	return nil
}

// compileTimeline parses a script, compiles it against its base
// instance and writes the compiled series (demand vectors included).
func compileTimeline(w io.Writer, path string, seed int64, out string) error {
	s, err := timeline.ParseFile(path)
	if err != nil {
		return err
	}
	tl, _, err := scenario.BuildScript(s, seed)
	if err != nil {
		return err
	}
	if out == "" {
		base := strings.TrimSuffix(filepath.Base(path), filepath.Ext(path))
		out = base + "-compiled.json"
	}
	f, err := os.Create(out)
	if err != nil {
		return err
	}
	if err := tl.WriteCompiled(f, true); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(w, "wrote %s: %d intervals, %d epochs, %d events over %s\n",
		out, len(tl.Steps), len(tl.Epochs), len(tl.Script.Events), tl.Base.Region)
	return nil
}
