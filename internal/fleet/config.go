package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"time"

	"repro/internal/stream"
)

// ConfigFormat is the version tag every fleet config must carry.
// ParseConfig rejects unknown versions instead of guessing, so a schema
// change can never silently misconfigure a running fleet.
const ConfigFormat = 1

// TenantSpec declares one tenant: a named subnetwork (topology or
// scenario-lab instance) with its measurement feed and estimation
// parameters. The zero value of every optional field selects its
// documented default; `tmserve` with neither -fleet nor -cluster hosts
// the one tenant TenantSpec{Name: "default"}.
type TenantSpec struct {
	// Name identifies the tenant in URLs (/v1/t/{name}/...), checkpoint
	// file names and logs. Required; letters, digits, '.', '_', '-'.
	Name string `json:"name"`
	// Source selects the subnetwork and its demand series:
	//
	//	europe | america        the paper's two subnetworks
	//	scenario:<family spec>  a scenario-lab instance (internal/scenario),
	//	                        replayed over its busy evaluation window
	//	scenario:script:<file>  a timeline script (internal/timeline):
	//	                        scripted demand events replayed with the
	//	                        scripted routing hot-swaps armed on the
	//	                        engine
	//	file:<path>             a scenario JSON produced by tmgen
	//	live:<source>           any source above but scenario:script:,
	//	                        collected through a simulated deployment
	//	                        (UDP agents, 3 distributed pollers, TCP
	//	                        uploads, 2% datagram loss) that closes one
	//	                        interval per Pace instead of replaying it;
	//	                        needs a positive Pace
	//
	// Defaults to "europe".
	Source string `json:"source,omitempty"`
	// Seed flows into topology, traffic and noise generation for
	// generated sources (ignored by file:). Defaults to 1; a spec
	// cannot express seed 0 (0 selects the default — a pinned seed-0
	// scenario can be materialized with `tmgen` and loaded via file:).
	Seed int64 `json:"seed,omitempty"`
	// Cycles is the number of polling intervals to replay; 0 selects the
	// default of 24, -1 replays forever (until the fleet stops). A
	// scenario:script tenant counts whole timeline passes instead (its
	// script fixes the intervals per pass): default 1, -1 forever.
	Cycles int `json:"cycles,omitempty"`
	// Pace is the wall-clock time per replayed interval as a Go duration
	// string ("100ms", "2s", "0"). Defaults to "100ms".
	Pace string `json:"pace,omitempty"`

	// Estimation parameters, mirroring stream.Config.
	Window          int     `json:"window,omitempty"`            // default 6; at most stream.MaxWindow (1024)
	MinCoverage     float64 `json:"min_coverage,omitempty"`      // default 0.9
	ResolveEvery    int     `json:"resolve_every,omitempty"`     // default 3; -1 = gravity only
	ResolveMaxEvery int     `json:"resolve_max_every,omitempty"` // default 0 (fixed cadence); above the cadence needs drift_threshold
	DriftThreshold  float64 `json:"drift_threshold,omitempty"`   // default 0 (no drift trigger); needs re-solves
	Method          string  `json:"method,omitempty"`            // default entropy
	Reg             float64 `json:"reg,omitempty"`               // default 1000
	SigmaInv2       float64 `json:"sigma_inv2,omitempty"`        // default 0.01
	ResolveMaxIter  int     `json:"resolve_max_iter,omitempty"`  // default 20000
	ResolveTol      float64 `json:"resolve_tol,omitempty"`       // default 1e-6

	// MaxWaiters caps this tenant's concurrent long-poll waiters plus
	// SSE subscribers on the serving side (internal/serve); excess
	// clients get 429 + Retry-After. 0 selects serve.DefaultMaxWaiters.
	MaxWaiters int `json:"max_waiters,omitempty"`

	// Per-tenant SLO thresholds. When any is exceeded the tenant
	// reports Degraded with a named cause in its Status, /healthz flips
	// to degraded (the HTTP status stays 200 — cluster liveness probes
	// gate on it; degradation is an operator signal, not a failover
	// trigger), and the tm_tenant_degraded gauge raises. 0 disables
	// each threshold.
	SLOMaxDrift      float64 `json:"slo_max_drift,omitempty"`
	SLOMaxResolveMRE float64 `json:"slo_max_resolve_mre,omitempty"`
	// SLOMaxCheckpointAge is a Go duration string ("30s"): the maximum
	// acceptable age of the tenant's last successful checkpoint save.
	// It only ever fires for checkpointed tenants.
	SLOMaxCheckpointAge string `json:"slo_max_checkpoint_age,omitempty"`

	// Drift-anomaly detector knobs (stream.Config.Anomaly*): a window
	// drift beyond AnomalyFactor times the rolling baseline (and the
	// AnomalyMinDrift floor) marks the tenant anomalous — the paper's
	// downstream traffic-anomaly-detection use. Factor 0 disables the
	// detector; window and floor 0 select the stream defaults (8,
	// 0.05).
	AnomalyFactor   float64 `json:"anomaly_factor,omitempty"`
	AnomalyWindow   int     `json:"anomaly_window,omitempty"`
	AnomalyMinDrift float64 `json:"anomaly_min_drift,omitempty"`
}

// Config is the versioned fleet declaration `tmserve -fleet` loads.
type Config struct {
	Format  int          `json:"format"`
	Tenants []TenantSpec `json:"tenants"`
}

var nameRe = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]*$`)

// ParseConfig decodes and validates a fleet config. Tenant-level
// resource construction (scenario build, engine creation) happens later
// in Fleet.Add, so a config can be validated without paying for its
// topologies.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("fleet: parse config: %w", err)
	}
	if cfg.Format != ConfigFormat {
		return Config{}, fmt.Errorf("fleet: config format %d, this build reads %d", cfg.Format, ConfigFormat)
	}
	if len(cfg.Tenants) == 0 {
		return Config{}, fmt.Errorf("fleet: config declares no tenants")
	}
	if err := ValidateTenants(cfg.Tenants); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// ValidateTenants checks a tenant list the way ParseConfig does: names
// well-formed and unique, and every spec valid (TenantSpec.validate).
// The cluster config (internal/cluster) embeds the same tenant list and
// validates it with this, so the two config formats can never diverge
// on what a legal tenant is.
func ValidateTenants(tenants []TenantSpec) error {
	seen := make(map[string]bool, len(tenants))
	for _, t := range tenants {
		if err := t.validate(); err != nil {
			return err
		}
		if seen[t.Name] {
			return fmt.Errorf("fleet: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
	}
	return nil
}

// validate checks one spec without building its source: the name, the
// durations, the method, and that every number lies in its documented
// range — an out-of-range value is refused by name rather than
// replaced by its default later. Fleet.Add, Adopt and AddFeed run it
// before anything is built.
func (s TenantSpec) validate() error {
	if !nameRe.MatchString(s.Name) {
		return fmt.Errorf("fleet: tenant name %q is not a [A-Za-z0-9._-]+ identifier", s.Name)
	}
	if err := s.checkFields(); err != nil {
		return fmt.Errorf("fleet: tenant %q: %w", s.Name, err)
	}
	return nil
}

// checkFields is validate without the name check and the tenant prefix.
func (s TenantSpec) checkFields() error {
	if _, err := s.pace(); err != nil {
		return err
	}
	if _, err := s.sloMaxCheckpointAge(); err != nil {
		return err
	}
	switch stream.Method(s.Method) {
	case "", stream.MethodEntropy, stream.MethodBayesian, stream.MethodVardi, stream.MethodFanout:
	default:
		return fmt.Errorf("unknown method %q", s.Method)
	}
	for _, f := range []struct {
		name   string
		v, min int
	}{
		{"cycles", s.Cycles, -1},
		{"window", s.Window, 0},
		{"resolve_every", s.ResolveEvery, -1},
		{"resolve_max_every", s.ResolveMaxEvery, 0},
		{"resolve_max_iter", s.ResolveMaxIter, 0},
		{"max_waiters", s.MaxWaiters, 0},
		{"anomaly_window", s.AnomalyWindow, 0},
	} {
		if f.v < f.min {
			return fmt.Errorf("%s %d out of range (>= %d)", f.name, f.v, f.min)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"drift_threshold", s.DriftThreshold},
		{"reg", s.Reg},
		{"sigma_inv2", s.SigmaInv2},
		{"resolve_tol", s.ResolveTol},
		{"slo_max_drift", s.SLOMaxDrift},
		{"slo_max_resolve_mre", s.SLOMaxResolveMRE},
		{"anomaly_factor", s.AnomalyFactor},
		{"anomaly_min_drift", s.AnomalyMinDrift},
	} {
		if !(f.v >= 0) { // NaN fails too
			return fmt.Errorf("%s %v out of range (>= 0)", f.name, f.v)
		}
	}
	if s.Window > stream.MaxWindow {
		return fmt.Errorf("window %d out of range (<= %d)", s.Window, stream.MaxWindow)
	}
	if !(s.MinCoverage >= 0 && s.MinCoverage <= 1) {
		return fmt.Errorf("min_coverage %v out of range [0, 1]", s.MinCoverage)
	}
	// The cadence rules stream.New enforces, judged on the spec's
	// effective cadence (resolve_every 0 is 3, -1 is off).
	if cfg := streamConfig(s); cfg.DriftThreshold > 0 && cfg.ResolveEvery == 0 {
		return fmt.Errorf("drift_threshold %v needs re-solves, but resolve_every is -1", s.DriftThreshold)
	} else if cfg.ResolveMaxEvery > cfg.ResolveEvery && cfg.DriftThreshold == 0 {
		return fmt.Errorf("resolve_max_every %d backs the cadence off only on a drift signal: set drift_threshold", s.ResolveMaxEvery)
	}
	if inner, live := strings.CutPrefix(s.Source, "live:"); live {
		if strings.HasPrefix(inner, "scenario:script:") {
			return fmt.Errorf("source %q: a scripted timeline is a replay and cannot be collected live", s.Source)
		}
		if pace, _ := s.pace(); pace == 0 {
			return fmt.Errorf("source %q needs a positive pace (one collected interval per pace)", s.Source)
		}
	}
	return nil
}

// LoadConfig reads and validates a fleet config file.
func LoadConfig(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	cfg, err := ParseConfig(data)
	if err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

// pace parses the spec's replay pace, applying the 100ms default.
func (s TenantSpec) pace() (time.Duration, error) {
	if s.Pace == "" {
		return 100 * time.Millisecond, nil
	}
	d, err := time.ParseDuration(s.Pace)
	if err != nil {
		return 0, fmt.Errorf("pace %q is not a duration", s.Pace)
	}
	if d < 0 {
		return 0, fmt.Errorf("pace %q is negative", s.Pace)
	}
	return d, nil
}

// sloMaxCheckpointAge parses the checkpoint-age SLO; zero means no
// threshold.
func (s TenantSpec) sloMaxCheckpointAge() (time.Duration, error) {
	if s.SLOMaxCheckpointAge == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(s.SLOMaxCheckpointAge)
	if err != nil {
		return 0, fmt.Errorf("slo_max_checkpoint_age %q is not a duration", s.SLOMaxCheckpointAge)
	}
	if d <= 0 {
		return 0, fmt.Errorf("slo_max_checkpoint_age %q is not positive", s.SLOMaxCheckpointAge)
	}
	return d, nil
}

// seed resolves the spec's generator seed: default 1.
func (s TenantSpec) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// cycles resolves the spec's replay length: default 24, -1 = forever.
func (s TenantSpec) cycles() int {
	switch {
	case s.Cycles == 0:
		return 24
	case s.Cycles < 0:
		return int(^uint(0) >> 1) // run until the fleet stops
	}
	return s.Cycles
}
