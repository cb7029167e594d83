package fleet

import (
	"encoding/json"
	"fmt"
	"os"
	"regexp"
	"strings"
	"time"
)

// ConfigFormat is the version tag every fleet config must carry.
// ParseConfig rejects unknown versions instead of guessing, so a schema
// change can never silently misconfigure a running fleet.
const ConfigFormat = 1

// TenantSpec declares one tenant: a named subnetwork (topology or
// scenario-lab instance) with its measurement replay and estimation
// parameters. The zero value of every optional field selects the same
// default the corresponding tmserve flag has, so a spec written from
// the flag documentation behaves identically.
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

	// Estimation parameters, mirroring stream.Config / tmserve flags.
	Window          int     `json:"window,omitempty"`            // default 6; -1 = expanding
	MinCoverage     float64 `json:"min_coverage,omitempty"`      // default 0.9
	ResolveEvery    int     `json:"resolve_every,omitempty"`     // default 3; -1 = gravity only
	ResolveMaxEvery int     `json:"resolve_max_every,omitempty"` // default 0 (fixed cadence)
	DriftThreshold  float64 `json:"drift_threshold,omitempty"`   // default 0 (no drift trigger)
	Method          string  `json:"method,omitempty"`            // default entropy
	Reg             float64 `json:"reg,omitempty"`               // default 1000
	SigmaInv2       float64 `json:"sigma_inv2,omitempty"`        // default 0.01
	ResolveMaxIter  int     `json:"resolve_max_iter,omitempty"`  // default 20000
	ResolveTol      float64 `json:"resolve_tol,omitempty"`       // default 1e-6

	// Checkpoint overrides the tenant's checkpoint file path. Empty
	// selects <checkpoint-dir>/<name>.ckpt when the fleet has a
	// checkpoint directory, and no checkpointing otherwise.
	Checkpoint string `json:"checkpoint,omitempty"`

	// MaxWaiters caps this tenant's concurrent long-poll waiters plus
	// SSE subscribers on the serving side (internal/serve); excess
	// clients get 429 + Retry-After. 0 selects the daemon-wide
	// -max-waiters value.
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
// well-formed and unique, paces parse, ranges sane. The cluster config
// (internal/cluster) embeds the same tenant list and validates it with
// this, so the two config formats can never diverge on what a legal
// tenant is.
func ValidateTenants(tenants []TenantSpec) error {
	seen := make(map[string]bool, len(tenants))
	for i, t := range tenants {
		if !nameRe.MatchString(t.Name) {
			return fmt.Errorf("fleet: tenant %d name %q is not a [A-Za-z0-9._-]+ identifier", i, t.Name)
		}
		if seen[t.Name] {
			return fmt.Errorf("fleet: duplicate tenant name %q", t.Name)
		}
		seen[t.Name] = true
		if _, err := t.pace(); err != nil {
			return fmt.Errorf("fleet: tenant %q: %w", t.Name, err)
		}
		if t.Cycles < -1 {
			return fmt.Errorf("fleet: tenant %q: cycles %d out of range (>= -1)", t.Name, t.Cycles)
		}
		if t.MaxWaiters < 0 {
			return fmt.Errorf("fleet: tenant %q: max_waiters %d is negative", t.Name, t.MaxWaiters)
		}
		if t.SLOMaxDrift < 0 {
			return fmt.Errorf("fleet: tenant %q: slo_max_drift %v is negative", t.Name, t.SLOMaxDrift)
		}
		if t.SLOMaxResolveMRE < 0 {
			return fmt.Errorf("fleet: tenant %q: slo_max_resolve_mre %v is negative", t.Name, t.SLOMaxResolveMRE)
		}
		if _, err := t.sloMaxCheckpointAge(); err != nil {
			return fmt.Errorf("fleet: tenant %q: %w", t.Name, err)
		}
		if t.AnomalyFactor < 0 || t.AnomalyWindow < 0 || t.AnomalyMinDrift < 0 {
			return fmt.Errorf("fleet: tenant %q: negative anomaly parameter", t.Name)
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
