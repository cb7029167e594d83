// Package cluster turns the single-process fleet into a distributed
// one: a versioned cluster config assigning tenants to named nodes
// (explicit placement with a consistent-hash default), a node registry
// with health probing, and tenant migration via checkpoint handoff —
// the owning node's atomic checkpoint file is shipped to the new owner
// and restored warm, topology epoch and warm-start iterate intact.
// The split follows the paper's own decomposition: per-subnetwork
// estimation is independent, so tenants shard across processes with no
// cross-node coupling beyond the handoff document.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/fleet"
)

// ConfigFormat is the version tag every cluster config must carry;
// Parse rejects unknown versions instead of guessing.
const ConfigFormat = 1

// Defaults for the probe and sync loops.
const (
	DefaultProbeEvery    = time.Second
	DefaultProbeFailures = 3
	DefaultSyncEvery     = 2 * time.Second
)

// NodeSpec declares one member node: a name (for placement, the
// X-Tenant-Node header and logs) and the address its HTTP API listens
// on. Standby nodes take no tenants by default — they sync checkpoints
// and host tenants only on promotion.
type NodeSpec struct {
	Name string `json:"name"`
	// Addr is the node's host:port (no scheme; the cluster speaks plain
	// HTTP inside its own network).
	Addr    string `json:"addr"`
	Standby bool   `json:"standby,omitempty"`
}

// Config is the versioned cluster declaration `tmserve -cluster` loads:
// the fleet's tenant list plus node membership and placement. Every
// node and the coordinator load the same file, so ownership is a pure
// function of the config — no consensus protocol, which is the right
// trade for a read-serving tier whose unit of state is a checkpoint
// file.
type Config struct {
	Format  int                `json:"format"`
	Tenants []fleet.TenantSpec `json:"tenants"`
	Nodes   []NodeSpec         `json:"nodes"`
	// Placement pins tenants to nodes by name; unpinned tenants land on
	// the consistent-hash ring over the non-standby nodes.
	Placement map[string]string `json:"placement,omitempty"`
	// Standbys pins a tenant's warm standby; unpinned tenants get one
	// from the ring over the standby-marked nodes (all other nodes when
	// none are marked).
	Standbys map[string]string `json:"standbys,omitempty"`
	// ProbeEvery is the registry's health-probe interval (Go duration,
	// default 1s); ProbeFailures is how many consecutive failures mark a
	// node down (default 3). A probe waits at least 1s for an answer, so
	// a sub-second interval detects a refused connection sooner but
	// never fails over a node that is only slow to answer.
	ProbeEvery    string `json:"probe_every,omitempty"`
	ProbeFailures int    `json:"probe_failures,omitempty"`
	// SyncEvery is the standby checkpoint-sync interval (default 2s).
	SyncEvery string `json:"sync_every,omitempty"`
}

// Parse decodes and validates a cluster config.
func Parse(data []byte) (Config, error) {
	var cfg Config
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&cfg); err != nil {
		return Config{}, fmt.Errorf("cluster: parse config: %w", err)
	}
	if cfg.Format != ConfigFormat {
		return Config{}, fmt.Errorf("cluster: config format %d, this build reads %d", cfg.Format, ConfigFormat)
	}
	if len(cfg.Tenants) == 0 {
		return Config{}, fmt.Errorf("cluster: config declares no tenants")
	}
	if err := fleet.ValidateTenants(cfg.Tenants); err != nil {
		return Config{}, fmt.Errorf("cluster: %w", err)
	}
	if len(cfg.Nodes) == 0 {
		return Config{}, fmt.Errorf("cluster: config declares no nodes")
	}
	seen := make(map[string]bool, len(cfg.Nodes))
	primaries := 0
	for i, n := range cfg.Nodes {
		if n.Name == "" {
			return Config{}, fmt.Errorf("cluster: node %d has no name", i)
		}
		if seen[n.Name] {
			return Config{}, fmt.Errorf("cluster: duplicate node name %q", n.Name)
		}
		seen[n.Name] = true
		if n.Addr == "" {
			return Config{}, fmt.Errorf("cluster: node %q has no addr", n.Name)
		}
		if !n.Standby {
			primaries++
		}
	}
	if primaries == 0 {
		return Config{}, fmt.Errorf("cluster: every node is a standby; at least one must take tenants")
	}
	for tenant, node := range cfg.Placement {
		if !cfg.hasTenant(tenant) {
			return Config{}, fmt.Errorf("cluster: placement names unknown tenant %q", tenant)
		}
		if _, ok := cfg.Node(node); !ok {
			return Config{}, fmt.Errorf("cluster: placement of %q names unknown node %q", tenant, node)
		}
	}
	for tenant, node := range cfg.Standbys {
		if !cfg.hasTenant(tenant) {
			return Config{}, fmt.Errorf("cluster: standbys names unknown tenant %q", tenant)
		}
		if _, ok := cfg.Node(node); !ok {
			return Config{}, fmt.Errorf("cluster: standby of %q names unknown node %q", tenant, node)
		}
		if cfg.Owner(tenant) == node {
			return Config{}, fmt.Errorf("cluster: tenant %q has node %q as both owner and standby", tenant, node)
		}
	}
	for _, d := range []struct{ name, val string }{
		{"probe_every", cfg.ProbeEvery}, {"sync_every", cfg.SyncEvery},
	} {
		if d.val == "" {
			continue
		}
		if dur, err := time.ParseDuration(d.val); err != nil || dur <= 0 {
			return Config{}, fmt.Errorf("cluster: %s %q is not a positive duration", d.name, d.val)
		}
	}
	if cfg.ProbeFailures < 0 {
		return Config{}, fmt.Errorf("cluster: probe_failures %d is negative", cfg.ProbeFailures)
	}
	return cfg, nil
}

// Load reads and validates a cluster config file.
func Load(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, err
	}
	cfg, err := Parse(data)
	if err != nil {
		return Config{}, fmt.Errorf("%s: %w", path, err)
	}
	return cfg, nil
}

func (c Config) hasTenant(name string) bool {
	for _, t := range c.Tenants {
		if t.Name == name {
			return true
		}
	}
	return false
}

// TenantSpec looks a tenant's spec up by name.
func (c Config) TenantSpec(name string) (fleet.TenantSpec, bool) {
	for _, t := range c.Tenants {
		if t.Name == name {
			return t, true
		}
	}
	return fleet.TenantSpec{}, false
}

// Node looks a node up by name.
func (c Config) Node(name string) (NodeSpec, bool) {
	for _, n := range c.Nodes {
		if n.Name == name {
			return n, true
		}
	}
	return NodeSpec{}, false
}

// Owner resolves which node owns a tenant at boot: the explicit
// placement when pinned, else the consistent-hash ring over the
// non-standby nodes. Deterministic across processes — every node and
// the coordinator compute the same answer from the same config.
func (c Config) Owner(tenant string) string {
	if n, ok := c.Placement[tenant]; ok {
		return n
	}
	var primaries []string
	for _, n := range c.Nodes {
		if !n.Standby {
			primaries = append(primaries, n.Name)
		}
	}
	return ringLookup(primaries, tenant)
}

// StandbyFor resolves a tenant's warm standby: the explicit pin, else
// the ring over standby-marked nodes (all nodes when none are marked),
// excluding the owner. "" means the tenant has no standby (a one-node
// cluster).
func (c Config) StandbyFor(tenant string) string {
	if n, ok := c.Standbys[tenant]; ok {
		return n
	}
	owner := c.Owner(tenant)
	var pool []string
	for _, n := range c.Nodes {
		if n.Standby && n.Name != owner {
			pool = append(pool, n.Name)
		}
	}
	if len(pool) == 0 {
		for _, n := range c.Nodes {
			if n.Name != owner {
				pool = append(pool, n.Name)
			}
		}
	}
	return ringLookup(pool, tenant)
}

// OwnedBy returns the tenants a node owns at boot, in declaration order.
func (c Config) OwnedBy(node string) []fleet.TenantSpec {
	var out []fleet.TenantSpec
	for _, t := range c.Tenants {
		if c.Owner(t.Name) == node {
			out = append(out, t)
		}
	}
	return out
}

// StandbyOn returns the tenants a node is warm standby for, in
// declaration order — the set its sync loop pulls checkpoints for.
func (c Config) StandbyOn(node string) []fleet.TenantSpec {
	var out []fleet.TenantSpec
	for _, t := range c.Tenants {
		if c.StandbyFor(t.Name) == node {
			out = append(out, t)
		}
	}
	return out
}

func (c Config) probeEvery() time.Duration {
	if c.ProbeEvery == "" {
		return DefaultProbeEvery
	}
	d, _ := time.ParseDuration(c.ProbeEvery)
	return d
}

func (c Config) probeFailures() int {
	if c.ProbeFailures == 0 {
		return DefaultProbeFailures
	}
	return c.ProbeFailures
}

func (c Config) syncEvery() time.Duration {
	if c.SyncEvery == "" {
		return DefaultSyncEvery
	}
	d, _ := time.ParseDuration(c.SyncEvery)
	return d
}
