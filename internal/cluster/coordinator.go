package cluster

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"

	"repro/internal/fleet"
)

// ErrNodeDown reports that a tenant's owning node is failing health
// probes and no standby has taken over yet; the serving layer maps it
// to 503 + Retry-After.
var ErrNodeDown = errors.New("owning node is down")

// NodeReport is one node's row on the coordinator's /v1/tenants
// payload: the registry's health view plus the proxied-request counter
// and the tenants currently routed to it.
type NodeReport struct {
	NodeStatus
	// Proxied counts tenant-scoped requests the coordinator proxied to
	// this node.
	Proxied uint64   `json:"proxied"`
	Tenants []string `json:"tenants,omitempty"`
}

// Coordinator is the cluster's routing brain: it tracks which node
// owns each tenant (seeded from the config, repointed on failover and
// migration), probes node health through its registry, and promotes a
// tenant's standby when the owner goes down — an adopt without a
// shipped checkpoint, so the standby restores its freshest synced
// copy. The HTTP front door over it lives in internal/serve.
type Coordinator struct {
	cfg    Config
	client *http.Client
	logf   func(format string, args ...any)
	reg    *Registry

	mu      sync.Mutex
	owners  map[string]string // tenant -> node currently serving it
	proxied map[string]uint64
}

// NewCoordinator builds the coordinator over a cluster config. client
// may be nil for http.DefaultClient; logf may be nil to discard.
func NewCoordinator(cfg Config, client *http.Client, logf func(string, ...any)) *Coordinator {
	if client == nil {
		client = http.DefaultClient
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	c := &Coordinator{
		cfg:     cfg,
		client:  client,
		logf:    logf,
		owners:  make(map[string]string, len(cfg.Tenants)),
		proxied: make(map[string]uint64),
	}
	for _, t := range cfg.Tenants {
		c.owners[t.Name] = cfg.Owner(t.Name)
	}
	c.reg = NewRegistry(cfg, client, logf)
	c.reg.OnSweep(c.reconcile)
	return c
}

// Run probes and reconciles until ctx is done.
func (c *Coordinator) Run(ctx context.Context) { c.reg.Run(ctx) }

// Registry exposes the health view (tests force sweeps through it).
func (c *Coordinator) Registry() *Registry { return c.reg }

// Owner returns the node currently serving a tenant.
func (c *Coordinator) Owner(tenant string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	n, ok := c.owners[tenant]
	return n, ok
}

// Route resolves where a tenant-scoped request should go: the owning
// node's spec, fleet.ErrUnknownTenant for names outside the config, or
// ErrNodeDown while the owner is failing probes and no standby has
// been promoted.
func (c *Coordinator) Route(tenant string) (NodeSpec, error) {
	owner, ok := c.Owner(tenant)
	if !ok {
		return NodeSpec{}, fmt.Errorf("%w: %q", fleet.ErrUnknownTenant, tenant)
	}
	node, ok := c.cfg.Node(owner)
	if !ok || !c.reg.Healthy(owner) {
		return NodeSpec{}, fmt.Errorf("%w: %s (tenant %q)", ErrNodeDown, owner, tenant)
	}
	return node, nil
}

// reconcile promotes standbys for every tenant whose serving node is
// down: POST an adopt (no checkpoint — the standby restores its
// freshest synced copy) and repoint routing. Runs after every probe
// sweep; idempotent, because a 409 from a node already hosting the
// tenant counts as success.
func (c *Coordinator) reconcile(ctx context.Context) {
	for _, t := range c.cfg.Tenants {
		owner, _ := c.Owner(t.Name)
		if c.reg.Healthy(owner) {
			continue
		}
		standby, ok := c.pickStandby(t.Name, owner)
		if !ok {
			c.logf("cluster: tenant %s: owner %s is down and no healthy standby exists", t.Name, owner)
			continue
		}
		node, _ := c.cfg.Node(standby)
		err := postAdopt(ctx, c.client, node.Addr, t.Name, nil)
		if err != nil && !errors.Is(err, fleet.ErrAlreadyHosted) {
			c.logf("cluster: tenant %s: promote %s: %v", t.Name, standby, err)
			continue
		}
		c.mu.Lock()
		c.owners[t.Name] = standby
		c.mu.Unlock()
		c.logf("cluster: tenant %s: promoted standby %s (owner %s down)", t.Name, standby, owner)
	}
}

// pickStandby chooses where a tenant fails over to: its configured
// standby when healthy, else a healthy standby-marked node, else any
// healthy node — ring-picked so concurrent coordinators would agree.
func (c *Coordinator) pickStandby(tenant, current string) (string, bool) {
	if sb := c.cfg.StandbyFor(tenant); sb != "" && sb != current && c.reg.Healthy(sb) {
		return sb, true
	}
	var standbys, all []string
	for _, n := range c.cfg.Nodes {
		if n.Name == current || !c.reg.Healthy(n.Name) {
			continue
		}
		all = append(all, n.Name)
		if n.Standby {
			standbys = append(standbys, n.Name)
		}
	}
	if sb := ringLookup(standbys, tenant); sb != "" {
		return sb, true
	}
	if sb := ringLookup(all, tenant); sb != "" {
		return sb, true
	}
	return "", false
}

// Migrate moves a tenant to a named node via checkpoint handoff: pull
// the current owner's checkpoint, ship it to the target's adopt
// endpoint, repoint routing. The old owner keeps its engine running
// (draining it is future work); routing just stops sending readers
// there.
func (c *Coordinator) Migrate(ctx context.Context, tenant, to string) error {
	if _, ok := c.cfg.TenantSpec(tenant); !ok {
		return fmt.Errorf("%w: %q", fleet.ErrUnknownTenant, tenant)
	}
	target, ok := c.cfg.Node(to)
	if !ok {
		return fmt.Errorf("cluster: migrate %s: unknown node %q", tenant, to)
	}
	if !c.reg.Healthy(to) {
		return fmt.Errorf("cluster: migrate %s: %w: %s", tenant, ErrNodeDown, to)
	}
	owner, _ := c.Owner(tenant)
	if owner == to {
		return fmt.Errorf("cluster: migrate %s: %w on %s", tenant, fleet.ErrAlreadyHosted, to)
	}
	source, err := c.Route(tenant)
	if err != nil {
		return fmt.Errorf("cluster: migrate %s: %w", tenant, err)
	}
	cp, err := pullCheckpoint(ctx, c.client, source.Addr, tenant)
	if err != nil {
		return err
	}
	if err := postAdopt(ctx, c.client, target.Addr, tenant, &cp); err != nil {
		return err
	}
	c.mu.Lock()
	c.owners[tenant] = to
	c.mu.Unlock()
	c.logf("cluster: tenant %s: migrated %s -> %s (checkpoint at epoch %d)", tenant, owner, to, cp.TopologyEpoch)
	return nil
}

// CountProxied records one proxied request — the serving layer calls
// it as it answers.
func (c *Coordinator) CountProxied(node string) {
	c.mu.Lock()
	c.proxied[node]++
	c.mu.Unlock()
}

// Report assembles the per-node observability rows for the
// coordinator's /v1/tenants payload.
func (c *Coordinator) Report() []NodeReport {
	status := c.reg.Status()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeReport, 0, len(status))
	for _, st := range status {
		row := NodeReport{NodeStatus: st, Proxied: c.proxied[st.Name]}
		for _, t := range c.cfg.Tenants {
			if c.owners[t.Name] == st.Name {
				row.Tenants = append(row.Tenants, t.Name)
			}
		}
		out = append(out, row)
	}
	return out
}
