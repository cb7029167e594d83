package cluster

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
	"net/http"
	"path/filepath"
	"time"

	"repro/internal/fleet"
	"repro/internal/stream"
)

// Node is one cluster member's runtime around its local fleet: it
// answers the serve layer's NodeAdmin surface (name + adopt) and runs
// a checkpoint-sync loop for every tenant it stands by for, so a
// promotion restores from a file that is at most one sync interval
// stale — a warm restore, not a cold rebuild.
type Node struct {
	cfg    Config
	name   string
	f      *fleet.Fleet
	dir    string // checkpoint directory; standby copies land here too
	client *http.Client
	logf   func(format string, args ...any)
}

// NewNode builds the member runtime for the named node. dir is the
// node's checkpoint directory: standby copies are written to the same
// <dir>/<tenant>.ckpt path the fleet persists to, so an adopted tenant
// simply continues the file. client may be nil for http.DefaultClient;
// logf may be nil to discard.
func NewNode(cfg Config, name string, f *fleet.Fleet, dir string, client *http.Client, logf func(string, ...any)) (*Node, error) {
	if _, ok := cfg.Node(name); !ok {
		return nil, fmt.Errorf("cluster: node %q is not in the cluster config", name)
	}
	if client == nil {
		client = http.DefaultClient
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &Node{cfg: cfg, name: name, f: f, dir: dir, client: client, logf: logf}, nil
}

// NodeName returns this node's name in the cluster config (the
// X-Tenant-Node header value).
func (n *Node) NodeName() string { return n.name }

// standbyPath is where a tenant's synced standby checkpoint lives —
// deliberately the fleet's own checkpoint path, so Adopt restores it
// and the post-adopt persist loop continues the same file.
func (n *Node) standbyPath(tenant string) string {
	return filepath.Join(n.dir, tenant+".ckpt")
}

// Run starts one checkpoint-sync loop per tenant this node stands by
// for and blocks until ctx is done. Safe to run with zero standby
// assignments (it just waits).
func (n *Node) Run(ctx context.Context) {
	for _, spec := range n.cfg.StandbyOn(n.name) {
		go n.syncLoop(ctx, spec)
	}
	<-ctx.Done()
}

// syncLoop periodically pulls the owning node's checkpoint for one
// tenant and persists it locally. Once the tenant is hosted here (the
// standby was promoted) the loop stops syncing — the local persist
// loop owns the file from then on. Pull failures are quietly retried:
// the owner being down is exactly when the last synced copy matters.
func (n *Node) syncLoop(ctx context.Context, spec fleet.TenantSpec) {
	owner, ok := n.cfg.Node(n.cfg.Owner(spec.Name))
	if !ok {
		return
	}
	tick := time.NewTicker(n.cfg.syncEvery())
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		if _, hosted := n.f.Tenant(spec.Name); hosted {
			return
		}
		cp, err := pullCheckpoint(ctx, n.client, owner.Addr, spec.Name)
		if err != nil {
			continue
		}
		if cp.Snapshot == nil {
			continue // nothing published yet; a cold checkpoint is not worth a standby file
		}
		if err := stream.SaveCheckpoint(n.standbyPath(spec.Name), cp); err != nil {
			n.logf("cluster: standby sync %s: %v", spec.Name, err)
		}
	}
}

// Adopt makes this node host a tenant — the receiving half of
// checkpoint handoff, wired into POST /v1/cluster/adopt. The restored
// state is, in order of preference: the checkpoint shipped in the
// request, else this node's synced standby copy, else nothing (a cold
// adopt). Returns fleet.ErrUnknownTenant for tenants outside the
// cluster config and fleet.ErrAlreadyHosted for promotion retries.
func (n *Node) Adopt(ctx context.Context, tenant string, cp *stream.Checkpoint) error {
	spec, ok := n.cfg.TenantSpec(tenant)
	if !ok {
		return fmt.Errorf("cluster: %w: %q is not in the cluster config", fleet.ErrUnknownTenant, tenant)
	}
	if _, hosted := n.f.Tenant(tenant); hosted {
		return fmt.Errorf("cluster: %w: %q", fleet.ErrAlreadyHosted, tenant)
	}
	if cp == nil {
		loaded, err := stream.LoadCheckpoint(n.standbyPath(tenant))
		switch {
		case err == nil:
			cp = &loaded
			n.logf("cluster: adopting %s from synced standby checkpoint", tenant)
		case errors.Is(err, fs.ErrNotExist):
			n.logf("cluster: adopting %s cold (no shipped or synced checkpoint)", tenant)
		default:
			return fmt.Errorf("cluster: adopt %s: standby checkpoint: %w", tenant, err)
		}
	}
	_, err := n.f.Adopt(spec, cp)
	return err
}
