package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"repro/internal/fleet"
	"repro/internal/stream"
)

// The checkpoint handoff is the only state nodes exchange: a standby
// or a migration pulls the owner's checkpoint, and a promotion or a
// migration posts an adopt to the node taking the tenant over.

// pullCheckpoint fetches a tenant's handoff checkpoint from the node at
// addr, bounded at 10s on top of ctx.
func pullCheckpoint(ctx context.Context, client *http.Client, addr, tenant string) (cp stream.Checkpoint, err error) {
	defer func() {
		if err != nil {
			err = fmt.Errorf("cluster: pull checkpoint for %s from %s: %w", tenant, addr, err)
		}
	}()
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/v1/t/"+tenant+"/checkpoint", nil)
	if err != nil {
		return cp, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return cp, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
		return cp, errors.New(resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&cp); err != nil {
		return stream.Checkpoint{}, err
	}
	return cp, nil
}

// postAdopt tells the node at addr to host a tenant, bounded at 30s on
// top of ctx. cp is the shipped state of a migration; nil lets the
// node restore its own synced standby copy, as a promotion does. The
// v1 error envelope maps back onto the lifecycle sentinels, so a 409
// from a promotion retry reads as fleet.ErrAlreadyHosted.
func postAdopt(ctx context.Context, client *http.Client, addr, tenant string, cp *stream.Checkpoint) error {
	body, err := json.Marshal(struct {
		Tenant     string             `json:"tenant"`
		Checkpoint *stream.Checkpoint `json:"checkpoint,omitempty"`
	}{tenant, cp})
	if err != nil {
		return err
	}
	ctx, cancel := context.WithTimeout(ctx, 30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+addr+"/v1/cluster/adopt", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		return nil
	case http.StatusConflict:
		return fmt.Errorf("cluster: adopt on %s: %w", addr, fleet.ErrAlreadyHosted)
	case http.StatusNotFound:
		return fmt.Errorf("cluster: adopt on %s: %w", addr, fleet.ErrUnknownTenant)
	}
	var e struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	msg := resp.Status
	if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&e) == nil && e.Error.Message != "" {
		msg = e.Error.Message
	}
	return errors.New("cluster: adopt on " + addr + ": " + msg)
}
