package gateway

import (
	"context"
	"net/http"

	"repro/service"
)

// Client is the typed counterpart of the gateway's HTTP API. The
// embedded service.Client covers the mirrored front routes (uploads,
// estimates, batches) — a gateway is a drop-in service endpoint — and
// the methods here cover what only a gateway serves: its aggregate
// stats and the backend-pool admin surface. All construction options
// (WithTimeout, WithAccept, WithRetry, …) live on the embedded
// service.Client, so the two clients share one configuration surface.
type Client struct {
	*service.Client
}

// Dial returns a client for the given gateway root, addressing the
// versioned /v1 surface; service.ClientOption values apply to every
// call, front and admin alike.
func Dial(baseURL string, opts ...service.ClientOption) *Client {
	return &Client{Client: service.New(baseURL, opts...)}
}

// GatewayStats fetches the gateway's aggregate and per-backend
// counters. (The embedded Stats method decodes a backend engine's
// stats shape; a gateway's /stats is this one.)
func (c *Client) GatewayStats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.Do(ctx, http.MethodGet, "/stats", nil, &out)
	return out, err
}

// Backends lists the gateway's backend pool with health and counters.
func (c *Client) Backends(ctx context.Context) ([]BackendStatus, error) {
	var out []BackendStatus
	err := c.Do(ctx, http.MethodGet, "/admin/backends", nil, &out)
	return out, err
}

// AddBackend registers a backend (or un-drains an existing one) and
// rebalances placements onto it.
func (c *Client) AddBackend(ctx context.Context, addr string) (RebalanceReport, error) {
	return c.admin(ctx, "add", addr)
}

// DrainBackend marks a backend draining and rebalances its placements
// away.
func (c *Client) DrainBackend(ctx context.Context, addr string) (RebalanceReport, error) {
	return c.admin(ctx, "drain", addr)
}

// RemoveBackend drops a backend from the pool after rebalancing its
// placements away.
func (c *Client) RemoveBackend(ctx context.Context, addr string) (RebalanceReport, error) {
	return c.admin(ctx, "remove", addr)
}

func (c *Client) admin(ctx context.Context, op, addr string) (RebalanceReport, error) {
	var out RebalanceReport
	err := c.Do(ctx, http.MethodPost, "/admin/backends", AdminRequest{Op: op, Addr: addr}, &out)
	return out, err
}
