package serve

// Client is the typed HTTP client over the /v1 API's control plane: what
// hdcps-load and the benchmark speak. Tasks are submitted over a
// PersistentStream (stream.go), the one client submit path.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sync"
	"time"
)

// Client talks to one hdcps-serve instance.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HC is the underlying HTTP client (nil: a 30s-timeout default).
	HC *http.Client
}

func (c *Client) hc() *http.Client {
	if c.HC != nil {
		return c.HC
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// call sends in as a JSON body (none when nil) with method to path, and
// decodes a 2xx reply into out.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.Base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode >= 300 {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("serve client: %s %s: %s: %s", method, path, resp.Status, bytes.TrimSpace(raw))
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Info fetches /v1/info.
func (c *Client) Info(ctx context.Context) (Info, error) {
	var info Info
	err := c.call(ctx, http.MethodGet, "/v1/info", nil, &info)
	return info, err
}

// CreateJob registers a new tenant and returns its ID.
func (c *Client) CreateJob(ctx context.Context, spec JobSpec) (uint32, error) {
	var out struct {
		ID uint32 `json:"id"`
	}
	if err := c.call(ctx, http.MethodPost, "/v1/jobs", spec, &out); err != nil {
		return 0, err
	}
	return out.ID, nil
}

// RefreshGen returns a concurrency-safe task generator for the serving
// load shape: "refresh" tasks at uniformly random nodes with priority and
// distance 0. For SSSP-style workloads the first wave re-relaxes from the
// touched nodes and then settles, so steady-state service cost is bounded
// (examine the node's edges, rarely emit) — the right shape for measuring
// the serving knee rather than algorithm convergence. The rand source is
// mutex-guarded; contention is negligible next to the wait for an ack.
func RefreshGen(nodes int, seed int64) func(n int) []TaskSpec {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func(n int) []TaskSpec {
		specs := make([]TaskSpec, n)
		mu.Lock()
		for i := range specs {
			specs[i] = TaskSpec{Node: uint32(rng.Intn(nodes))}
		}
		mu.Unlock()
		return specs
	}
}
