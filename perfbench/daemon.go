package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/telemetry"
)

// daemon is mltuned running in this process, wired the way cmd/mltuned
// wires it by default: a localfs registry, the default engine, role all,
// -max-inflight 256, and HTTP plus RPC listeners on 127.0.0.1.
type daemon struct {
	dir     string
	reg     *service.Registry
	srv     *service.Server
	http    *http.Server
	base    string // HTTP base URL
	rpcAddr string
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// startDaemon opens a fresh registry over dir, so models already Put
// there are served from their files the way a restarted daemon serves
// them, and starts both listeners.
func startDaemon(dir string) (*daemon, error) {
	reg, err := service.OpenRegistry(dir)
	if err != nil {
		return nil, err
	}
	srv, err := service.New(reg, 0, 64, service.WithRole(service.RoleAll), service.WithMaxInflight(256))
	if err != nil {
		return nil, err
	}
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	rl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hl.Close()
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	d := &daemon{
		dir: dir, reg: reg, srv: srv,
		http:    &http.Server{Handler: srv, ReadHeaderTimeout: 10 * time.Second},
		base:    "http://" + hl.Addr().String(),
		rpcAddr: rl.Addr().String(),
		cancel:  cancel,
	}
	d.wg.Add(2)
	go func() {
		defer d.wg.Done()
		d.http.Serve(hl) // returns http.ErrServerClosed once stop shuts it down
	}()
	go func() {
		defer d.wg.Done()
		srv.ServeRPC(ctx, rl) // returns once ctx is cancelled
	}()
	return d, nil
}

// stop shuts both listeners and the job queue down and waits for the
// serving goroutines to return.
func (d *daemon) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	d.http.Shutdown(ctx)
	d.cancel()
	d.srv.Drain(ctx)
	d.wg.Wait()
}

// newHTTPClient is a keep-alive client holding at most conns connections.
func newHTTPClient(conns int) *http.Client {
	return &http.Client{
		Transport: &http.Transport{
			MaxIdleConns:        conns,
			MaxIdleConnsPerHost: conns,
			MaxConnsPerHost:     conns,
			DisableCompression:  true,
		},
		Timeout: 120 * time.Second,
	}
}

// statusError is a non-2xx HTTP answer.
type statusError struct {
	code int
	body string
}

func (e *statusError) Error() string { return fmt.Sprintf("HTTP %d: %s", e.code, e.body) }

// doJSON sends one request and decodes a 2xx JSON answer into out.
func doJSON(c *http.Client, req *http.Request, out any) error {
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return &statusError{code: resp.StatusCode, body: strings.TrimSpace(string(body))}
	}
	return json.Unmarshal(body, out)
}

// counters is a flat view of the daemon's /v1/stats telemetry: counters
// and gauges under their labelled name, histograms as name#count and
// name#sum.
type counters map[string]float64

// counterKey renders a metric name plus label pairs (name, value, ...)
// the way counters stores it.
func counterKey(name string, labels ...string) string {
	if len(labels) == 0 {
		return name
	}
	pairs := make([]string, 0, len(labels)/2)
	for i := 0; i+1 < len(labels); i += 2 {
		pairs = append(pairs, labels[i]+"="+labels[i+1])
	}
	sort.Strings(pairs)
	return name + "{" + strings.Join(pairs, ",") + "}"
}

// fetchCounters reads GET /v1/stats.
func fetchCounters(c *http.Client, base string) (counters, error) {
	var stats struct {
		Telemetry struct {
			Metrics []struct {
				Name   string                    `json:"name"`
				Values []telemetry.ValueSnapshot `json:"values"`
			} `json:"metrics"`
		} `json:"telemetry"`
	}
	req, err := http.NewRequest(http.MethodGet, base+"/v1/stats", nil)
	if err != nil {
		return nil, err
	}
	if err := doJSON(c, req, &stats); err != nil {
		return nil, fmt.Errorf("reading /v1/stats: %w", err)
	}
	out := counters{}
	for _, m := range stats.Telemetry.Metrics {
		for _, v := range m.Values {
			labels := make([]string, 0, 2*len(v.Labels))
			for k, lv := range v.Labels {
				labels = append(labels, k, lv)
			}
			key := counterKey(m.Name, labels...)
			if len(v.Buckets) > 0 {
				out[key+"#count"] = float64(v.Count)
				out[key+"#sum"] = v.Sum
				continue
			}
			out[key] = v.Value
		}
	}
	return out, nil
}

// since returns c − prev for every key of c.
func (c counters) since(prev counters) counters {
	out := make(counters, len(c))
	for k, v := range c {
		out[k] = v - prev[k]
	}
	return out
}

// httpRoute and rpcMethod name the daemon's per-route and per-method
// request counters.
func httpRoute(pattern string) string {
	return counterKey("mltuned_http_requests_total", "route", pattern)
}

func rpcMethod(method string) string {
	return counterKey("mltuned_rpc_requests_total", "method", method)
}

// meanMicros is a histogram's mean observation in microseconds over a
// counter diff (its durations are in seconds).
func (c counters) meanMicros(hist string) float64 {
	return ratio(c[hist+"#sum"], c[hist+"#count"]) * 1e6
}
