package main

import (
	"fmt"
	"sort"
)

// SchemaVersion identifies the BENCH_serve.json layout. Consumers (CI,
// the e2e smoke test, before/after comparisons on serve-path PRs) pin
// it; bump it only with a corresponding reader change.
const SchemaVersion = "mltuned-bench/v1"

// Report is the BENCH_serve.json document.
type Report struct {
	Schema    string                   `json:"schema"`
	Run       RunInfo                  `json:"run"`
	Endpoints map[string]EndpointStats `json:"endpoints"`
	Daemon    DaemonInfo               `json:"daemon"`
}

// RunInfo records how the load was generated, so a report is
// interpretable (and reproducible) on its own.
type RunInfo struct {
	Addr      string `json:"addr"`
	Benchmark string `json:"benchmark"`
	Device    string `json:"device"`
	Workers   int    `json:"workers"`
	// TargetQPS is 0 for a closed loop (workers re-issue as fast as
	// responses come back) and the pacing target for an open loop.
	TargetQPS       float64 `json:"target_qps"`
	DurationSeconds float64 `json:"duration_seconds"`
	WarmupSeconds   float64 `json:"warmup_seconds"`
	BatchSize       int     `json:"batch_size"`
	TopM            int     `json:"top_m"`
	// SpaceSize is the tuning-space size indices were drawn from.
	SpaceSize int64  `json:"space_size"`
	Started   string `json:"started"`
	// Engine is the daemon's read-path inference engine and WeightFormat
	// the served model's persistence version, both as reported by the
	// GET /v1/models listing. Both are additive detail (absent
	// against daemons that predate them, or when the probe could not
	// determine them), so pre-existing v1 readers are unaffected —
	// the schema stays mltuned-bench/v1.
	Engine       string `json:"engine,omitempty"`
	WeightFormat int    `json:"weight_format,omitempty"`
	// Proto is the transport the load ran over: "http" (the default,
	// absent in older reports) or "rpc" (the binary protocol on the
	// daemon's -rpc-addr listener, recorded in RPCAddr). Additive
	// detail; the schema stays mltuned-bench/v1.
	Proto   string `json:"proto,omitempty"`
	RPCAddr string `json:"rpc_addr,omitempty"`
}

// EndpointStats is one endpoint's aggregate over the measure phase.
type EndpointStats struct {
	Requests uint64 `json:"requests"`
	OK       uint64 `json:"ok"`
	Shed     uint64 `json:"shed"`
	Errors   uint64 `json:"errors"`
	// Retries counts shed responses the closed loop retried after
	// honoring the daemon's Retry-After hint. Retried attempts are
	// already counted in Requests and Shed — this field is additive
	// detail, so pre-existing readers of the v1 schema are unaffected.
	Retries     uint64         `json:"retries,omitempty"`
	AchievedQPS float64        `json:"achieved_qps"`
	Latency     LatencySummary `json:"latency_seconds"`
}

// LatencySummary is the quantile digest of one endpoint's latencies,
// in seconds.
type LatencySummary struct {
	P50  float64 `json:"p50"`
	P95  float64 `json:"p95"`
	P99  float64 `json:"p99"`
	Max  float64 `json:"max"`
	Mean float64 `json:"mean"`
}

// DaemonInfo carries the daemon's own view of the run: the counter
// deltas between the /v1/stats snapshots taken around the measure
// phase. Client-side and server-side request counts must agree; a
// mismatch means dropped or double-counted requests somewhere.
type DaemonInfo struct {
	MetricsDiff map[string]float64 `json:"metrics_diff"`
}

// Validate checks the report against the schema contract the e2e smoke
// test and CI consumers rely on.
func (r *Report) Validate() error {
	if r.Schema != SchemaVersion {
		return fmt.Errorf("schema %q, want %q", r.Schema, SchemaVersion)
	}
	if r.Run.Addr == "" || r.Run.Benchmark == "" || r.Run.Device == "" {
		return fmt.Errorf("run is missing addr/benchmark/device: %+v", r.Run)
	}
	if r.Run.Workers < 1 || r.Run.DurationSeconds <= 0 || r.Run.SpaceSize < 1 {
		return fmt.Errorf("run has non-positive workers/duration/space_size: %+v", r.Run)
	}
	// Engine and WeightFormat are additive fields; when present they must
	// still be plausible (the one engine a daemon reports, a positive
	// persistence version), so a mangled report cannot hide behind
	// "optional".
	if e := r.Run.Engine; e != "" && e != "float64" {
		return fmt.Errorf("run.engine %q is not the daemon's engine (float64)", e)
	}
	if r.Run.WeightFormat < 0 {
		return fmt.Errorf("run.weight_format %d is negative", r.Run.WeightFormat)
	}
	if p := r.Run.Proto; p != "" && p != "http" && p != "rpc" {
		return fmt.Errorf("run.proto %q is not a known protocol (http, rpc)", p)
	}
	if r.Run.Proto == "rpc" && r.Run.RPCAddr == "" {
		return fmt.Errorf("run.proto is rpc but run.rpc_addr is empty")
	}
	if len(r.Endpoints) == 0 {
		return fmt.Errorf("no endpoints measured")
	}
	names := make([]string, 0, len(r.Endpoints))
	for name := range r.Endpoints {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ep := r.Endpoints[name]
		if ep.Requests == 0 {
			return fmt.Errorf("endpoint %s measured zero requests", name)
		}
		if ep.OK+ep.Shed+ep.Errors != ep.Requests {
			return fmt.Errorf("endpoint %s: ok %d + shed %d + errors %d != requests %d",
				name, ep.OK, ep.Shed, ep.Errors, ep.Requests)
		}
		if ep.Retries > ep.Shed {
			return fmt.Errorf("endpoint %s: retries %d exceed shed %d (every retry follows a shed response)",
				name, ep.Retries, ep.Shed)
		}
		if ep.AchievedQPS <= 0 {
			return fmt.Errorf("endpoint %s: non-positive achieved_qps", name)
		}
		l := ep.Latency
		if !(l.P50 > 0 && l.P50 <= l.P95 && l.P95 <= l.P99 && l.P99 <= l.Max) {
			return fmt.Errorf("endpoint %s: quantiles not ordered: %+v", name, l)
		}
	}
	if r.Daemon.MetricsDiff == nil {
		return fmt.Errorf("daemon.metrics_diff is missing")
	}
	return nil
}
