package main

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// Span names, outermost first. A traced request is issued at the outer
// entry (client: HTTP or RPC, or a tuning job over HTTP) and then
// re-issued at each inner public entry, each call recorded as a span
// whose parent is the next entry out.
const (
	spanClient  = "client"        // HTTP or RPC round trip, or job submit-to-done
	spanService = "service"       // service.Server method (tune: Session.Run plus Registry.Put)
	spanCore    = "core"          // core.Model call on the served model (tune: Session.Run)
	spanEncode  = "tuning.encode" // FeatureSchema.EncodeIndex of the request's configurations
)

// span is one timed call of one request at one layer.
type span struct {
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps every span in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
	reqs  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// request allocates the identifier all spans of one request share.
func (t *tracer) request() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqs++
	return t.reqs
}

func (t *tracer) add(req int, name, parent string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Req: req, Name: name, Parent: parent,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
}

// selfTimes returns, for every span named name of a request keep accepts
// (nil keeps all), its duration minus the durations of the same
// request's spans whose parent is name: the time that layer spends on
// the request beyond the layers inside it.
func (t *tracer) selfTimes(name string, keep func(req int) bool) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int]time.Duration{}
	for _, s := range t.spans {
		if s.Parent == name {
			children[s.Req] += s.dur()
		}
	}
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name && (keep == nil || keep(s.Req)) {
			out = append(out, s.dur()-children[s.Req])
		}
	}
	return out
}

// durations returns the durations of every span named name.
func (t *tracer) durations(name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return out
}

// meanSelfMicros is the mean self time of the spans named name of the
// requests keep accepts, in µs (0 when there is no such span).
func (t *tracer) meanSelfMicros(name string, keep func(req int) bool) float64 {
	st := t.selfTimes(name, keep)
	if len(st) == 0 {
		return 0
	}
	sum := time.Duration(0)
	for _, d := range st {
		sum += d
	}
	return float64(sum) / float64(len(st)) / float64(time.Microsecond)
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
