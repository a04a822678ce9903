package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/url"
	"strconv"

	"repro/internal/devsim"
	"repro/internal/service"
	"repro/internal/service/rpcclient"
)

// target addresses a model the way a client does: a benchmark plus
// either a device name or an inline descriptor of unseen hardware.
type target struct {
	bench  string
	device string
	desc   *devsim.Descriptor
}

// answer is a read-path reply reduced to what the checks compare: the
// configuration indices and their predicted seconds, in reply order.
type answer struct {
	idx  []int64
	secs []float64
}

// reader is one entry point of the daemon's read path. The same
// requests go through each: HTTP, RPC, and the in-process service.Server
// methods both transports adapt.
type reader interface {
	predict(t target, idx int64) (answer, error)
	batch(t target, idxs []int64) (answer, error)
	topM(t target, m int) (answer, error)
}

func fromPredictions(ps []service.Prediction) answer {
	a := answer{idx: make([]int64, len(ps)), secs: make([]float64, len(ps))}
	for i, p := range ps {
		a.idx[i], a.secs[i] = p.Index, p.Seconds
	}
	return a
}

// httpReader speaks the daemon's HTTP/JSON API.
type httpReader struct {
	c    *http.Client
	base string
}

func (h httpReader) query(t target) url.Values {
	q := url.Values{"benchmark": {t.bench}}
	if t.device != "" {
		q.Set("device", t.device)
	}
	if t.desc != nil {
		b, err := json.Marshal(t.desc)
		if err != nil {
			panic(err) // a Descriptor always encodes
		}
		q.Set("descriptor", string(b))
	}
	return q
}

// wirePrediction decodes only the fields the checks compare.
type wirePrediction struct {
	Index   int64   `json:"index"`
	Seconds float64 `json:"seconds"`
}

func fromWire(ps []wirePrediction) answer {
	a := answer{idx: make([]int64, len(ps)), secs: make([]float64, len(ps))}
	for i, p := range ps {
		a.idx[i], a.secs[i] = p.Index, p.Seconds
	}
	return a
}

func (h httpReader) get(path string, q url.Values, out any) error {
	req, err := http.NewRequest(http.MethodGet, h.base+path+"?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	return doJSON(h.c, req, out)
}

func (h httpReader) predict(t target, idx int64) (answer, error) {
	q := h.query(t)
	q.Set("index", strconv.FormatInt(idx, 10))
	var p wirePrediction
	if err := h.get("/v1/predict", q, &p); err != nil {
		return answer{}, err
	}
	return fromWire([]wirePrediction{p}), nil
}

func (h httpReader) batch(t target, idxs []int64) (answer, error) {
	body, err := json.Marshal(struct {
		Benchmark  string             `json:"benchmark"`
		Device     string             `json:"device,omitempty"`
		Descriptor *devsim.Descriptor `json:"descriptor,omitempty"`
		Indices    []int64            `json:"indices"`
	}{t.bench, t.device, t.desc, idxs})
	if err != nil {
		return answer{}, err
	}
	req, err := http.NewRequest(http.MethodPost, h.base+"/v1/predict", bytes.NewReader(body))
	if err != nil {
		return answer{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	var resp struct {
		Predictions []wirePrediction `json:"predictions"`
	}
	if err := doJSON(h.c, req, &resp); err != nil {
		return answer{}, err
	}
	return fromWire(resp.Predictions), nil
}

func (h httpReader) topM(t target, m int) (answer, error) {
	q := h.query(t)
	q.Set("m", strconv.Itoa(m))
	var resp struct {
		Top []wirePrediction `json:"top"`
	}
	if err := h.get("/v1/topm", q, &resp); err != nil {
		return answer{}, err
	}
	return fromWire(resp.Top), nil
}

// rpcReader speaks the binary RPC plane through the pooled client.
type rpcReader struct{ c *rpcclient.Client }

func (r rpcReader) predict(t target, idx int64) (answer, error) {
	resp, err := r.c.Predict(&service.PredictRequest{Benchmark: t.bench, Device: t.device, Descriptor: t.desc, HasIndex: true, Index: idx})
	if err != nil {
		return answer{}, err
	}
	return fromPredictions([]service.Prediction{resp.Prediction}), nil
}

func (r rpcReader) batch(t target, idxs []int64) (answer, error) {
	resp, err := r.c.PredictBatch(&service.PredictBatchRequest{Benchmark: t.bench, Device: t.device, Descriptor: t.desc, Indices: idxs})
	if err != nil {
		return answer{}, err
	}
	return fromPredictions(resp.Predictions), nil
}

func (r rpcReader) topM(t target, m int) (answer, error) {
	resp, err := r.c.TopM(&service.TopMRequest{Benchmark: t.bench, Device: t.device, Descriptor: t.desc, M: m})
	if err != nil {
		return answer{}, err
	}
	return fromPredictions(resp.Top), nil
}

// serviceReader calls the transport-agnostic service.Server methods in
// process: the inner entry the traced run re-issues requests at.
type serviceReader struct{ s *service.Server }

func (s serviceReader) predict(t target, idx int64) (answer, error) {
	resp, err := s.s.Predict(&service.PredictRequest{Benchmark: t.bench, Device: t.device, Descriptor: t.desc, HasIndex: true, Index: idx})
	if err != nil {
		return answer{}, err
	}
	return fromPredictions([]service.Prediction{resp.Prediction}), nil
}

func (s serviceReader) batch(t target, idxs []int64) (answer, error) {
	resp, err := s.s.PredictBatch(&service.PredictBatchRequest{Benchmark: t.bench, Device: t.device, Descriptor: t.desc, Indices: idxs})
	if err != nil {
		return answer{}, err
	}
	return fromPredictions(resp.Predictions), nil
}

func (s serviceReader) topM(t target, m int) (answer, error) {
	resp, err := s.s.TopM(&service.TopMRequest{Benchmark: t.bench, Device: t.device, Descriptor: t.desc, M: m})
	if err != nil {
		return answer{}, err
	}
	return fromPredictions(resp.Top), nil
}
