package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/devsim"
	"repro/internal/service"
	"repro/internal/tuning"
)

var bgCtx = context.Background()

// The served models are the daemon's state, not a workload input: they
// are trained from a fixed seed so every run of every seed serves the
// same models, and the seed varies only the requests sent to them.
const (
	fixtureSeed    = 20150525
	fixtureSamples = 100 // valid samples per device, the low end of the paper's range
	servedBench    = "convolution"
)

// portableDevices pool their samples into the portable model; the
// catalog GPUs missing here are the unseen hardware of topm_cold.
var portableDevices = []string{devsim.IntelI7, devsim.AMD7970, devsim.NvidiaK40}

var (
	exactKey    = service.ModelKey{Benchmark: servedBench, Device: devsim.IntelI7}
	portableKey = service.ModelKey{Benchmark: servedBench, Device: service.PortableDevice}
)

// gatherSamples measures random configurations of b on dev until n are
// valid.
func gatherSamples(b bench.Benchmark, dev *devsim.Device, n int, seed int64) ([]core.Sample, error) {
	m, err := core.NewSimMeasurer(b, dev, bench.Size{}, 3)
	if err != nil {
		return nil, err
	}
	space := b.Space()
	var out []core.Sample
	for _, idx := range space.SampleIndices(rand.New(rand.NewSource(seed)), 4*n+1000) {
		cfg := space.At(idx)
		secs, err := m.Measure(bgCtx, cfg)
		if devsim.IsInvalid(err) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if out = append(out, core.Sample{Config: cfg, Seconds: secs}); len(out) == n {
			return out, nil
		}
	}
	return nil, fmt.Errorf("only %d valid samples of %s on %s", len(out), b.Name(), dev.Name())
}

// deviceTail is the feature vector a portable model is bound with for
// a device.
func deviceTail(d devsim.Descriptor) []float64 { return tuning.DeviceVector(&d, nil) }

// trainServed trains the served models with the paper-default ensemble
// (k=11, 30 hidden): the per-device model when exact is set, and the
// portable model pooled over portableDevices.
func trainServed(exact bool) (map[service.ModelKey]*core.Model, error) {
	b := bench.MustLookup(servedBench)
	out := map[service.ModelKey]*core.Model{}
	var pooled []core.Sample
	for i, name := range portableDevices {
		dev := devsim.MustLookup(name)
		samples, err := gatherSamples(b, dev, fixtureSamples, fixtureSeed+int64(i))
		if err != nil {
			return nil, err
		}
		if exact && name == exactKey.Device {
			m, err := core.TrainModel(b.Space(), samples, nil, core.DefaultModelConfig(fixtureSeed))
			if err != nil {
				return nil, err
			}
			out[exactKey] = m
		}
		tail := deviceTail(dev.Descriptor())
		for _, s := range samples {
			s.Device = tail
			pooled = append(pooled, s)
		}
	}
	cfg := core.DefaultModelConfig(fixtureSeed)
	cfg.DeviceFeatures = true
	m, err := core.TrainModel(b.Space(), pooled, nil, cfg)
	if err != nil {
		return nil, err
	}
	out[portableKey] = m
	return out, nil
}

// putAndServe stores the models in a registry over dir, then starts the
// daemon over a fresh registry of the same directory, so it serves the
// files the way a restarted daemon does.
func putAndServe(dir string, models map[service.ModelKey]*core.Model) (*daemon, error) {
	reg, err := service.OpenRegistry(dir)
	if err != nil {
		return nil, err
	}
	for k, m := range models {
		if err := reg.Put(k, m); err != nil {
			return nil, err
		}
	}
	return startDaemon(dir)
}

// modelFile is the path of key's artifact in the daemon's registry.
func (d *daemon) modelFile(key service.ModelKey) (string, error) {
	for _, info := range d.reg.List() {
		if info.Benchmark == key.Benchmark && info.Device == key.Device {
			return filepath.Join(d.dir, info.File), nil
		}
	}
	return "", fmt.Errorf("no artifact for %s", key)
}

// optimum is the exhaustive noise-free optimum of m's space, the base
// of the paper's slowdown; the space is split over GOMAXPROCS workers.
func optimum(m *core.SimMeasurer) (float64, error) {
	space := m.Space()
	workers := runtime.GOMAXPROCS(0)
	best := make([]float64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			best[w] = math.Inf(1)
			for idx := int64(w); idx < space.Size(); idx += int64(workers) {
				if t, err := m.TrueTime(space.At(idx)); err == nil && t < best[w] {
					best[w] = t
				}
			}
		}(w)
	}
	wg.Wait()
	opt := math.Inf(1)
	for _, b := range best {
		opt = math.Min(opt, b)
	}
	if math.IsInf(opt, 1) {
		return 0, fmt.Errorf("no valid configuration of %s on %s", m.Benchmark().Name(), m.Device().Name())
	}
	return opt, nil
}

// slowdownOf is the paper's quality measure for a candidate list: the
// noise-free time of its best valid member over the exhaustive optimum
// (the tuner measures all M candidates and keeps the fastest).
func slowdownOf(m *core.SimMeasurer, opt float64, idxs []int64) (float64, error) {
	best := math.Inf(1)
	for _, idx := range idxs {
		if t, err := m.TrueTime(m.Space().At(idx)); err == nil {
			best = math.Min(best, t)
		}
	}
	if math.IsInf(best, 1) {
		return 0, fmt.Errorf("no valid candidate of %s on %s", m.Benchmark().Name(), m.Device().Name())
	}
	return best / opt, nil
}

// quality accumulates the slowdown of answered candidate lists; a list
// with no configuration valid on its device has no slowdown and is
// counted apart (the paper's "no prediction at all").
type quality struct {
	slowdowns      []float64
	lists, noValid int
}

func (q *quality) add(m *core.SimMeasurer, opt float64, idxs []int64) {
	q.lists++
	s, err := slowdownOf(m, opt, idxs)
	if err != nil {
		q.noValid++
		return
	}
	q.slowdowns = append(q.slowdowns, s)
}

// setQuality records the quality of a run's answers.
func (r *run) setQuality(q quality) {
	sd := 0.0
	if len(q.slowdowns) > 0 {
		sd = geomean(q.slowdowns)
	}
	r.layers.set("quality.slowdown", "ratio", sd)
	r.layers.set("quality.no_valid_share", "ratio", ratio(float64(q.noValid), float64(q.lists)))
	r.reportf("slowdown", sd, "ratio")
	r.reportf("no_valid_share", ratio(float64(q.noValid), float64(q.lists)), "ratio")
}
