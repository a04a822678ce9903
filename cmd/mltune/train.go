// The train subcommand drives mltuned's server-side training pipeline:
// it optionally pushes a JSONL sample file through POST /v1/samples,
// submits a POST /v1/train job, polls the job's seq-numbered event
// stream to completion, and (with -verify) round-trips a prediction from
// the freshly swapped model.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/url"
	"os"
	"strings"
	"time"

	"repro/internal/ann"
	"repro/internal/core"
	"repro/internal/service"
)

// ingestBatch is how many samples one POST /v1/samples push carries
// (the server caps a batch at 10000).
const ingestBatch = 2000

func runTrain(args []string) {
	fs := flag.NewFlagSet("mltune train", flag.ExitOnError)
	var (
		daemon     = fs.String("daemon", "http://localhost:8372", "mltuned base URL")
		benchName  = fs.String("bench", "convolution", "benchmark whose model to train")
		deviceName = fs.String("device", "", "device label of the model key (required)")
		samples    = fs.String("samples", "", "JSONL sample file to ingest first (see -dump-samples)")
		seed       = fs.Int64("seed", 1, "model initialisation seed")
		ensembleK  = fs.Int("ensemble-k", 0, "ensemble size (0 = paper default 11)")
		hidden     = fs.Int("hidden", 0, "hidden layer width (0 = paper default 30)")
		epochs     = fs.Int("epochs", 0, "training epochs per member (0 = default)")
		workers    = fs.Int("train-workers", 0, "parallel member training (0 = server budget)")
		minSamples = fs.Int("min-samples", 0, "fail below this many valid samples (0 = server default)")
		verify     = fs.Bool("verify", false, "after training, round-trip a /v1/topm + /v1/predict")
		verifyDev  = fs.String("verify-device", "", "device to verify against (required with -verify when -device is '*')")
		timeout    = fs.Duration("timeout", 10*time.Minute, "overall deadline for the job")
	)
	fs.Parse(args)
	if *deviceName == "" {
		fatal(fmt.Errorf("train: -device is required"))
	}
	portable := *deviceName == service.PortableDevice
	if portable && *samples != "" {
		fatal(fmt.Errorf("train: -samples ingests under one concrete device; ingest per device first, then train -device '*' to pool them"))
	}
	if *verifyDev == "" {
		*verifyDev = *deviceName
	}
	if *verify && *verifyDev == service.PortableDevice {
		fatal(fmt.Errorf("train: -verify needs a concrete device for a portable model; pass -verify-device"))
	}
	base := strings.TrimRight(*daemon, "/")
	client := &http.Client{Timeout: 30 * time.Second}

	if *samples != "" {
		recs, err := readSampleFile(*samples)
		if err != nil {
			fatal(err)
		}
		total := 0
		for lo := 0; lo < len(recs); lo += ingestBatch {
			hi := min(lo+ingestBatch, len(recs))
			var resp struct {
				Total int `json:"total"`
			}
			if err := postJSON(client, base+"/v1/samples", map[string]any{
				"benchmark": *benchName, "device": *deviceName, "source": "mltune",
				"samples": recs[lo:hi],
			}, http.StatusOK, &resp); err != nil {
				fatal(err)
			}
			total = resp.Total
		}
		fmt.Printf("ingested %d samples (%s@%s now holds %d)\n", len(recs), *benchName, *deviceName, total)
	}

	req := map[string]any{
		"benchmark": *benchName, "device": *deviceName, "seed": *seed,
	}
	model := service.ModelSpec{Ensemble: ann.EnsembleConfig{K: *ensembleK, Hidden: *hidden}}
	model.Ensemble.Train.Epochs = *epochs
	if *ensembleK > 0 || *hidden > 0 || *epochs > 0 {
		req["model"] = model
	}
	if *workers > 0 {
		req["workers"] = *workers
	}
	if *minSamples > 0 {
		req["min_samples"] = *minSamples
	}
	var job service.JobStatus
	if err := postJSON(client, base+"/v1/train", req, http.StatusAccepted, &job); err != nil {
		fatal(err)
	}
	fmt.Printf("training job %s submitted\n", job.ID)

	final, err := pollJob(client, base, job.ID, *timeout)
	if err != nil {
		fatal(err)
	}
	if final.State != service.JobSucceeded {
		fatal(fmt.Errorf("train: job %s finished %s: %s", final.ID, final.State, final.Error))
	}
	out := final.Outcome
	fmt.Printf("model trained on %d samples (%d invalid) and swapped into the registry\n",
		out.Measured, out.Invalid)

	if *verify {
		// For a portable (device "*") model the verification device
		// differs from the training key: resolution falls back to the
		// freshly trained <bench>@* model and binds the verify device.
		if err := verifyPredict(client, base, *benchName, *verifyDev); err != nil {
			fatal(err)
		}
	}
}

// pollJob polls the job's status and incremental event stream until it
// reaches a terminal state, printing progress as it arrives.
func pollJob(client *http.Client, base, id string, timeout time.Duration) (service.JobStatus, error) {
	deadline := time.Now().Add(timeout)
	after := -1
	for time.Now().Before(deadline) {
		var st struct {
			service.JobStatus
			Events []service.EventRecord `json:"events"`
		}
		url := fmt.Sprintf("%s/v1/jobs/%s?after=%d", base, id, after)
		if err := getJSON(client, url, &st); err != nil {
			return service.JobStatus{}, err
		}
		for _, ev := range st.Events {
			after = ev.Seq
			switch ev.Kind {
			case "train-progress":
				fmt.Printf("  trained member %d/%d\n", ev.Done, ev.Total)
			case "stage-started":
				fmt.Printf("  stage %s\n", ev.Stage)
			}
		}
		if st.State.Done() {
			return st.JobStatus, nil
		}
		time.Sleep(200 * time.Millisecond)
	}
	return service.JobStatus{}, fmt.Errorf("train: job %s did not finish within %s", id, timeout)
}

// verifyPredict round-trips the swapped model: the top-1 configuration
// from /v1/topm must predict bit-identically through /v1/predict — both
// are scored by the same exact float64 path.
func verifyPredict(client *http.Client, base, benchName, deviceName string) error {
	q := fmt.Sprintf("benchmark=%s&device=%s", url.QueryEscape(benchName), url.QueryEscape(deviceName))
	var top struct {
		Top []struct {
			Index   int64   `json:"index"`
			Seconds float64 `json:"seconds"`
		} `json:"top"`
	}
	if err := getJSON(client, base+"/v1/topm?"+q+"&m=1", &top); err != nil {
		return err
	}
	if len(top.Top) != 1 {
		return fmt.Errorf("train: /v1/topm returned %d entries", len(top.Top))
	}
	var pred struct {
		Seconds float64 `json:"seconds"`
	}
	if err := getJSON(client, fmt.Sprintf("%s/v1/predict?%s&index=%d", base, q, top.Top[0].Index), &pred); err != nil {
		return err
	}
	if want, got := top.Top[0].Seconds, pred.Seconds; got != want {
		return fmt.Errorf("train: verify mismatch: top-M %g vs predict %g", want, got)
	}
	fmt.Printf("verified: best predicted config %d at %.4f ms\n", top.Top[0].Index, pred.Seconds*1e3)
	return nil
}

// readSampleFile reads a JSONL file of service.SampleRecord lines (the
// -dump-samples format).
func readSampleFile(path string) ([]service.SampleRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []service.SampleRecord
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var rec service.SampleRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		recs = append(recs, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("%s: no samples", path)
	}
	return recs, nil
}

// writeSampleDump writes the run's valid measurements (stage 1 and stage
// 2, deduplicated by index) as JSONL sample records — the file format
// `mltune train -samples` ingests.
func writeSampleDump(path string, res *core.Result) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	seen := make(map[int64]bool)
	count := 0
	dump := func(samples []core.Sample) {
		for _, sm := range samples {
			idx := sm.Config.Index()
			if seen[idx] {
				continue
			}
			seen[idx] = true
			line, _ := json.Marshal(service.SampleRecord{Index: idx, Seconds: sm.Seconds, Source: "mltune"})
			w.Write(line)
			w.WriteByte('\n')
			count++
		}
	}
	dump(res.Samples)
	dump(res.SecondStage)
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("%d samples dumped to %s\n", count, path)
	return nil
}

// postJSON POSTs body as JSON and decodes the response into out,
// enforcing the expected status code.
func postJSON(client *http.Client, url string, body any, wantCode int, out any) error {
	buf, err := json.Marshal(body)
	if err != nil {
		return err
	}
	resp, err := client.Post(url, "application/json", bytes.NewReader(buf))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantCode {
		return httpError("POST", url, resp)
	}
	if out != nil {
		return json.NewDecoder(resp.Body).Decode(out)
	}
	return nil
}

// getJSON GETs url and decodes the JSON response into out.
func getJSON(client *http.Client, url string, out any) error {
	resp, err := client.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return httpError("GET", url, resp)
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// httpError surfaces the server's error payload, which is where the
// actionable message ("ingest more samples", ...) lives.
func httpError(method, url string, resp *http.Response) error {
	var apiErr struct {
		Error string `json:"error"`
	}
	if json.NewDecoder(resp.Body).Decode(&apiErr) == nil && apiErr.Error != "" {
		return fmt.Errorf("%s %s: %s (status %d)", method, url, apiErr.Error, resp.StatusCode)
	}
	return fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode)
}
