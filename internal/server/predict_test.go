package server

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
)

// postRaw posts a JSON body and returns the status plus the exact
// response bytes — the unit the byte-identity guarantees are stated in.
func postRaw(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, b
}

// TestPredictFallbackByteIdentical: a /v1/predict on a daemon with no
// model must be indistinguishable from /v1/runs — same status, same
// bytes. Two fresh servers make both sides cache-cold, so the comparison
// covers the full cold-run path, not just the cache fast path.
func TestPredictFallbackByteIdentical(t *testing.T) {
	body := `{"workload":"fft","scale":"tiny","threads":1}`

	_, tsRun := newTestServer(t, WithWorkers(2))
	runStatus, runBytes := postRaw(t, tsRun.URL+"/v1/runs", body)

	_, tsPred := newTestServer(t, WithWorkers(2))
	predStatus, predBytes := postRaw(t, tsPred.URL+"/v1/predict", body)

	if runStatus != http.StatusOK || predStatus != http.StatusOK {
		t.Fatalf("status: runs %d, predict %d", runStatus, predStatus)
	}
	if !bytes.Equal(runBytes, predBytes) {
		t.Errorf("fallback diverges from /v1/runs:\n%s\nvs\n%s", predBytes, runBytes)
	}
}

// TestPredictServedFromModel is the serving-path e2e: populate a journal
// with real runs, warm-restart with -surrogate-train, and check that a
// confident prediction is answered without simulation, that a later real
// run of the same cell feeds the observed-error metrics, and that a
// fault-injected request falls back.
func TestPredictServedFromModel(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "wsd.jsonl")

	// Phase 1: measure six cells across the (clusters, virt) plane.
	srv1, err := New(WithWorkers(4), WithJournal(journal, false))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	for _, cell := range []string{
		`{"workload":"fft","scale":"tiny","threads":1,"config":{"clusters":1,"virt":16,"match":16}}`,
		`{"workload":"fft","scale":"tiny","threads":1,"config":{"clusters":1,"virt":64,"match":64}}`,
		`{"workload":"fft","scale":"tiny","threads":1,"config":{"clusters":2,"virt":16,"match":16}}`,
		`{"workload":"fft","scale":"tiny","threads":1,"config":{"clusters":2,"virt":64,"match":64}}`,
		`{"workload":"fft","scale":"tiny","threads":1,"config":{"clusters":4,"virt":16,"match":16}}`,
		`{"workload":"fft","scale":"tiny","threads":1,"config":{"clusters":4,"virt":64,"match":64}}`,
	} {
		if status, b := postRaw(t, ts1.URL+"/v1/runs", cell); status != http.StatusOK {
			t.Fatalf("seeding run: status %d: %s", status, b)
		}
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	// Phase 2: warm restart, train at startup, serve with a gate generous
	// enough that the model always answers.
	srv2, err := New(WithWorkers(4), WithJournal(journal, true),
		WithSurrogateTrain(), WithSurrogateThreshold(1000))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Close()
	if srv2.Resumed() == 0 {
		t.Fatal("warm restart resumed no cells")
	}

	// An uncached cell: the model must answer it without the simulator.
	unseen := `{"workload":"fft","scale":"tiny","threads":1,"config":{"clusters":8,"virt":32,"match":32}}`
	resp := post(t, ts2.URL+"/v1/predict", unseen)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("predict: status %d", resp.StatusCode)
	}
	pred := decode[struct {
		Key    string `json:"key"`
		Source string `json:"source"`
		Model  struct {
			Kind      string  `json:"kind"`
			Samples   int     `json:"samples"`
			Threshold float64 `json:"threshold"`
		} `json:"model"`
		Result struct {
			App      string  `json:"app"`
			Arch     string  `json:"arch"`
			AIPC     float64 `json:"aipc"`
			RelSigma float64 `json:"rel_sigma"`
		} `json:"result"`
	}](t, resp)
	if pred.Source != "surrogate" {
		t.Fatalf("predict served source %q, want surrogate", pred.Source)
	}
	if pred.Model.Samples < 6 || pred.Model.Threshold != 1000 {
		t.Errorf("model %+v, want >=6 samples and the configured threshold", pred.Model)
	}
	if pred.Result.App != "fft" || pred.Result.AIPC <= 0 {
		t.Errorf("result %+v", pred.Result)
	}

	// Simulating the predicted cell for real closes the validation loop.
	if status, b := postRaw(t, ts2.URL+"/v1/runs", unseen); status != http.StatusOK {
		t.Fatalf("validation run: status %d: %s", status, b)
	}

	// A fault-injected request is never answered from the model: the
	// response is a plain run response (no "source"), and the fallback
	// reason is recorded.
	faulty := `{"workload":"fft","scale":"tiny","threads":1,"fault":{"seed":7,"link_flip_rate":0.001}}`
	fresp := post(t, ts2.URL+"/v1/predict", faulty)
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("faulty predict: status %d", fresp.StatusCode)
	}
	fb := decode[map[string]any](t, fresp)
	if _, hasSource := fb["source"]; hasSource {
		t.Error("fault-injected predict was answered from the model")
	}
	if _, hasCached := fb["cached"]; !hasCached {
		t.Errorf("fault-injected predict is not a run response: %v", fb)
	}

	metricsResp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := io.ReadAll(metricsResp.Body)
	metricsResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	metrics := string(mb)
	for _, want := range []string{
		"wsd_surrogate_predictions_total 1",
		"wsd_surrogate_validations_total 1",
		`wsd_surrogate_fallbacks_total{reason="fault"} 1`,
		"wsd_surrogate_confidence_threshold 1000",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	if !strings.Contains(metrics, "wsd_surrogate_observed_error_sum") {
		t.Error("metrics missing wsd_surrogate_observed_error_sum")
	}
}

// TestPredictLowConfidenceByteIdentical: with an impossibly strict gate
// the model must decline, and the fallback must be byte-identical to what
// a model-less daemon's /v1/runs produces for the same cold cell.
func TestPredictLowConfidenceByteIdentical(t *testing.T) {
	journal := filepath.Join(t.TempDir(), "wsd.jsonl")
	srv1, err := New(WithWorkers(4), WithJournal(journal, false))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	for _, cell := range []string{
		`{"workload":"fft","scale":"tiny","threads":1,"config":{"clusters":1,"virt":16,"match":16}}`,
		`{"workload":"fft","scale":"tiny","threads":1,"config":{"clusters":2,"virt":64,"match":64}}`,
		`{"workload":"fft","scale":"tiny","threads":1,"config":{"clusters":4,"virt":32,"match":32}}`,
	} {
		if status, b := postRaw(t, ts1.URL+"/v1/runs", cell); status != http.StatusOK {
			t.Fatalf("seeding run: status %d: %s", status, b)
		}
	}
	ts1.Close()
	if err := srv1.Close(); err != nil {
		t.Fatal(err)
	}

	srvStrict, err := New(WithWorkers(2), WithJournal(journal, true),
		WithSurrogateTrain(), WithSurrogateThreshold(1e-12))
	if err != nil {
		t.Fatal(err)
	}
	tsStrict := httptest.NewServer(srvStrict)
	defer tsStrict.Close()
	defer srvStrict.Close()

	// Cache-cold on both servers.
	unseen := `{"workload":"fft","scale":"tiny","threads":1,"config":{"clusters":2,"virt":128,"match":128}}`
	predStatus, predBytes := postRaw(t, tsStrict.URL+"/v1/predict", unseen)

	_, tsPlain := newTestServer(t, WithWorkers(2))
	runStatus, runBytes := postRaw(t, tsPlain.URL+"/v1/runs", unseen)

	if predStatus != http.StatusOK || runStatus != http.StatusOK {
		t.Fatalf("status: predict %d, runs %d", predStatus, runStatus)
	}
	if !bytes.Equal(predBytes, runBytes) {
		t.Errorf("low-confidence fallback diverges from /v1/runs:\n%s\nvs\n%s", predBytes, runBytes)
	}

	metricsResp, err := http.Get(tsStrict.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mb, err := io.ReadAll(metricsResp.Body)
	metricsResp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(mb), `wsd_surrogate_fallbacks_total{reason="low_confidence"} 1`) {
		t.Error("metrics missing the low_confidence fallback count")
	}
}

// TestPredictRejectsScenario: scenarios expand to many cells; /v1/predict
// refuses them instead of guessing.
func TestPredictRejectsScenario(t *testing.T) {
	_, ts := newTestServer(t)
	resp := post(t, ts.URL+"/v1/predict", `{"scenario":{"scenario":"v1","name":"x","workload":{"name":"fft"},"phases":[{"name":"p"}]}}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
}

// TestScenarioStoreWarmRestart: scenarios posted before a restart must be
// servable by digest after it, and re-posting must still dedup.
func TestScenarioStoreWarmRestart(t *testing.T) {
	store := filepath.Join(t.TempDir(), "wsd.scenarios")

	srv1, err := New(WithScenarioStore(store))
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	first := postScenario(t, ts1.URL, scenarioDoc)
	if !first.Created {
		t.Fatalf("first post: %+v", first)
	}
	ts1.Close()
	if err := srv1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	srv2, err := New(WithScenarioStore(store))
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(srv2)
	defer ts2.Close()
	defer srv2.Close()

	resp, err := http.Get(ts2.URL + "/v1/scenarios/" + first.Digest)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET after restart: status %d, want 200", resp.StatusCode)
	}
	again := postScenario(t, ts2.URL, scenarioDoc)
	if again.Created || again.Digest != first.Digest {
		t.Errorf("re-post after restart: %+v, want created=false digest %s", again, first.Digest)
	}
}

// TestScenarioPhaseValidatesPrediction: a scenario phase that simulates
// a cell the model once answered closes the loop exactly like a plain
// run does.
func TestScenarioPhaseValidatesPrediction(t *testing.T) {
	_, ts := newTestServer(t, WithWorkers(2),
		WithSurrogateModel(testSurrogateModel(t)), WithSurrogateThreshold(1000))

	config := `"config":{"clusters":8,"virt":32,"match":32}`
	resp := post(t, ts.URL+"/v1/predict", `{"workload":"fft","scale":"tiny","threads":1,`+config+`}`)
	pred := decode[map[string]any](t, resp)
	if resp.StatusCode != http.StatusOK || pred["source"] != "surrogate" {
		t.Fatalf("predict: status %d, %v", resp.StatusCode, pred)
	}
	phase := `{"scenario":{"scenario":"v1","workload":{"name":"fft"},"scale":"tiny","threads":[1]},` + config + `}`
	if status, b := postRaw(t, ts.URL+"/v1/runs", phase); status != http.StatusOK {
		t.Fatalf("scenario run: status %d: %s", status, b)
	}
	if got := scrapeMetric(t, ts.URL, "wsd_surrogate_validations_total"); got != "1" {
		t.Errorf("wsd_surrogate_validations_total = %s, want 1", got)
	}
}
