package server

import (
	"flag"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"wavescalar/internal/cli"
	"wavescalar/internal/sim"
	"wavescalar/internal/surrogate"
)

// Regenerate with: go test -run TestMetricsFamilies -update ./internal/server
var updateFamilies = flag.Bool("update", false, "rewrite testdata/metrics_families.txt from this build")

// goLabel is the one label whose value depends on the toolchain, not the
// daemon.
var goLabel = regexp.MustCompile(`go="[^"]*"`)

// metricsStructure reduces a /metrics scrape to its shape: HELP and TYPE
// lines verbatim, sample lines as name plus labels with the value cut.
func metricsStructure(text string) string {
	var b strings.Builder
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if !strings.HasPrefix(line, "#") {
			line = line[:strings.LastIndexByte(line, ' ')]
			line = goLabel.ReplaceAllString(line, `go="<go>"`)
		}
		b.WriteString(line)
		b.WriteByte('\n')
	}
	return b.String()
}

// testSurrogateModel trains a small model on synthetic fft samples and
// saves it, so a server can load it without simulating a training set.
func testSurrogateModel(t *testing.T) string {
	t.Helper()
	sc, err := cli.ParseScale("tiny")
	if err != nil {
		t.Fatal(err)
	}
	var samples []surrogate.Sample
	for i, clusters := range []int{1, 2, 4, 8} {
		for j, virt := range []int{16, 64} {
			arch := sim.BaselineArch()
			arch.Clusters, arch.Virt, arch.Match = clusters, virt, virt
			samples = append(samples, surrogate.Sample{
				Key:    string(rune('a'+i)) + string(rune('a'+j)),
				X:      surrogate.Features(sim.Baseline(arch), "fft", sc, 1),
				AIPC:   float64(clusters) * (1 + float64(j)/4),
				Cycles: uint64(1000 * (i + j + 1)),
			})
		}
	}
	m, err := surrogate.Train(samples, surrogate.Options{})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestMetricsFamilies pins the /metrics structure — every family's HELP
// and TYPE line, in order, and every sample's name and labels — for a
// coordinator with a surrogate model and an external counter after a
// fixed request mix. Values are cut: the pin is about what is exposed,
// not how much traffic there was.
func TestMetricsFamilies(t *testing.T) {
	_, ts := newTestServer(t, WithWorkers(2), WithRole(RoleCoordinator),
		WithSurrogateModel(testSurrogateModel(t)), WithSurrogateThreshold(1000),
		WithExternalCounter("wsd_shipper_retries_total",
			"Journal ship attempts that failed and were rescheduled with backoff.",
			func() uint64 { return 0 }))

	for _, rq := range []struct {
		path, body string
		status     int
	}{
		{"/v1/runs", `{"workload":"fft"}`, http.StatusOK},
		{"/v1/runs", `{"workload":"fft"}`, http.StatusOK},
		{"/v1/runs", `{"bogus":1}`, http.StatusBadRequest},
		{"/v1/predict", `{"workload":"fft","config":{"clusters":2}}`, http.StatusOK},
		{"/v1/predict", `{"workload":"fft"}`, http.StatusOK},
		{"/v1/cluster/register", `{"id":"w1","addr":"http://127.0.0.1:1"}`, http.StatusOK},
	} {
		resp := post(t, ts.URL+rq.path, rq.body)
		resp.Body.Close()
		if resp.StatusCode != rq.status {
			t.Fatalf("POST %s %s: status %d, want %d", rq.path, rq.body, resp.StatusCode, rq.status)
		}
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	got := metricsStructure(readAll(t, resp))

	golden := filepath.Join("testdata", "metrics_families.txt")
	if *updateFamilies {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing %s (run `go test -run TestMetricsFamilies -update ./internal/server`): %v", golden, err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Fatalf("/metrics structure differs at line %d:\n got: %s\nwant: %s", i+1, g, w)
			}
		}
	}
}
