package obs_test

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"os"
	"strings"
	"testing"

	"qswitch/internal/obs"
	"qswitch/internal/obs/promcheck"
)

// The tests that read the registry's output back through the strict
// parser. They live outside package obs because promcheck imports it.

func TestPrometheusRoundtrip(t *testing.T) {
	r := obs.NewRegistry()
	r.Counter("rt_ops_total").Add(11)
	r.Counter(`rt_worker_chunks_total{worker="0"}`).Add(3)
	r.Counter(`rt_worker_chunks_total{worker="1"}`).Add(4)
	r.Gauge("rt_depth").Set(-2)
	r.FloatGauge("rt_halfwidth").Set(0.125)
	h := r.Histogram("rt_seconds", 0.1, 1)
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	if !strings.Contains(text, "# TYPE rt_worker_chunks_total counter") {
		t.Fatalf("labeled samples should share one TYPE line:\n%s", text)
	}
	samples, err := promcheck.Parse(strings.NewReader(text))
	if err != nil {
		t.Fatalf("own output should parse strictly: %v\n%s", err, text)
	}
	want := map[string]float64{
		"rt_ops_total":                       11,
		`rt_worker_chunks_total{worker="0"}`: 3,
		`rt_worker_chunks_total{worker="1"}`: 4,
		"rt_depth":                           -2,
		"rt_halfwidth":                       0.125,
		`rt_seconds_bucket{le="0.1"}`:        1,
		`rt_seconds_bucket{le="1"}`:          2,
		`rt_seconds_bucket{le="+Inf"}`:       3,
		"rt_seconds_count":                   3,
		"rt_seconds_sum":                     5.55,
	}
	for k, v := range want {
		got, ok := samples[k]
		if !ok {
			t.Errorf("missing sample %q in:\n%s", k, text)
			continue
		}
		if math.Abs(got-v) > 1e-9 {
			t.Errorf("sample %q = %v, want %v", k, got, v)
		}
	}
	// Deterministic output: a second render must be byte-identical.
	var buf2 bytes.Buffer
	if err := r.WritePrometheus(&buf2); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != text {
		t.Fatal("WritePrometheus output is not deterministic")
	}
}

func TestParsePrometheusRejects(t *testing.T) {
	cases := map[string]string{
		"bad name":            "9bad_name 1\n",
		"bad value":           "ok_metric one\n",
		"duplicate sample":    "ok_metric 1\nok_metric 2\n",
		"bad TYPE":            "# TYPE ok_metric enum\n",
		"duplicate TYPE":      "# TYPE m counter\n# TYPE m counter\n",
		"histogram collision": "# TYPE m histogram\nm 1\n",
		"bucket on counter":   "# TYPE m counter\nm_bucket{le=\"1\"} 1\n",
		"unterminated label":  "m{worker=\"0 1\n",
		"unquoted label":      "m{worker=0} 1\n",
		"missing value":       "ok_metric\n",
		"bad timestamp":       "ok_metric 1 soon\n",
		"labeled TYPE name":   "# TYPE m{a=\"b\"} counter\n",
	}
	for name, in := range cases {
		if _, err := promcheck.Parse(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Parse(%q) should fail", name, in)
		}
	}
	// Non-error forms: timestamps, comments, +Inf/NaN values.
	ok := "# scrape note\n# TYPE m counter\nm 1 1700000000\nn +Inf\no NaN\n"
	if _, err := promcheck.Parse(strings.NewReader(ok)); err != nil {
		t.Fatalf("valid exposition rejected: %v", err)
	}
}

func TestHTTPEndpoints(t *testing.T) {
	reg := obs.NewRegistry()
	reg.Counter("http_ops_total").Add(9)
	srv, err := obs.StartServer("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path string) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d\n%s", path, resp.StatusCode, body)
		}
		return body
	}

	samples, err := promcheck.Parse(bytes.NewReader(get("/metrics")))
	if err != nil {
		t.Fatalf("/metrics is not strictly parseable: %v", err)
	}
	if samples["http_ops_total"] != 9 {
		t.Fatalf("/metrics samples = %v", samples)
	}
	var vars map[string]float64
	if err := json.Unmarshal(get("/debug/vars"), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if vars["http_ops_total"] != 9 {
		t.Fatalf("/debug/vars = %v", vars)
	}
	if body := get("/debug/pprof/"); !bytes.Contains(body, []byte("goroutine")) {
		t.Fatalf("/debug/pprof/ index looks wrong:\n%s", body)
	}
}

// TestPromFile validates an externally captured Prometheus exposition
// (e.g. CI's curl of a live qswitchd /metrics) with the strict parser.
// It is a no-op unless QSWITCH_PROMFILE points at a scrape to check.
func TestPromFile(t *testing.T) {
	path := os.Getenv("QSWITCH_PROMFILE")
	if path == "" {
		t.Skip("QSWITCH_PROMFILE not set")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	samples, err := promcheck.Parse(f)
	if err != nil {
		t.Fatalf("scrape %s is not valid Prometheus text format: %v", path, err)
	}
	if len(samples) == 0 {
		t.Fatalf("scrape %s contains no samples", path)
	}
	t.Logf("scrape %s: %d samples valid", path, len(samples))
}
