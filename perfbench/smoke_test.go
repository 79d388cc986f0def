package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names BENCHMARK.json declares.
func declared(t *testing.T) (endToEnd, perLayer map[string]bool) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		if specByName(w.Name) == nil {
			t.Errorf("BENCHMARK.json workload %q is not defined", w.Name)
		}
	}
	endToEnd, perLayer = map[string]bool{}, map[string]bool{}
	for _, m := range spec.EndToEnd {
		endToEnd[m.Name] = true
	}
	for _, m := range spec.PerLayer {
		perLayer[m.Name] = true
	}
	return endToEnd, perLayer
}

// smoke runs one short benchmark pass, one deployment of one second, and
// checks its result: correct, nothing failed, and exactly the declared
// metrics.
func smoke(t *testing.T, workload string, traced bool, want map[string]bool) {
	t.Helper()
	cfg := &config{workload: specByName(workload), seed: 7, seconds: 1, root: "..", setups: 1}
	pass := runEndToEnd
	if traced {
		pass = runLayers
	}
	res, err := pass(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	for name := range want {
		if _, ok := res.Metrics[name]; !ok {
			t.Errorf("metric %s missing", name)
		}
	}
	for name := range res.Metrics {
		if !want[name] {
			t.Errorf("metric %s is not declared in BENCHMARK.json", name)
		}
	}
}

func TestSmokeEndToEnd(t *testing.T) {
	e2e, _ := declared(t)
	for _, w := range specs {
		t.Run(w.Name, func(t *testing.T) { smoke(t, w.Name, false, e2e) })
	}
}

func TestSmokeTraced(t *testing.T) {
	_, layers := declared(t)
	smoke(t, "frame-bound", true, layers)
}

// TestResultLine checks that a run prints a header and, as its last line,
// a result object with exactly the keys the benchmark contract names, and
// that it refuses an unknown workload.
func TestResultLine(t *testing.T) {
	if code := run([]string{"--workload", "no-such-workload"}, &bytes.Buffer{}); code == 0 {
		t.Fatal("unknown workload accepted")
	}
	var out bytes.Buffer
	args := []string{"--workload", "frame-bound", "--seed", "7", "--seconds", "1", "--trace", "0", "--root", ".."}
	if code := run(args, &out); code != 0 {
		t.Fatalf("exit code %d", code)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], `{"header":`) {
		t.Fatalf("no header line in %q", out.String())
	}
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	for _, k := range []string{"correct", "attempted", "failed", "metrics"} {
		if _, ok := res[k]; !ok {
			t.Errorf("result has no %q", k)
		}
	}
	if len(res) != 4 {
		t.Errorf("result has %d keys, want 4", len(res))
	}
}

func TestLayerMapCoversPerLayerMetrics(t *testing.T) {
	_, perLayer := declared(t)
	b, err := os.ReadFile("layers.json")
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Layers []struct{ Metrics []string }
	}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, l := range m.Layers {
		for _, name := range l.Metrics {
			if seen[name] || !perLayer[name] {
				t.Errorf("layers.json: %s is repeated or not a declared per-layer metric", name)
			}
			seen[name] = true
		}
	}
	for name := range perLayer {
		if !seen[name] {
			t.Errorf("layers.json does not map %s", name)
		}
	}
}
