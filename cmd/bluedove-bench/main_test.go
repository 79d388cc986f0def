package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bluedove/internal/experiment"
)

func TestExperimentFlagsUniqueAndRegistered(t *testing.T) {
	seen := map[string]bool{}
	for _, e := range experiments {
		if seen[e.flag] {
			t.Errorf("experiment flag -%s registered twice", e.flag)
		}
		seen[e.flag] = true
		if e.run == nil || e.help == "" {
			t.Errorf("experiment -%s has no run func or help text", e.flag)
		}
		f := flag.Lookup(e.flag)
		if f == nil || f.Usage != e.help || f.DefValue != "false" {
			t.Errorf("experiment -%s is not registered as a boolean flag with its help text", e.flag)
		}
	}
	for _, name := range []string{"fig", "scale", "chaos-seed", "match-duration", "out"} {
		if seen[name] {
			t.Errorf("experiment flag -%s shadows a common flag", name)
		}
		if flag.Lookup(name) == nil {
			t.Errorf("common flag -%s not registered", name)
		}
	}
}

func TestMatchReportSchema(t *testing.T) {
	var match benchExperiment
	for _, e := range experiments {
		if e.flag == "match" {
			match = e
		}
	}
	r, err := match.run(benchArgs{matchDur: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "BENCH_match.json")
	if err := writeReport(path, r); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep struct {
		Header map[string]any `json:"header"`
		Result struct {
			Cells []map[string]any `json:"cells"`
		} `json:"result"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	for _, k := range []string{"gomaxprocs", "num_cpu", "go_version", "generated_at"} {
		if _, ok := rep.Header[k]; !ok {
			t.Errorf("header has no %q: %v", k, rep.Header)
		}
	}
	if len(rep.Result.Cells) == 0 {
		t.Fatal("result.cells is empty")
	}
	for _, k := range []string{"kind", "shards", "workload", "matched_per_sec", "stored_subs", "indexed_subs", "collapse_ratio"} {
		if _, ok := rep.Result.Cells[0][k]; !ok {
			t.Errorf("cell has no %q: %v", k, rep.Result.Cells[0])
		}
	}
}

func TestGatesRejectBrokenResults(t *testing.T) {
	passingDisk := func() *experiment.DiskFaultResult {
		return &experiment.DiskFaultResult{
			FailStop: experiment.DiskFaultFailStop{ZeroAckedLoss: true},
			Degrade:  experiment.DiskFaultDegrade{ZeroAckedLoss: true, HealthDegraded: true, AccountingExact: true},
		}
	}
	broken := func(f func(r *experiment.DiskFaultResult)) *experiment.DiskFaultResult {
		r := passingDisk()
		f(r)
		return r
	}
	cases := []struct {
		name   string
		gate   func(any, int64) error
		result any
		want   string // "" = must pass
	}{
		{"diskfault ok", diskFaultGate, passingDisk(), ""},
		{"diskfault failstop loss", diskFaultGate,
			broken(func(r *experiment.DiskFaultResult) { r.FailStop.ZeroAckedLoss = false }), "acked loss under FailStop"},
		{"diskfault degrade loss", diskFaultGate,
			broken(func(r *experiment.DiskFaultResult) { r.Degrade.ZeroAckedLoss = false }), "delivery loss under DegradeToMemory"},
		{"diskfault never degraded", diskFaultGate,
			broken(func(r *experiment.DiskFaultResult) { r.Degrade.HealthDegraded = false }), "store never degraded"},
		{"diskfault accounting hole", diskFaultGate,
			broken(func(r *experiment.DiskFaultResult) { r.Degrade.AccountingExact = false }), "accounting hole"},

		{"federation ok", federationGate, &experiment.FederationResult{ZeroAckedLoss: true}, ""},
		{"federation flap loss", federationGate, &experiment.FederationResult{}, "acked loss across the link flap"},
		{"federation leak", federationGate,
			&experiment.FederationResult{ZeroAckedLoss: true, RemoteLeaks: 1}, "leaked across the link"},

		{"edge ok", edgeGate,
			&experiment.EdgeResult{Backpressure: experiment.EdgePolicyResult{ZeroAckedLoss: true}}, ""},
		{"edge backpressure loss", edgeGate, &experiment.EdgeResult{}, "acked loss under backpressure"},
	}
	for _, c := range cases {
		err := c.gate(c.result, 42)
		switch {
		case c.want == "" && err != nil:
			t.Errorf("%s: gate rejected a passing result: %v", c.name, err)
		case c.want != "" && err == nil:
			t.Errorf("%s: gate accepted a broken result", c.name)
		case c.want != "" && (!strings.Contains(err.Error(), c.want) || !strings.Contains(err.Error(), "seed 42")):
			t.Errorf("%s: error %q does not name %q and the seed", c.name, err, c.want)
		}
	}
}
