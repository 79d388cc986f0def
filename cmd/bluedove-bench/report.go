package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"bluedove/internal/experiment"
)

// benchHeader stamps every BENCH_*.json with when and where it ran, so
// numbers from different machines or parallelism settings are never compared
// blind.
type benchHeader struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
}

// benchReport is the shape of every -out file: the header plus the
// experiment's own result type, serialised as is.
type benchReport struct {
	Header benchHeader `json:"header"`
	Result any         `json:"result"`
}

// writeReport writes result to path as an indented benchReport.
func writeReport(path string, result any) error {
	data, err := json.MarshalIndent(benchReport{
		Header: benchHeader{
			GeneratedAt: time.Now().UTC().Format(time.RFC3339),
			GoVersion:   runtime.Version(),
			GOMAXPROCS:  runtime.GOMAXPROCS(0),
			NumCPU:      runtime.NumCPU(),
		},
		Result: result,
	}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// edgeGate fails the edge benchmark on any acked loss under backpressure.
func edgeGate(result any, seed int64) error {
	r := result.(*experiment.EdgeResult)
	if !r.Backpressure.ZeroAckedLoss {
		return fmt.Errorf("edge benchmark: acked loss under backpressure (seed %d): %s %s",
			seed, r.Backpressure.LossDetail, r.Backpressure.AuditErr)
	}
	return nil
}

// federationGate fails the federation benchmark on acked loss across the
// link flap or on a disjoint publication leaking to the remote cluster.
func federationGate(result any, seed int64) error {
	r := result.(*experiment.FederationResult)
	if !r.ZeroAckedLoss {
		return fmt.Errorf("federation benchmark: acked loss across the link flap (seed %d): %s",
			seed, r.LossDetail)
	}
	if r.RemoteLeaks > 0 {
		return fmt.Errorf("federation benchmark: %d disjoint publications leaked across the link (seed %d)",
			r.RemoteLeaks, seed)
	}
	return nil
}

// diskFaultGate fails the disk-fault certification on any acked loss or
// accounting hole.
func diskFaultGate(result any, seed int64) error {
	r := result.(*experiment.DiskFaultResult)
	switch {
	case !r.FailStop.ZeroAckedLoss:
		return fmt.Errorf("diskfault certification: acked loss under FailStop (seed %d): %s",
			seed, r.FailStop.LossDetail)
	case !r.Degrade.ZeroAckedLoss:
		return fmt.Errorf("diskfault certification: delivery loss under DegradeToMemory (seed %d): %s",
			seed, r.Degrade.LossDetail)
	case !r.Degrade.HealthDegraded:
		return fmt.Errorf("diskfault certification: ENOSPC injected but store never degraded (seed %d)", seed)
	case !r.Degrade.AccountingExact:
		return fmt.Errorf("diskfault certification: accounting hole: %d durable + %d dropped < %d accepted (seed %d)",
			r.Degrade.Durable, r.Degrade.Dropped, r.Degrade.Published, seed)
	}
	return nil
}
