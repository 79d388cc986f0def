// Single-matcher match-path benchmark: batched match throughput of the real
// matching stage across index kinds, match-worker counts and covering,
// outside any cluster.
package experiment

import (
	"fmt"
	"runtime"
	"time"

	"bluedove/internal/index"
	"bluedove/internal/matcher"
)

// MatchCell is one grid cell: an index kind × match-worker count ×
// workload measured on the real matching stage. Shards is the
// matcher.Config.MatchShards value: the workers one batch is split across.
type MatchCell struct {
	Kind     string `json:"kind"`
	Shards   int    `json:"shards"`
	Covering bool   `json:"covering"`
	Workload string `json:"workload"` // uniform | templated
	matcher.MatchBenchResult
}

// MatchResult is the whole grid plus the workload it ran (the paper's: 4
// dimensions, extent 1000, predicate length 250 → 0.25 per-dimension
// selectivity).
type MatchResult struct {
	Subs         int           `json:"subs"`
	Templates    int           `json:"templates"`
	Dims         int           `json:"dims"`
	PredLen      float64       `json:"pred_len"`
	Batch        int           `json:"batch"`
	CellDuration time.Duration `json:"cell_duration_ns"`
	Cells        []MatchCell   `json:"cells"`
}

// Match measures batched single-matcher match throughput across
// scan/bucket/intervaltree × match workers ∈ 1..NumCPU, on a uniform workload
// (covering off) and on the templated workload with covering on, spending
// at least cellDuration on each cell.
func Match(cellDuration time.Duration) (*MatchResult, error) {
	r := &MatchResult{Subs: 10000, Templates: 500, Dims: 4, PredLen: 250, Batch: 64, CellDuration: cellDuration}
	for _, kind := range []index.Kind{index.KindScan, index.KindBucket, index.KindIntervalTree} {
		for shards := 1; shards <= runtime.NumCPU(); shards++ {
			for _, cov := range []bool{false, true} {
				o := matcher.MatchBenchOpts{
					Kind: kind, Shards: shards, Covering: cov,
					Dims: r.Dims, PredLen: r.PredLen,
					Subs: r.Subs, Batch: r.Batch, MinDuration: cellDuration,
				}
				workload := "uniform"
				if cov {
					// Covering is measured on the workload it is built for:
					// many subscribers sharing a few predicate shapes.
					o.Templates = r.Templates
					workload = "templated"
				}
				res, err := matcher.RunMatchBench(o)
				if err != nil {
					return nil, fmt.Errorf("match bench %s/%d: %w", kind, shards, err)
				}
				r.Cells = append(r.Cells, MatchCell{Kind: kind.String(), Shards: shards,
					Covering: cov, Workload: workload, MatchBenchResult: *res})
			}
		}
	}
	return r, nil
}

// Table renders the grid.
func (r *MatchResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Single-matcher match path (%d subs, batch %d, %s/cell)",
			r.Subs, r.Batch, r.CellDuration),
		Header: []string{"kind", "shards", "workload", "matched/s", "msgs/s", "scanned/msg", "collapse"},
	}
	for _, c := range r.Cells {
		t.AddRow(c.Kind, c.Shards, c.Workload, c.MatchedPerSec, c.MsgsPerSec, c.ScannedPerMsg, c.CollapseRatio)
	}
	return t
}
