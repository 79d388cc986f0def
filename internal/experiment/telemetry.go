// Telemetry-overhead evaluation: the same batched forward-path workload as
// the batching experiment, run with the observability subsystem off and then
// on at increasing trace sample rates. The interesting numbers are the
// sampled-out cost (telemetry compiled in and enabled, sampler says no — the
// common production configuration) and the fully-traced cost.
package experiment

import (
	"fmt"
	"time"
)

// TelemetryMode is one sampled configuration of the overhead comparison.
type TelemetryMode struct {
	Name        string  `json:"name"`
	Telemetry   bool    `json:"telemetry"`    // subsystem enabled on every node
	SampleRate  float64 `json:"sample_rate"`  // trace sampling rate
	MsgsPerSec  float64 `json:"msgs_per_sec"` // best-of-trials delivered throughput
	RelativeOff float64 `json:"relative_to_off"`
}

// TelemetryOverheadResult compares batched-forward-path throughput across
// telemetry configurations on the real in-process cluster stack.
type TelemetryOverheadResult struct {
	Messages    int             `json:"messages"`
	Subscribers int             `json:"subscribers"`
	Trials      int             `json:"trials"`
	Modes       []TelemetryMode `json:"modes"`

	// Wire is the pooled batch encode cost per message without and with a
	// fully stamped trace context on every message.
	Wire TraceWireCost `json:"wire"`
	// Sampler is the per-publication sampling decision cost. TelemetryOverhead
	// leaves Wire and Sampler zero; callers outside a benchmark fill them with
	// MeasureTraceWire and MeasureSampler.
	Sampler SamplerCost `json:"sampler"`
}

// TelemetryOverhead measures delivered throughput of the batched forward path
// with telemetry off, on at sampling 0, on at 1% sampling, and on at full
// sampling. Each mode takes the best of opts.Trials runs.
func TelemetryOverhead(opts BatchingOpts) (*TelemetryOverheadResult, error) {
	if opts.Messages <= 0 {
		opts.Messages = 20000
	}
	if opts.Subscribers <= 0 {
		opts.Subscribers = 4
	}
	if opts.Linger <= 0 {
		opts.Linger = time.Millisecond
	}
	if opts.Trials <= 0 {
		opts.Trials = 3
	}
	r := &TelemetryOverheadResult{
		Messages:    opts.Messages,
		Subscribers: opts.Subscribers,
		Trials:      opts.Trials,
	}
	modes := []TelemetryMode{
		{Name: "off", Telemetry: false, SampleRate: 0},
		{Name: "sampled-0", Telemetry: true, SampleRate: 0},
		{Name: "sampled-0.01", Telemetry: true, SampleRate: 0.01},
		{Name: "sampled-1.0", Telemetry: true, SampleRate: 1.0},
	}
	for i, mode := range modes {
		best := 0.0
		for tr := 0; tr < opts.Trials; tr++ {
			rate, _, _, err := batchingRun(opts, opts.Linger, mode.Telemetry, mode.SampleRate)
			if err != nil {
				return nil, fmt.Errorf("telemetry mode %s: %w", mode.Name, err)
			}
			if rate > best {
				best = rate
			}
		}
		modes[i].MsgsPerSec = best
		if base := modes[0].MsgsPerSec; base > 0 {
			modes[i].RelativeOff = best / base
		}
	}
	r.Modes = modes
	return r, nil
}

// Table renders the comparison.
func (r *TelemetryOverheadResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Tracing overhead on the batched forward path (%d msgs, %d subscribers)",
			r.Messages, r.Subscribers),
		Header: []string{"mode", "msgs/s", "vs off"},
	}
	for _, m := range r.Modes {
		t.AddRow(m.Name, m.MsgsPerSec, fmt.Sprintf("%.2fx", m.RelativeOff))
	}
	return t
}
