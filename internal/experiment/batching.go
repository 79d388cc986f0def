// End-to-end evaluation of publication batching (dispatcher → wire →
// transport → matcher → delivery) on the real in-process cluster stack —
// unlike the figure experiments this does not use the discrete-event
// simulator, because the quantity under test is the per-frame overhead of
// the actual hot path.
package experiment

import (
	"fmt"
	"sync/atomic"
	"time"

	"bluedove/internal/client"
	"bluedove/internal/cluster"
	"bluedove/internal/core"
)

// BatchingResult compares cluster throughput with forward-path batching off
// and on (same topology, workload and subscriptions).
type BatchingResult struct {
	Messages    int `json:"messages"`    // publications per run
	Subscribers int `json:"subscribers"` // direct subscribers, each matching every message
	Matchers    int `json:"matchers"`
	Dispatchers int `json:"dispatchers"`

	UnbatchedMsgsPerSec float64 `json:"unbatched_msgs_per_sec"`
	BatchedMsgsPerSec   float64 `json:"batched_msgs_per_sec"`
	Speedup             float64 `json:"speedup"` // batched / unbatched

	// BatchedFrames and Forwarded are from the batched run; their ratio is
	// the achieved messages-per-frame amortization on the forward hop.
	BatchedFrames int64   `json:"batched_frames"`
	Forwarded     int64   `json:"forwarded"`
	Amortization  float64 `json:"msgs_per_frame"`

	// Wire is the forward hop's encode cost per message, one frame per
	// message vs one pooled batch frame. Batching leaves it zero; callers
	// outside a benchmark fill it with MeasureBatchWire.
	Wire BatchWireCost `json:"wire"`
}

// BatchingOpts parameterizes the batching comparison.
type BatchingOpts struct {
	Messages    int           // default 20000
	Subscribers int           // default 4
	Linger      time.Duration // batched-run linger; default 1ms
	Trials      int           // runs per mode, best taken (default 3)
}

// Batching runs the comparison: once with ForwardLinger=0 (message-per-frame)
// and once with the linger enabled, measuring delivered messages per second.
func Batching(opts BatchingOpts) (*BatchingResult, error) {
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
	r := &BatchingResult{
		Messages:    opts.Messages,
		Subscribers: opts.Subscribers,
		Matchers:    4,
		Dispatchers: 2,
	}
	// Best-of-N per mode: in-process scheduling noise dominates single runs.
	var un, ba float64
	var frames, forwarded int64
	for tr := 0; tr < opts.Trials; tr++ {
		rate, _, _, err := batchingRun(opts, 0, false, 0)
		if err != nil {
			return nil, fmt.Errorf("unbatched run: %w", err)
		}
		if rate > un {
			un = rate
		}
	}
	for tr := 0; tr < opts.Trials; tr++ {
		rate, fr, fw, err := batchingRun(opts, opts.Linger, false, 0)
		if err != nil {
			return nil, fmt.Errorf("batched run: %w", err)
		}
		if rate > ba {
			ba, frames, forwarded = rate, fr, fw
		}
	}
	r.UnbatchedMsgsPerSec, r.BatchedMsgsPerSec = un, ba
	if un > 0 {
		r.Speedup = ba / un
	}
	r.BatchedFrames, r.Forwarded = frames, forwarded
	if frames > 0 {
		r.Amortization = float64(forwarded) / float64(frames)
	}
	return r, nil
}

// batchingRun boots one cluster, drives the workload, and returns delivered
// messages per second plus the forward-path frame counters. With telemetry
// set the observability subsystem runs on every node at the given trace
// sample rate (the telemetry-overhead experiment's knob).
func batchingRun(opts BatchingOpts, linger time.Duration, telemetry bool, sampleRate float64) (rate float64, frames, forwarded int64, err error) {
	c, err := cluster.Start(cluster.Options{
		Space:           core.UniformSpace(4, 1000),
		Matchers:        4,
		Dispatchers:     2,
		GossipInterval:  50 * time.Millisecond,
		FailAfter:       5 * time.Second,
		ReportInterval:  50 * time.Millisecond,
		ForwardLinger:   linger,
		Telemetry:       telemetry,
		TraceSampleRate: sampleRate,
	})
	if err != nil {
		return 0, 0, 0, err
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		return 0, 0, 0, err
	}

	// Direct subscribers, each covering the whole space: every publication
	// is delivered once per subscriber.
	var delivered atomic.Int64
	full := []core.Range{
		{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	}
	for i := 0; i < opts.Subscribers; i++ {
		cl, err := c.NewClient(i%2, func(m *core.Message, ids []core.SubscriptionID) {
			delivered.Add(1)
		})
		if err != nil {
			return 0, 0, 0, err
		}
		if _, err := cl.Subscribe(full); err != nil {
			return 0, 0, 0, err
		}
	}
	// Wait until the stores landed: probe until a publication round-trips to
	// every subscriber.
	probeCl, err := c.NewClient(0, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	probes := int64(0)
	active := false
	for deadline := time.Now().Add(5 * time.Second); !active; {
		before := delivered.Load()
		if err := probeCl.Publish([]float64{500, 500, 500, 500}, nil); err == nil {
			probes++
		}
		// Give this probe a moment to fan out to every subscriber.
		for w := 0; w < 10 && delivered.Load()-before < int64(opts.Subscribers); w++ {
			time.Sleep(20 * time.Millisecond)
		}
		active = delivered.Load()-before >= int64(opts.Subscribers)
		if !active && time.Now().After(deadline) {
			return 0, 0, 0, fmt.Errorf("experiment: subscriptions never became active")
		}
	}
	base := delivered.Load()

	// Drive the workload from 4 publisher goroutines across both
	// dispatchers, retrying when backpressure rejects a publish.
	const pubWorkers = 4
	perWorker := opts.Messages / pubWorkers
	total := perWorker * pubWorkers
	want := base + int64(total)*int64(opts.Subscribers)
	pubClients := make([]*client.Client, pubWorkers)
	for p := range pubClients {
		cl, err := c.NewClient(p%2, nil)
		if err != nil {
			return 0, 0, 0, err
		}
		pubClients[p] = cl
	}
	start := time.Now()
	done := make(chan error, pubWorkers)
	for p := 0; p < pubWorkers; p++ {
		go func(p int) {
			cl := pubClients[p]
			for i := 0; i < perWorker; i++ {
				attrs := []float64{float64(i % 1000), 500, 500, 500}
				for cl.Publish(attrs, nil) != nil {
					time.Sleep(time.Millisecond) // mesh backpressure
				}
			}
			done <- nil
		}(p)
	}
	for p := 0; p < pubWorkers; p++ {
		<-done
	}
	// Drain until deliveries stop advancing: the publish side is closed-loop
	// (Publish errors retry) but the forward hop sheds load under overflow
	// without persistence, so an exact-count wait could hang. Throughput is
	// deliveries observed over the time of the last delivery.
	last, lastAt := delivered.Load(), time.Now()
	for time.Since(lastAt) < 500*time.Millisecond && last < want {
		time.Sleep(2 * time.Millisecond)
		if v := delivered.Load(); v != last {
			last, lastAt = v, time.Now()
		}
	}
	elapsed := lastAt.Sub(start)
	got := float64(last-base) / float64(opts.Subscribers)
	for _, d := range c.Dispatchers() {
		frames += d.ForwardBatches.Value()
		forwarded += d.Forwarded.Value()
	}
	forwarded -= probes // exclude warm-up traffic from the amortization ratio
	return got / elapsed.Seconds(), frames, forwarded, nil
}

// Table renders the comparison.
func (r *BatchingResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Publication batching (in-proc cluster, %d msgs, %d subscribers)",
			r.Messages, r.Subscribers),
		Header: []string{"mode", "msgs/s", "speedup", "msgs/frame"},
	}
	t.AddRow("unbatched", r.UnbatchedMsgsPerSec, "1.00x", 1.0)
	t.AddRow("batched", r.BatchedMsgsPerSec, fmt.Sprintf("%.2fx", r.Speedup), r.Amortization)
	return t
}
