// Overload-control evaluation on the real in-process cluster stack: one
// matcher is throttled to a small fraction of its service rate while a
// publication burst hammers tightly bounded stage queues, and the same
// workload runs twice — once with the overload layer disabled (busy NACKs
// ignored, no breaker: rejected forwards are simply lost) and once with it
// on (busy-NACK re-routing + circuit breaking). The comparison exposes what
// the layer buys: delivery rate back at ~100% and bounded tail latency,
// because NACKed publications take one extra hop to a sibling candidate
// instead of dying or waiting out a retransmit timer.
package experiment

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"bluedove/internal/cluster"
	"bluedove/internal/core"
	"bluedove/internal/forward"
)

// OverloadVariant is one run's outcome (layer off or on).
type OverloadVariant struct {
	Name         string  `json:"name"`
	Published    int64   `json:"published"`
	Delivered    int64   `json:"delivered"`     // unique publications delivered
	DeliveryRate float64 `json:"delivery_rate"` // Delivered / Published
	BusyNacks    int64   `json:"busy_nacks"`    // forwards rejected by full matcher stages
	Rerouted     int64   `json:"rerouted"`      // busy-NACKed forwards re-routed to a sibling
	BreakerTrips int64   `json:"breaker_trips"` // circuit-breaker closed→open transitions
	MatcherDrops int64   `json:"stage_drops"`   // forwards shed by stage backpressure
	P50Ms        float64 `json:"p50_ms"`        // median publish→deliver latency
	P99Ms        float64 `json:"p99_ms"`        // tail publish→deliver latency
	MaxMs        float64 `json:"max_ms"`
}

// OverloadResult is the off/on comparison of one overload run.
type OverloadResult struct {
	Seed       int64           `json:"seed"`
	Matchers   int             `json:"matchers"`
	QueueDepth int             `json:"queue_depth"`
	ThrottleMs int64           `json:"throttle_ms_per_msg"`
	Off        OverloadVariant `json:"layer_off"`
	On         OverloadVariant `json:"layer_on"`
}

// OverloadOpts parameterizes the run.
type OverloadOpts struct {
	Seed        int64         // rng seed for the load-blind policy (default 1)
	Burst       int           // publications per variant (default 2000)
	PubInterval time.Duration // publication pacing (default 200µs ≈ 5k msg/s)
	Matchers    int           // default 4
	QueueDepth  int           // per-dimension stage bound (default 4)
	Throttle    time.Duration // extra work per publication on the slow matcher (default 50ms)
}

func (o *OverloadOpts) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Burst <= 0 {
		o.Burst = 2000
	}
	if o.PubInterval <= 0 {
		o.PubInterval = 200 * time.Microsecond
	}
	if o.Matchers <= 0 {
		o.Matchers = 4
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 4
	}
	if o.Throttle <= 0 {
		o.Throttle = 50 * time.Millisecond
	}
}

// Overload runs the off/on comparison.
func Overload(opts OverloadOpts) (*OverloadResult, error) {
	opts.defaults()
	off, err := overloadVariant(opts, false)
	if err != nil {
		return nil, fmt.Errorf("experiment: overload off: %w", err)
	}
	on, err := overloadVariant(opts, true)
	if err != nil {
		return nil, fmt.Errorf("experiment: overload on: %w", err)
	}
	return &OverloadResult{
		Seed:       opts.Seed,
		Matchers:   opts.Matchers,
		QueueDepth: opts.QueueDepth,
		ThrottleMs: opts.Throttle.Milliseconds(),
		Off:        *off,
		On:         *on,
	}, nil
}

// overloadVariant runs one burst against a cluster with the overload layer
// on or off. The cluster is non-persistent, so the retransmit timer cannot
// mask the difference: a rejected forward either re-routes or dies.
func overloadVariant(opts OverloadOpts, layerOn bool) (*OverloadVariant, error) {
	clOpts := cluster.Options{
		Space:          core.UniformSpace(4, 1000),
		Matchers:       opts.Matchers,
		Dispatchers:    2,
		GossipInterval: 50 * time.Millisecond,
		FailAfter:      2 * time.Second,
		ReportInterval: 50 * time.Millisecond,
		RecoveryDelay:  200 * time.Millisecond,
		PruneGrace:     300 * time.Millisecond,
		// Load-blind forwarding keeps the throttled hot spot in rotation, so
		// the overload layer alone decides the fate of rejected forwards.
		Policy:            forward.NewRandom(opts.Seed),
		MatcherQueueDepth: opts.QueueDepth,
		RerouteBackoff:    time.Millisecond,
	}
	if !layerOn {
		clOpts.RetryBudget = -1
		clOpts.BreakerThreshold = -1
	}
	c, err := cluster.Start(clOpts)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		return nil, err
	}

	full := []core.Range{
		{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	}
	var mu sync.Mutex
	publishedAt := make(map[string]time.Time, opts.Burst)
	latencies := make([]float64, 0, opts.Burst)
	delivered := make(map[string]bool, opts.Burst)
	subCl, err := c.NewClient(0, func(m *core.Message, _ []core.SubscriptionID) {
		at := time.Now()
		mu.Lock()
		tok := string(m.Payload)
		if !delivered[tok] {
			delivered[tok] = true
			if t0, ok := publishedAt[tok]; ok {
				latencies = append(latencies, float64(at.Sub(t0).Microseconds())/1e3)
			}
		}
		mu.Unlock()
	})
	if err != nil {
		return nil, err
	}
	if _, err := subCl.Subscribe(full); err != nil {
		return nil, err
	}
	time.Sleep(300 * time.Millisecond) // let the stores land

	victim := c.MatcherIDs()[0]
	c.ThrottleMatcher(victim, opts.Throttle)

	pubCl, err := c.NewClient(1, nil)
	if err != nil {
		return nil, err
	}
	for i := 0; i < opts.Burst; i++ {
		token := fmt.Sprintf("ov-%06d", i)
		attrs := []float64{float64((i * 37) % 1000), float64((i * 59) % 1000),
			float64((i * 83) % 1000), float64((i * 101) % 1000)}
		mu.Lock()
		publishedAt[token] = time.Now()
		mu.Unlock()
		if err := pubCl.Publish(attrs, []byte(token)); err != nil {
			return nil, fmt.Errorf("publish %d rejected: %v", i, err)
		}
		time.Sleep(opts.PubInterval)
	}

	// Drain: wait until deliveries go quiet (or the timeout elapses — a
	// lossy variant never completes, which is the point of the comparison).
	deadline := time.Now().Add(15 * time.Second)
	last, lastChange := -1, time.Now()
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(delivered)
		mu.Unlock()
		if n != last {
			last, lastChange = n, time.Now()
		} else if n == opts.Burst || time.Since(lastChange) > time.Second {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}

	name := "off"
	if layerOn {
		name = "on"
	}
	v := &OverloadVariant{Name: name, Published: int64(opts.Burst)}
	mu.Lock()
	v.Delivered = int64(len(delivered))
	lats := append([]float64(nil), latencies...)
	mu.Unlock()
	v.DeliveryRate = float64(v.Delivered) / float64(v.Published)
	sort.Float64s(lats)
	if n := len(lats); n > 0 {
		v.P50Ms = lats[n/2]
		v.P99Ms = lats[n*99/100]
		v.MaxMs = lats[n-1]
	}
	for _, d := range c.Dispatchers() {
		v.Rerouted += d.Rerouted.Value()
		v.BreakerTrips += d.BreakerTrips()
	}
	for _, id := range c.MatcherIDs() {
		if m := c.Matcher(id); m != nil {
			v.BusyNacks += m.BusyNacks.Value()
			v.MatcherDrops += m.Dropped.Value()
		}
	}
	return v, nil
}

// Table renders the off/on comparison.
func (r *OverloadResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Overload control (seed %d, %d matchers, queue depth %d, one matcher +%dms/msg)",
			r.Seed, r.Matchers, r.QueueDepth, r.ThrottleMs),
		Header: []string{"metric", "layer off", "layer on"},
	}
	row := func(name string, f func(*OverloadVariant) any) {
		t.AddRow(name, f(&r.Off), f(&r.On))
	}
	row("published", func(v *OverloadVariant) any { return v.Published })
	row("delivered", func(v *OverloadVariant) any { return v.Delivered })
	row("delivery rate", func(v *OverloadVariant) any { return fmt.Sprintf("%.4f", v.DeliveryRate) })
	row("busy NACKs", func(v *OverloadVariant) any { return v.BusyNacks })
	row("rerouted", func(v *OverloadVariant) any { return v.Rerouted })
	row("breaker trips", func(v *OverloadVariant) any { return v.BreakerTrips })
	row("stage drops", func(v *OverloadVariant) any { return v.MatcherDrops })
	row("p50 (ms)", func(v *OverloadVariant) any { return fmt.Sprintf("%.2f", v.P50Ms) })
	row("p99 (ms)", func(v *OverloadVariant) any { return fmt.Sprintf("%.2f", v.P99Ms) })
	row("max (ms)", func(v *OverloadVariant) any { return fmt.Sprintf("%.2f", v.MaxMs) })
	return t
}
