// End-to-end evaluation of the durability subsystem on the real in-process
// cluster stack: what does journaling every dispatcher and matcher mutation
// cost at each fsync policy, and how fast does a node recover as its journal
// grows? Like the batching experiment this runs the real hot path, not the
// discrete-event simulator — the quantity under test is filesystem work on
// the forward path.
package experiment

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"

	"bluedove/internal/cluster"
	"bluedove/internal/core"
	"bluedove/internal/store"
)

// DurabilityConfig is one measured cluster configuration.
type DurabilityConfig struct {
	Name       string  `json:"name"`            // "none" (no journal), "never", "interval", "always"
	MsgsPerSec float64 `json:"msgs_per_sec"`    // delivered publications per second
	MeanMs     float64 `json:"mean_latency_ms"` // mean dispatcher-ingest→delivery latency
	P99Ms      float64 `json:"p99_latency_ms"`  // 99th percentile of the same
	Slowdown   float64 `json:"slowdown"`        // baseline throughput / this throughput
}

// RecoveryPoint is one point of the recovery-time-vs-journal-size curve.
type RecoveryPoint struct {
	Records int     `json:"records"`          // journal records replayed
	Bytes   int64   `json:"journal_bytes"`    // journal bytes read
	Seconds float64 `json:"recovery_seconds"` // wall time for store.Open to finish recovery
	// RecordsPerSec is the replay rate, Records / Seconds.
	RecordsPerSec float64 `json:"records_per_sec"`
}

// DurabilityResult is the full report.
type DurabilityResult struct {
	Messages    int                `json:"messages"`
	Subscribers int                `json:"subscribers"`
	Configs     []DurabilityConfig `json:"configs"`
	Recovery    []RecoveryPoint    `json:"recovery"`
}

// DurabilityOpts parameterizes the experiment.
type DurabilityOpts struct {
	Messages    int // publications per run (default 5000)
	Subscribers int // direct subscribers, each matching every message (default 2)
	Trials      int // runs per config, best taken (default 3)
}

// Durability measures cluster throughput and delivery latency with no
// journal, then with journaling at each fsync policy, and the recovery-time
// curve of a growing journal.
func Durability(opts DurabilityOpts) (*DurabilityResult, error) {
	if opts.Messages <= 0 {
		opts.Messages = 5000
	}
	if opts.Subscribers <= 0 {
		opts.Subscribers = 2
	}
	if opts.Trials <= 0 {
		opts.Trials = 3
	}
	r := &DurabilityResult{Messages: opts.Messages, Subscribers: opts.Subscribers}

	configs := []struct {
		name    string
		durable bool
		fsync   store.Fsync
	}{
		{"none", false, 0},
		{"never", true, store.FsyncNever},
		{"interval", true, store.FsyncInterval},
		{"always", true, store.FsyncAlways},
	}
	for _, cfg := range configs {
		best := DurabilityConfig{Name: cfg.name}
		for tr := 0; tr < opts.Trials; tr++ {
			rate, mean, p99, err := durabilityRun(opts, cfg.durable, cfg.fsync)
			if err != nil {
				return nil, fmt.Errorf("%s run: %w", cfg.name, err)
			}
			if rate > best.MsgsPerSec {
				best.MsgsPerSec, best.MeanMs, best.P99Ms = rate, mean, p99
			}
		}
		r.Configs = append(r.Configs, best)
	}
	base := r.Configs[0].MsgsPerSec
	for i := range r.Configs {
		if r.Configs[i].MsgsPerSec > 0 {
			r.Configs[i].Slowdown = base / r.Configs[i].MsgsPerSec
		}
	}

	for _, n := range []int{1000, 10000, 50000} {
		pt, err := recoveryPoint(n)
		if err != nil {
			return nil, fmt.Errorf("recovery curve at %d records: %w", n, err)
		}
		r.Recovery = append(r.Recovery, pt)
	}
	return r, nil
}

// durabilityRun boots one persistent cluster (journaling when durable) and
// returns delivered msgs/s plus mean and p99 ingest→delivery latency in ms.
func durabilityRun(opts DurabilityOpts, durable bool, fsync store.Fsync) (rate, meanMs, p99Ms float64, err error) {
	copts := cluster.Options{
		Space:          core.UniformSpace(4, 1000),
		Matchers:       4,
		Dispatchers:    2,
		GossipInterval: 50 * time.Millisecond,
		FailAfter:      5 * time.Second,
		ReportInterval: 50 * time.Millisecond,
		Persistent:     true,
		RetryInterval:  2 * time.Second,
	}
	if durable {
		dir, err := os.MkdirTemp("", "bluedove-durability-*")
		if err != nil {
			return 0, 0, 0, err
		}
		defer os.RemoveAll(dir)
		copts.DataDir = dir
		copts.Fsync = fsync
	}
	c, err := cluster.Start(copts)
	if err != nil {
		return 0, 0, 0, err
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		return 0, 0, 0, err
	}

	var mu sync.Mutex
	var latencies []float64
	delivered := 0
	full := []core.Range{
		{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	}
	for i := 0; i < opts.Subscribers; i++ {
		cl, err := c.NewClient(i%2, func(m *core.Message, _ []core.SubscriptionID) {
			lat := float64(time.Now().UnixNano()-m.PublishedAt) / 1e6
			mu.Lock()
			delivered++
			latencies = append(latencies, lat)
			mu.Unlock()
		})
		if err != nil {
			return 0, 0, 0, err
		}
		if _, err := cl.Subscribe(full); err != nil {
			return 0, 0, 0, err
		}
	}
	count := func() int {
		mu.Lock()
		defer mu.Unlock()
		return delivered
	}
	// Probe until the stores landed on every matcher.
	probeCl, err := c.NewClient(0, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	active := false
	for deadline := time.Now().Add(5 * time.Second); !active; {
		before := count()
		_ = probeCl.Publish([]float64{500, 500, 500, 500}, nil)
		for w := 0; w < 10 && count()-before < opts.Subscribers; w++ {
			time.Sleep(20 * time.Millisecond)
		}
		active = count()-before >= opts.Subscribers
		if !active && time.Now().After(deadline) {
			return 0, 0, 0, fmt.Errorf("experiment: subscriptions never became active")
		}
	}
	mu.Lock()
	base := delivered
	latencies = latencies[:0] // warm-up latencies out of the sample
	mu.Unlock()

	pubCl, err := c.NewClient(1, nil)
	if err != nil {
		return 0, 0, 0, err
	}
	start := time.Now()
	for i := 0; i < opts.Messages; i++ {
		attrs := []float64{float64(i % 1000), 500, 500, 500}
		for pubCl.Publish(attrs, nil) != nil {
			time.Sleep(time.Millisecond) // mesh backpressure
		}
	}
	// Drain until deliveries stop advancing: the dispatcher→matcher hop is
	// covered by persistence retries, but the matcher→client push sheds
	// load when a subscriber's inbound queue overflows, so an exact-count
	// wait could hang. Throughput is deliveries observed over the time of
	// the last delivery (the batching experiment's method).
	want := base + opts.Messages*opts.Subscribers
	last, lastAt := count(), time.Now()
	for time.Since(lastAt) < 500*time.Millisecond && last < want {
		time.Sleep(2 * time.Millisecond)
		if v := count(); v != last {
			last, lastAt = v, time.Now()
		}
	}
	elapsed := lastAt.Sub(start)
	got := float64(last-base) / float64(opts.Subscribers)

	mu.Lock()
	sample := append([]float64(nil), latencies...)
	mu.Unlock()
	sort.Float64s(sample)
	var sum float64
	for _, v := range sample {
		sum += v
	}
	meanMs = sum / float64(len(sample))
	p99Ms = sample[len(sample)*99/100]
	return got / elapsed.Seconds(), meanMs, p99Ms, nil
}

// recoveryPoint builds a journal of n subscription-sized records and times a
// cold store.Open over it.
func recoveryPoint(n int) (RecoveryPoint, error) {
	dir, err := os.MkdirTemp("", "bluedove-recovery-*")
	if err != nil {
		return RecoveryPoint{}, err
	}
	defer os.RemoveAll(dir)

	payload := make([]byte, 64) // a realistic journal record body
	write, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		return RecoveryPoint{}, err
	}
	for i := 0; i < n; i++ {
		if err := write.Append(1, payload); err != nil {
			write.Close()
			return RecoveryPoint{}, err
		}
	}
	if err := write.Close(); err != nil {
		return RecoveryPoint{}, err
	}

	replayed := 0
	start := time.Now()
	read, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever,
		Apply: func(kind uint8, payload []byte) error {
			replayed++
			return nil
		}})
	if err != nil {
		return RecoveryPoint{}, err
	}
	elapsed := time.Since(start)
	stats := read.Recovery()
	read.Close()
	if replayed != n {
		return RecoveryPoint{}, fmt.Errorf("recovered %d records, wrote %d", replayed, n)
	}
	secs := elapsed.Seconds()
	return RecoveryPoint{Records: replayed, Bytes: stats.Bytes, Seconds: secs,
		RecordsPerSec: float64(replayed) / secs}, nil
}

// Table renders the fsync-policy comparison.
func (r *DurabilityResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Durability cost (in-proc cluster, %d msgs, %d subscribers)",
			r.Messages, r.Subscribers),
		Header: []string{"journal", "msgs/s", "slowdown", "mean ms", "p99 ms"},
	}
	for _, c := range r.Configs {
		t.AddRow(c.Name, c.MsgsPerSec, fmt.Sprintf("%.2fx", c.Slowdown), c.MeanMs, c.P99Ms)
	}
	return t
}

// RecoveryTable renders the recovery-time curve.
func (r *DurabilityResult) RecoveryTable() *Table {
	t := &Table{
		Title:  "Recovery time vs journal size (cold store.Open, 64-byte records)",
		Header: []string{"records", "journal bytes", "recovery ms", "records/s"},
	}
	for _, p := range r.Recovery {
		t.AddRow(p.Records, p.Bytes, p.Seconds*1e3, p.RecordsPerSec)
	}
	return t
}
