// Chaos failover evaluation on the real in-process cluster stack: a steady
// publication load runs against a persistent cluster while a chaos scenario
// kills one matcher, and the delivery rate is sampled into fixed buckets to
// expose the throughput dip and recovery. The delivery-accounting invariant
// (every acked publication delivered at least once) is checked by the chaos
// auditor, so the headline numbers — dip depth, recovery time, zero loss —
// come from one run.
package experiment

import (
	"fmt"
	"sync/atomic"
	"time"

	"bluedove/internal/chaos"
	"bluedove/internal/cluster"
	"bluedove/internal/core"
)

// ChaosBucket is one timeline sample.
type ChaosBucket struct {
	StartMs    int64   `json:"t_ms"`              // bucket start, ms since workload start
	Deliveries int64   `json:"deliveries"`        // deliveries landing in the bucket
	Rate       float64 `json:"rate_msgs_per_sec"` // deliveries per second
}

// ChaosResult is the outcome of one chaos failover run.
type ChaosResult struct {
	Seed        int64 `json:"seed"`
	Matchers    int   `json:"matchers"`
	Dispatchers int   `json:"dispatchers"`
	Published   int   `json:"published"`  // publications accepted (all acked)
	KillAtMs    int64 `json:"kill_at_ms"` // kill offset from workload start
	BucketMs    int64 `json:"bucket_ms"`

	Timeline []ChaosBucket `json:"timeline"`

	PreKillRate float64 `json:"pre_kill_rate_msgs_per_sec"` // mean delivery rate before the kill
	DipRate     float64 `json:"dip_rate_msgs_per_sec"`      // lowest bucket rate at/after the kill
	RecoveryMs  int64   `json:"recovery_ms"`                // kill → first bucket back at ≥80% of PreKillRate
	Retransmits int64   `json:"retransmits"`                // dispatcher persistence retransmissions
	Duplicates  int     `json:"duplicate_deliveries"`       // duplicate deliveries (at-least-once redundancy)
	ZeroLoss    bool    `json:"zero_acked_loss"`            // every acked publication delivered
	LossDetail  string  `json:"loss_detail,omitempty"`      // auditor violations when ZeroLoss is false

	// Diagnostic counters for interpreting a non-zero-loss run.
	DroppedNoCandidate int64 `json:"dropped_no_candidate"` // publications the dispatchers found no candidate for
	MatcherDrops       int64 `json:"matcher_drops"`        // forwards shed by matcher stage backpressure
	InflightAtEnd      int   `json:"inflight_at_end"`      // unacked messages still retained at shutdown
}

// ChaosOpts parameterizes the run.
type ChaosOpts struct {
	Seed        int64         // chaos controller seed (default 1)
	Duration    time.Duration // publication phase length (default 3s)
	PubInterval time.Duration // publication pacing (default 1ms ≈ 1k msg/s)
	Matchers    int           // default 4
}

const chaosBucket = 100 * time.Millisecond

// Chaos runs the failover experiment: steady load, one matcher killed a
// third of the way in, timeline + invariants out.
func Chaos(opts ChaosOpts) (*ChaosResult, error) {
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	if opts.Duration <= 0 {
		opts.Duration = 3 * time.Second
	}
	if opts.PubInterval <= 0 {
		opts.PubInterval = time.Millisecond
	}
	if opts.Matchers <= 0 {
		opts.Matchers = 4
	}
	ctrl := chaos.NewController(opts.Seed)
	defer ctrl.Close()
	c, err := cluster.Start(cluster.Options{
		Space:          core.UniformSpace(4, 1000),
		Matchers:       opts.Matchers,
		Dispatchers:    2,
		GossipInterval: 50 * time.Millisecond,
		FailAfter:      500 * time.Millisecond,
		ReportInterval: 50 * time.Millisecond,
		RecoveryDelay:  200 * time.Millisecond,
		PruneGrace:     300 * time.Millisecond,
		Persistent:     true,
		RetryInterval:  100 * time.Millisecond,
		Chaos:          ctrl,
	})
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		return nil, err
	}

	// One full-space direct subscriber; deliveries are both audited and
	// bucketed against the workload clock.
	full := []core.Range{
		{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	}
	aud := chaos.NewAuditor()
	aud.Subscribed(1, full)
	// Buckets cover the run plus generous drain headroom.
	nBuckets := int(opts.Duration/chaosBucket) + 100
	buckets := make([]atomic.Int64, nBuckets)
	var start atomic.Value // time.Time, set when the workload begins
	subCl, err := c.NewClient(0, func(m *core.Message, _ []core.SubscriptionID) {
		aud.Delivered(1, m)
		if s, ok := start.Load().(time.Time); ok {
			if i := int(time.Since(s) / chaosBucket); i >= 0 && i < nBuckets {
				buckets[i].Add(1)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	if _, err := subCl.Subscribe(full); err != nil {
		return nil, err
	}
	time.Sleep(300 * time.Millisecond) // let the stores land

	pubCl, err := c.NewClient(1, nil)
	if err != nil {
		return nil, err
	}

	victim := c.MatcherIDs()[0]
	killAt := opts.Duration / 3
	var killedAt atomic.Value // time.Time
	run := chaos.NewScenario().
		At(killAt).Do(func() {
		killedAt.Store(time.Now())
		_ = c.CrashMatcher(victim)
	}).Run(ctrl)
	defer run.Stop()

	begin := time.Now()
	start.Store(begin)
	published := 0
	for i := 0; time.Since(begin) < opts.Duration; i++ {
		token := fmt.Sprintf("c-%06d", i)
		attrs := []float64{float64((i * 37) % 1000), float64((i * 59) % 1000),
			float64((i * 83) % 1000), float64((i * 101) % 1000)}
		if err := pubCl.Publish(attrs, []byte(token)); err != nil {
			return nil, fmt.Errorf("experiment: publish %d rejected: %v", i, err)
		}
		aud.Published(token, attrs)
		published++
		time.Sleep(opts.PubInterval)
	}
	run.Wait()
	lossErr := aud.WaitComplete(20 * time.Second)

	r := &ChaosResult{
		Seed:        opts.Seed,
		Matchers:    opts.Matchers,
		Dispatchers: 2,
		Published:   published,
		BucketMs:    int64(chaosBucket / time.Millisecond),
		Duplicates:  aud.Duplicates(),
		ZeroLoss:    lossErr == nil,
	}
	if lossErr != nil {
		r.LossDetail = lossErr.Error()
	}
	if ka, ok := killedAt.Load().(time.Time); ok {
		r.KillAtMs = ka.Sub(begin).Milliseconds()
	}
	for _, d := range c.Dispatchers() {
		r.Retransmits += d.Retransmits.Value()
		r.DroppedNoCandidate += d.DroppedNoCandidate.Value()
		r.InflightAtEnd += d.InflightLen()
	}
	for _, id := range c.MatcherIDs() {
		if m := c.Matcher(id); m != nil {
			r.MatcherDrops += m.Dropped.Value()
		}
	}

	// Trim trailing empty buckets, keep one for the tail.
	lastBusy := 0
	for i := range buckets {
		if buckets[i].Load() > 0 {
			lastBusy = i
		}
	}
	perSec := float64(time.Second / chaosBucket)
	for i := 0; i <= lastBusy; i++ {
		n := buckets[i].Load()
		r.Timeline = append(r.Timeline, ChaosBucket{
			StartMs:    int64(i) * r.BucketMs,
			Deliveries: n,
			Rate:       float64(n) * perSec,
		})
	}

	// Pre-kill rate: buckets that ended before the kill.
	killBucket := int(r.KillAtMs / r.BucketMs)
	var sum float64
	var n int
	for i := 0; i < killBucket && i < len(r.Timeline); i++ {
		sum += r.Timeline[i].Rate
		n++
	}
	if n > 0 {
		r.PreKillRate = sum / float64(n)
	}
	// Dip: lowest rate at or after the kill bucket during the publish phase.
	pubBuckets := int(opts.Duration / chaosBucket)
	r.DipRate = r.PreKillRate
	dipBucket := killBucket
	for i := killBucket; i < pubBuckets && i < len(r.Timeline); i++ {
		if r.Timeline[i].Rate < r.DipRate {
			r.DipRate, dipBucket = r.Timeline[i].Rate, i
		}
	}
	// Recovery: first bucket after the dip back at ≥80% of the pre-kill rate.
	for i := dipBucket; i < len(r.Timeline); i++ {
		if r.Timeline[i].Rate >= 0.8*r.PreKillRate {
			r.RecoveryMs = r.Timeline[i].StartMs - r.KillAtMs
			break
		}
	}
	if r.RecoveryMs < 0 {
		r.RecoveryMs = 0
	}
	return r, nil
}

// Table renders the run summary.
func (r *ChaosResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Chaos failover (seed %d, %d matchers, kill at %dms, %d publications)",
			r.Seed, r.Matchers, r.KillAtMs, r.Published),
		Header: []string{"metric", "value"},
	}
	t.AddRow("pre-kill rate (msg/s)", r.PreKillRate)
	t.AddRow("dip rate (msg/s)", r.DipRate)
	t.AddRow("recovery to 80% (ms)", r.RecoveryMs)
	t.AddRow("retransmits", r.Retransmits)
	t.AddRow("duplicate deliveries", r.Duplicates)
	t.AddRow("zero acked loss", fmt.Sprintf("%v", r.ZeroLoss))
	return t
}
