package matcher

import (
	"math/rand"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/index"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// discardTransport drops every send; it reports SendCopies so the matching
// hot path recycles its pooled encode buffers, exercising the full
// delivery-coalescing and encode work without network cost.
type discardTransport struct{}

func (discardTransport) Listen(addr string, h transport.Handler) (string, error) { return addr, nil }
func (discardTransport) Send(string, *wire.Envelope) error                       { return nil }
func (discardTransport) Request(string, *wire.Envelope, time.Duration) (*wire.Envelope, error) {
	return nil, nil
}
func (discardTransport) Close() error     { return nil }
func (discardTransport) SendCopies() bool { return true }

// MatchBenchOpts parameterizes one cell of the standalone match-throughput
// benchmark (bluedove-bench -match). Zero fields take the paper-workload
// defaults: 4 dimensions of extent 1000, predicate length 250 (0.25
// per-dimension selectivity), 10k subscriptions, 64-message batches.
type MatchBenchOpts struct {
	Kind     index.Kind
	Buckets  int
	Covering bool
	// Shards is the match-worker count (Config.MatchShards).
	Shards int

	Dims    int
	Extent  float64
	PredLen float64
	Subs    int
	// Templates > 0 draws subscription cuboids as slight shrinkings of this
	// many shared template cuboids — the templated multi-tenant workload
	// covering is built to collapse. 0 draws every cuboid independently.
	Templates int
	Batch     int
	Msgs      int
	// MinDuration keeps re-running the message set until this much time has
	// been measured (default 1s).
	MinDuration time.Duration
	Seed        int64
}

func (o *MatchBenchOpts) defaults() {
	if o.Dims <= 0 {
		o.Dims = 4
	}
	if o.Extent <= 0 {
		o.Extent = 1000
	}
	if o.PredLen <= 0 {
		o.PredLen = 250
	}
	if o.Subs <= 0 {
		o.Subs = 10000
	}
	if o.Batch <= 0 {
		o.Batch = 64
	}
	if o.Msgs <= 0 {
		o.Msgs = 4096
	}
	if o.MinDuration <= 0 {
		o.MinDuration = time.Second
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Shards <= 0 {
		o.Shards = 1
	}
}

// MatchBenchResult is one cell's measurement.
type MatchBenchResult struct {
	// MatchedPerSec is the subscription-match (delivery) rate; MsgsPerSec the
	// message rate. MatchedPerSec = MsgsPerSec × MatchesPerMsg.
	MatchedPerSec float64 `json:"matched_per_sec"`
	MsgsPerSec    float64 `json:"msgs_per_sec"`
	MatchesPerMsg float64 `json:"matches_per_msg"`
	ScannedPerMsg float64 `json:"scanned_per_msg"`
	// StoredSubs / IndexedSubs is the covering collapse ratio (1 without
	// covering).
	StoredSubs    int           `json:"stored_subs"`
	IndexedSubs   int           `json:"indexed_subs"`
	CollapseRatio float64       `json:"collapse_ratio"`
	Elapsed       time.Duration `json:"elapsed_ns"`
	Processed     int64         `json:"processed"`
}

// RunMatchBench measures steady-state batched match throughput of one
// matcher dimension stage, driving the same matchBatch path the SEDA stage
// runs — TTL check, stab+verify split across the configured workers, delivery
// coalescing into DeliverBatch frames — against a discard transport.
func RunMatchBench(o MatchBenchOpts) (*MatchBenchResult, error) {
	o.defaults()
	sp := core.UniformSpace(o.Dims, o.Extent)
	m, err := New(Config{
		ID: 1, Addr: "bench", Space: sp, Transport: discardTransport{},
		IndexKind: o.Kind, IndexBuckets: o.Buckets,
		Covering: o.Covering, MatchShards: o.Shards,
	})
	if err != nil {
		return nil, err
	}
	defer func() {
		if m.pool != nil {
			m.pool.stop()
		}
	}()

	rng := rand.New(rand.NewSource(o.Seed))
	mkCuboid := func() []core.Range {
		preds := make([]core.Range, o.Dims)
		for d := range preds {
			lo := rng.Float64() * (o.Extent - o.PredLen)
			preds[d] = core.Range{Low: lo, High: lo + o.PredLen}
		}
		return preds
	}
	var templates [][]core.Range
	if o.Templates > 0 {
		templates = make([][]core.Range, o.Templates)
		for i := range templates {
			templates[i] = mkCuboid()
		}
	}
	for i := 1; i <= o.Subs; i++ {
		var preds []core.Range
		if templates != nil {
			// The first subscriber of each template takes the exact template
			// cuboid; later ones shrink it slightly on each side — strictly
			// contained, so the covering path sees true containment and each
			// template collapses to one indexed cover.
			t := templates[(i-1)%len(templates)]
			if i <= len(templates) {
				preds = t
			} else {
				preds = make([]core.Range, len(t))
				for d, r := range t {
					eps := o.PredLen * 0.02
					preds[d] = core.Range{Low: r.Low + rng.Float64()*eps, High: r.High - rng.Float64()*eps}
				}
			}
		} else {
			preds = mkCuboid()
		}
		s := core.NewSubscription(core.SubscriberID(i), preds)
		s.ID = core.SubscriptionID(i)
		m.store(0, s, "sink")
	}

	batches := make([][]*core.Message, 0, o.Msgs/o.Batch+1)
	var cur []*core.Message
	for i := 0; i < o.Msgs; i++ {
		attrs := make([]float64, o.Dims)
		for d := range attrs {
			attrs[d] = rng.Float64() * o.Extent
		}
		msg := core.NewMessage(attrs, nil)
		msg.ID = core.MessageID(i + 1)
		cur = append(cur, msg)
		if len(cur) == o.Batch {
			batches = append(batches, cur)
			cur = nil
		}
	}
	if len(cur) > 0 {
		batches = append(batches, cur)
	}

	ds := m.dims[0]
	pass := func() {
		for _, chunk := range batches {
			m.matchBatch(ds, 0, forwardItem{msgs: chunk})
		}
	}
	pass() // warm the scratch pool and the branch predictors

	matched0, processed0, scanned0 := m.Matched.Value(), m.Processed.Value(), m.Scanned.Value()
	start := time.Now()
	for time.Since(start) < o.MinDuration {
		pass()
	}
	elapsed := time.Since(start)

	res := &MatchBenchResult{
		Elapsed:     elapsed,
		Processed:   m.Processed.Value() - processed0,
		StoredSubs:  m.SubsOnDim(0),
		IndexedSubs: m.IndexedOnDim(0),
	}
	matched := m.Matched.Value() - matched0
	scanned := m.Scanned.Value() - scanned0
	secs := elapsed.Seconds()
	if secs > 0 {
		res.MatchedPerSec = float64(matched) / secs
		res.MsgsPerSec = float64(res.Processed) / secs
	}
	if res.Processed > 0 {
		res.MatchesPerMsg = float64(matched) / float64(res.Processed)
		res.ScannedPerMsg = float64(scanned) / float64(res.Processed)
	}
	if res.IndexedSubs > 0 {
		res.CollapseRatio = float64(res.StoredSubs) / float64(res.IndexedSubs)
	}
	return res, nil
}
