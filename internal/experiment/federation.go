// Federation benchmark on the real border tier: two complete clusters on the
// in-process mesh, joined by border dispatchers exchanging interest
// summaries (internal/federation). Three phases, each on a fresh federation:
//
//   - suppression: cluster 2's interest is a narrow band; cluster 1 publishes
//     a disjoint workload that must die at the origin border (nothing
//     crosses the link), then an in-band workload that must all cross and
//     deliver — the no-false-negative check riding the real match path.
//   - latency: full-space subscribers in both clusters; each publication
//     carries its send time in the payload (the receiving border reassigns
//     IDs and publish timestamps, so the payload is the only stable clock),
//     yielding intra-cluster vs cross-cluster delivery percentiles.
//   - link flap: an acked publisher bursts while the inter-cluster link is
//     partitioned mid-burst and healed later; every acked publication must
//     eventually arrive in the remote cluster (zero acked loss), carried by
//     the border's pending-forward retry machinery.
//
// All randomness derives from one seed, printed by the CLI for replay.
package experiment

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bluedove/internal/chaos"
	"bluedove/internal/cluster"
	"bluedove/internal/core"
	"bluedove/internal/metrics"
)

// FederationOpts parameterizes the federation benchmark.
type FederationOpts struct {
	Seed         int64 // drives attrs and fault timing (default 1)
	DisjointPubs int   // suppression-phase out-of-band publications (default 400)
	InBandPubs   int   // suppression-phase in-band publications (default 100)
	LatencyPubs  int   // latency-phase publications (default 400)
	FlapPubs     int   // link-flap burst length (default 150)
}

func (o FederationOpts) withDefaults() FederationOpts {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.DisjointPubs <= 0 {
		o.DisjointPubs = 400
	}
	if o.InBandPubs <= 0 {
		o.InBandPubs = 100
	}
	if o.LatencyPubs <= 0 {
		o.LatencyPubs = 400
	}
	if o.FlapPubs <= 0 {
		o.FlapPubs = 150
	}
	return o
}

// FederationResult is the benchmark outcome.
type FederationResult struct {
	Seed int64 `json:"seed"`

	// Suppression phase.
	DisjointPubs     int     `json:"disjoint_pubs"`
	InBandPubs       int     `json:"in_band_pubs"`
	CrossedDisjoint  int64   `json:"crossed_disjoint"`  // FedPublish frames the disjoint workload put on the link
	CrossedInBand    int64   `json:"crossed_in_band"`   // in-band frames that crossed (should be all of them)
	InBandDelivered  int     `json:"in_band_delivered"` // in-band publications delivered remotely
	SuppressionRatio float64 `json:"suppression_ratio"` // fraction of the disjoint workload kept off the link
	RemoteLeaks      int     `json:"remote_leaks"`      // disjoint publications that reached a remote subscriber

	// Latency phase (milliseconds).
	LatencyPubs int     `json:"latency_pubs"`
	IntraP50    float64 `json:"intra_p50_ms"`
	IntraP99    float64 `json:"intra_p99_ms"`
	CrossP50    float64 `json:"cross_p50_ms"`
	CrossP99    float64 `json:"cross_p99_ms"`

	// Link-flap phase.
	FlapPubs      int    `json:"flap_pubs"`
	FlapAcked     int    `json:"flap_acked"`
	FlapRetries   int64  `json:"flap_retries"`
	ZeroAckedLoss bool   `json:"zero_acked_loss"`
	LossDetail    string `json:"loss_detail,omitempty"`
}

// Table renders the human-readable report.
func (r *FederationResult) Table() fmt.Stringer {
	return fedTable{r}
}

type fedTable struct{ r *FederationResult }

func (t fedTable) String() string {
	r := t.r
	return fmt.Sprintf(`federation benchmark (seed %d)
  suppression: %d disjoint pubs, %d crossed the link (ratio %.3f, %d remote leaks)
               %d in-band pubs, %d crossed, %d delivered remotely
  latency:     intra-cluster p50 %.2fms p99 %.2fms
               cross-cluster p50 %.2fms p99 %.2fms
  link flap:   %d/%d acked through partition+heal, %d border retries, zero acked loss: %v%s`,
		r.Seed,
		r.DisjointPubs, r.CrossedDisjoint, r.SuppressionRatio, r.RemoteLeaks,
		r.InBandPubs, r.CrossedInBand, r.InBandDelivered,
		r.IntraP50, r.IntraP99, r.CrossP50, r.CrossP99,
		r.FlapAcked, r.FlapPubs, r.FlapRetries, r.ZeroAckedLoss,
		map[bool]string{true: "", false: " (" + r.LossDetail + ")"}[r.ZeroAckedLoss])
}

// fedBenchOptions is the two-cluster topology every phase boots: small and
// fast-converging, matching the cluster test defaults.
func fedBenchOptions() cluster.Options {
	return cluster.Options{
		Space:              core.UniformSpace(4, 1000),
		Matchers:           2,
		Dispatchers:        2,
		GossipInterval:     50 * time.Millisecond,
		FailAfter:          500 * time.Millisecond,
		ReportInterval:     50 * time.Millisecond,
		RecoveryDelay:      200 * time.Millisecond,
		PruneGrace:         300 * time.Millisecond,
		FedSummaryInterval: 50 * time.Millisecond,
	}
}

// fedCounter tallies deliveries by payload.
type fedCounter struct {
	mu   sync.Mutex
	seen map[string]int
}

func newFedCounter() *fedCounter { return &fedCounter{seen: map[string]int{}} }

func (c *fedCounter) onDeliver(m *core.Message, _ []core.SubscriptionID) {
	c.mu.Lock()
	c.seen[string(m.Payload)]++
	c.mu.Unlock()
}

func (c *fedCounter) count(p string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seen[p]
}

func (c *fedCounter) total() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for _, v := range c.seen {
		n += v
	}
	return n
}

func fedPoll(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return false
}

// FederationTier runs the three-phase federation benchmark.
func FederationTier(opts FederationOpts) (*FederationResult, error) {
	opts = opts.withDefaults()
	r := &FederationResult{
		Seed:         opts.Seed,
		DisjointPubs: opts.DisjointPubs,
		InBandPubs:   opts.InBandPubs,
		LatencyPubs:  opts.LatencyPubs,
		FlapPubs:     opts.FlapPubs,
	}
	if err := fedSuppressionPhase(opts, r); err != nil {
		return nil, fmt.Errorf("suppression phase: %w", err)
	}
	if err := fedLatencyPhase(opts, r); err != nil {
		return nil, fmt.Errorf("latency phase: %w", err)
	}
	if err := fedFlapPhase(opts, r); err != nil {
		return nil, fmt.Errorf("link-flap phase: %w", err)
	}
	return r, nil
}

func fedSuppressionPhase(opts FederationOpts, r *FederationResult) error {
	f, err := cluster.StartFederated(2, fedBenchOptions())
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.WaitForTables(1, 10*time.Second); err != nil {
		return err
	}

	// Cluster 2's interest: dim0 in [800, 900). Cluster 1 keeps a local
	// full-space subscriber so every publication demonstrably matched
	// somewhere.
	remoteRec := newFedCounter()
	remoteCl, err := f.Clusters[1].NewClient(0, remoteRec.onDeliver)
	if err != nil {
		return err
	}
	if _, err := remoteCl.Subscribe([]core.Range{{Low: 800, High: 900},
		{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}}); err != nil {
		return err
	}
	localRec := newFedCounter()
	localCl, err := f.Clusters[0].NewClient(0, localRec.onDeliver)
	if err != nil {
		return err
	}
	if _, err := localCl.Subscribe([]core.Range{{Low: 0, High: 1000},
		{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}}); err != nil {
		return err
	}

	b1 := f.Clusters[0].Borders()[0]
	remoteAddr := f.Clusters[1].BorderAddrs()[0]
	if !fedPoll(10*time.Second, func() bool {
		s := b1.RemoteSummary(remoteAddr)
		return s != nil && s.Matches([]float64{850, 500, 500, 500})
	}) {
		return fmt.Errorf("cluster 2 summary never reached cluster 1")
	}

	pub, err := f.Clusters[0].NewClient(1, nil)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	for i := 0; i < opts.DisjointPubs; i++ {
		attrs := []float64{rng.Float64() * 700, rng.Float64() * 1000,
			rng.Float64() * 1000, rng.Float64() * 1000}
		if err := pub.Publish(attrs, []byte(fmt.Sprintf("dis-%d", i))); err != nil {
			return err
		}
	}
	// Every disjoint publication must land locally before we read the link
	// counters.
	if !fedPoll(30*time.Second, func() bool { return localRec.total() >= opts.DisjointPubs }) {
		return fmt.Errorf("local deliveries stalled at %d/%d", localRec.total(), opts.DisjointPubs)
	}
	time.Sleep(200 * time.Millisecond) // drain any in-flight link traffic
	r.CrossedDisjoint = b1.FedForwarded.Value()
	r.SuppressionRatio = 1 - float64(r.CrossedDisjoint)/float64(opts.DisjointPubs)
	r.RemoteLeaks = remoteRec.total()

	for i := 0; i < opts.InBandPubs; i++ {
		attrs := []float64{800 + rng.Float64()*100, rng.Float64() * 1000,
			rng.Float64() * 1000, rng.Float64() * 1000}
		if err := pub.Publish(attrs, []byte(fmt.Sprintf("band-%d", i))); err != nil {
			return err
		}
	}
	if !fedPoll(30*time.Second, func() bool {
		return remoteRec.total()-r.RemoteLeaks >= opts.InBandPubs
	}) {
		return fmt.Errorf("in-band deliveries stalled at %d/%d",
			remoteRec.total()-r.RemoteLeaks, opts.InBandPubs)
	}
	r.CrossedInBand = b1.FedForwarded.Value() - r.CrossedDisjoint
	r.InBandDelivered = remoteRec.total() - r.RemoteLeaks
	return nil
}

// fedStamp collects payload-embedded send-time latencies.
type fedStamp struct {
	mu   sync.Mutex
	hist *metrics.Histogram
}

func (s *fedStamp) onDeliver(m *core.Message, _ []core.SubscriptionID) {
	if len(m.Payload) < 8 {
		return
	}
	sent := int64(binary.LittleEndian.Uint64(m.Payload))
	s.mu.Lock()
	s.hist.Observe(time.Now().UnixNano() - sent)
	s.mu.Unlock()
}

func (s *fedStamp) count() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hist.Count()
}

func (s *fedStamp) quantileMs(q float64) float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return float64(s.hist.Quantile(q)) / 1e6
}

func fedLatencyPhase(opts FederationOpts, r *FederationResult) error {
	f, err := cluster.StartFederated(2, fedBenchOptions())
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.WaitForTables(1, 10*time.Second); err != nil {
		return err
	}

	full := []core.Range{{Low: 0, High: 1000}, {Low: 0, High: 1000},
		{Low: 0, High: 1000}, {Low: 0, High: 1000}}
	intra := &fedStamp{hist: metrics.NewHistogram()}
	cross := &fedStamp{hist: metrics.NewHistogram()}
	intraCl, err := f.Clusters[0].NewClient(0, intra.onDeliver)
	if err != nil {
		return err
	}
	if _, err := intraCl.Subscribe(full); err != nil {
		return err
	}
	crossCl, err := f.Clusters[1].NewClient(0, cross.onDeliver)
	if err != nil {
		return err
	}
	if _, err := crossCl.Subscribe(full); err != nil {
		return err
	}

	b1 := f.Clusters[0].Borders()[0]
	remoteAddr := f.Clusters[1].BorderAddrs()[0]
	if !fedPoll(10*time.Second, func() bool {
		s := b1.RemoteSummary(remoteAddr)
		return s != nil && !s.Empty()
	}) {
		return fmt.Errorf("cluster 2 summary never reached cluster 1")
	}

	pub, err := f.Clusters[0].NewClient(1, nil)
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(opts.Seed + 1))
	payload := make([]byte, 8)
	for i := 0; i < opts.LatencyPubs; i++ {
		attrs := []float64{rng.Float64() * 1000, rng.Float64() * 1000,
			rng.Float64() * 1000, rng.Float64() * 1000}
		binary.LittleEndian.PutUint64(payload, uint64(time.Now().UnixNano()))
		if err := pub.Publish(attrs, payload); err != nil {
			return err
		}
		time.Sleep(2 * time.Millisecond) // paced: latency, not saturation
	}
	want := int64(opts.LatencyPubs)
	if !fedPoll(30*time.Second, func() bool {
		return intra.count() >= want && cross.count() >= want
	}) {
		return fmt.Errorf("latency deliveries stalled: intra %d cross %d of %d",
			intra.count(), cross.count(), want)
	}
	r.IntraP50 = intra.quantileMs(0.5)
	r.IntraP99 = intra.quantileMs(0.99)
	r.CrossP50 = cross.quantileMs(0.5)
	r.CrossP99 = cross.quantileMs(0.99)
	return nil
}

func fedFlapPhase(opts FederationOpts, r *FederationResult) error {
	o := fedBenchOptions()
	o.Chaos = chaos.NewController(opts.Seed)
	o.Persistent = true
	f, err := cluster.StartFederated(2, o)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := f.WaitForTables(1, 10*time.Second); err != nil {
		return err
	}

	rec := newFedCounter()
	sub, err := f.Clusters[1].NewClient(0, rec.onDeliver)
	if err != nil {
		return err
	}
	if _, err := sub.Subscribe([]core.Range{{Low: 0, High: 1000}, {Low: 0, High: 1000},
		{Low: 0, High: 1000}, {Low: 0, High: 1000}}); err != nil {
		return err
	}
	b1 := f.Clusters[0].Borders()[0]
	remoteAddr := f.Clusters[1].BorderAddrs()[0]
	if !fedPoll(10*time.Second, func() bool {
		s := b1.RemoteSummary(remoteAddr)
		return s != nil && !s.Empty()
	}) {
		return fmt.Errorf("cluster 2 summary never reached cluster 1")
	}

	pub, err := f.Clusters[0].NewAckClient(0)
	if err != nil {
		return err
	}
	if !fedPoll(10*time.Second, func() bool {
		if err := pub.Publish([]float64{500, 500, 500, 500}, []byte("warm")); err != nil {
			return false
		}
		time.Sleep(20 * time.Millisecond)
		return rec.count("warm") > 0
	}) {
		return fmt.Errorf("pre-fault cross-cluster path never delivered")
	}

	rng := rand.New(rand.NewSource(opts.Seed + 2))
	var acked []string
	for i := 0; i < opts.FlapPubs; i++ {
		if i == opts.FlapPubs/3 {
			if err := f.PartitionBorderLinks(0, 1, true); err != nil {
				return err
			}
		}
		if i == 2*opts.FlapPubs/3 {
			if err := f.PartitionBorderLinks(0, 1, false); err != nil {
				return err
			}
		}
		payload := fmt.Sprintf("burst-%d", i)
		attrs := []float64{float64(rng.Intn(1000)), float64(rng.Intn(1000)),
			float64(rng.Intn(1000)), float64(rng.Intn(1000))}
		if err := pub.Publish(attrs, []byte(payload)); err != nil {
			continue // not acked: outside the loss contract
		}
		acked = append(acked, payload)
		time.Sleep(2 * time.Millisecond)
	}
	r.FlapAcked = len(acked)
	if len(acked) == 0 {
		return fmt.Errorf("no publications were admitted during the flap")
	}

	r.ZeroAckedLoss = fedPoll(60*time.Second, func() bool {
		for _, p := range acked {
			if rec.count(p) == 0 {
				return false
			}
		}
		return true
	})
	if !r.ZeroAckedLoss {
		missing := 0
		first := ""
		for _, p := range acked {
			if rec.count(p) == 0 {
				if first == "" {
					first = p
				}
				missing++
			}
		}
		r.LossDetail = fmt.Sprintf("%d acked publications missing remotely (first: %s)", missing, first)
	}
	r.FlapRetries = b1.Retries.Value()
	return nil
}
