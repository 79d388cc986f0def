package sim

import (
	"time"

	"bluedove/internal/core"
	"bluedove/internal/elastic"
	"bluedove/internal/forward"
	"bluedove/internal/index"
	"bluedove/internal/placement"
)

// Config parameterizes a simulated cluster. Zero fields take the defaults
// documented per field (applied by withDefaults), which model the paper's
// testbed: Gigabit-LAN latencies, 1 s load reports pushed on >10% change,
// 10 s table pulls, and a matching cost dominated by the number of
// subscriptions scanned.
type Config struct {
	// Space is the attribute space; required.
	Space *core.Space
	// Matchers is the initial matcher count; required (>0).
	Matchers int
	// Dispatchers is the dispatcher count (default 2, as in the paper).
	Dispatchers int
	// Strategy is the placement strategy (default placement.BlueDove{}).
	Strategy placement.Strategy
	// Policy is the forwarding policy (default forward.Adaptive{}).
	Policy forward.Policy
	// IndexKind selects the per-dimension matcher index (default
	// index.KindScan, the zero value).
	IndexKind index.Kind
	// MatchShards models the real matcher's batch-parallel match path
	// (matcher.Config.MatchShards): each dimension stage's per-scan service
	// time is divided by this worker count, since a batch's stab+verify
	// work is split across that many cores over the one per-dimension
	// index, whose scan cost does not depend on the worker count. Default
	// 1 — the serial stage layout.
	MatchShards int

	// BaseMatchCost is the fixed per-message matching overhead
	// (default 20µs).
	BaseMatchCost time.Duration
	// PerScanCost is the service time per subscription scanned
	// (default 300ns — calibrated so a 40k-subscription full scan costs
	// ~12ms, matching the paper's full-replication throughput).
	PerScanCost time.Duration
	// PerDeliverCost is the service time per matched subscription delivered
	// (default 1µs).
	PerDeliverCost time.Duration
	// BatchSize models publication batching on the forward path (the real
	// stack's dispatcher.Config.ForwardLinger pipeline): the fixed
	// per-message overhead BaseMatchCost is amortized across BatchSize
	// messages arriving in one frame, so effective service time per message
	// is BaseMatchCost/BatchSize + the per-scan and per-deliver terms.
	// Default 1 — no batching, today's cost model.
	BatchSize int
	// NetDelay is the one-hop network latency (default 500µs).
	NetDelay time.Duration
	// DispatchCost is the dispatcher's per-message processing time, modeled
	// as added latency without queueing — the paper measured dispatching to
	// be two orders of magnitude cheaper than matching (default 5µs).
	DispatchCost time.Duration
	// Edges models an edge connection tier between matchers and subscriber
	// sessions (the real stack's internal/edge): each delivery rides one
	// extra NetDelay hop to its edge plus a per-matched-session re-match and
	// enqueue service term, amortized across Edges servers. 0 = sessions
	// connect directly to dispatchers, today's model.
	Edges int
	// EdgeFanoutCost is the edge tier's service time per matched session
	// fanned out (default 2µs; meaningful only with Edges > 0).
	EdgeFanoutCost time.Duration

	// ReportInterval is the matcher load-report cadence (default 1s).
	ReportInterval time.Duration
	// ReportDeltaFrac suppresses reports when no per-dimension queue or
	// rate changed by more than this fraction (default 0.1).
	ReportDeltaFrac float64
	// RateWindow is the λ/μ measurement window w (default 2s).
	RateWindow time.Duration
	// TablePullInterval is the dispatcher segment-table pull cadence
	// (default 10s).
	TablePullInterval time.Duration
	// TablePropagateDelay is the time for a new segment table to reach all
	// dispatchers after a join/leave (gossip rounds; default 2s).
	TablePropagateDelay time.Duration
	// FailureDetectDelay is the time between a matcher crash and all
	// dispatchers marking it dead (gossip heartbeat timeout; default 10s).
	FailureDetectDelay time.Duration
	// RecoveryDelay is the additional time after failure detection before
	// subscriptions are re-installed onto surviving matchers (default 5s).
	RecoveryDelay time.Duration

	// Elastic enables the elasticity controller — the same elastic.Controller
	// the real cluster embeds, driven by the virtual clock: sustained high
	// utilization joins a matcher, sustained idle drains one, and a σ-skew
	// signature splits the hot matcher's segment (Figure 9's experiment and
	// beyond).
	Elastic bool
	// ElasticCheckInterval is the controller's scrape cadence (default 5s).
	ElasticCheckInterval time.Duration
	// ElasticCooldown is the minimum time between controller actions; it is
	// translated into the controller's CooldownRounds at the scrape cadence
	// unless ElasticConfig.CooldownRounds is set (default 20s).
	ElasticCooldown time.Duration
	// ElasticConfig tunes the embedded controller (watermarks, hysteresis,
	// matcher floor/ceiling). Zero fields take elastic.Config defaults, except
	// CooldownRounds which derives from ElasticCooldown.
	ElasticConfig elastic.Config
	// ElasticBacklogSecs is retained for configuration compatibility with the
	// superseded backlog-growth controller; the elastic.Controller's
	// QueueHorizonSec now governs how standing queues count against
	// utilization.
	ElasticBacklogSecs float64

	// Persistent enables the message-persistence extension (paper Section
	// VI future work: "add message persistence mechanism to support
	// applications that do not tolerate message loss"): dispatchers retain
	// forwarded messages until matched, and messages caught on a crashed
	// matcher — queued, in service, or sent before failure detection — are
	// re-forwarded to surviving candidates instead of being lost.
	Persistent bool
	// PersistMaxAttempts caps re-forwards per message (default 20).
	PersistMaxAttempts int
	// PersistRetryDelay is the wait before retrying when no alive
	// candidate exists (default 500ms).
	PersistRetryDelay time.Duration
	// MatcherQueueDepth bounds each matcher's per-dimension queue, modeling
	// the real stack's matcher.Config.QueueDepth: a forward arriving at a
	// full stage is rejected with a busy NACK instead of queued (0 =
	// unbounded, today's behavior).
	MatcherQueueDepth int
	// BusyReroute enables the overload-control re-route: a busy-NACKed
	// forward rides one network hop back to its dispatcher, which re-forwards
	// it to the next-best untried candidate (bounded by PersistMaxAttempts).
	// Without it a rejected forward is lost, modeling the pre-overload-layer
	// silent drop.
	BusyReroute bool
	// MessageTTL stamps every publication with this time-to-live: a message
	// still queued when it expires is shed at dequeue instead of matched
	// (graceful shedding of stale work; 0 = no TTL).
	MessageTTL time.Duration
	// SampleEvery records one response-time point per this many completions
	// into the time series (default 20; histograms record every sample).
	SampleEvery int
	// TraceSampleRate, when > 0, enables the observability subsystem on the
	// simulated cluster: this fraction of publications carries a hop-level
	// trace context stamped with virtual-clock times (the same TraceCtx the
	// real stack puts on the wire), and the cluster exposes a telemetry
	// bundle whose registry and tracer read the virtual clock.
	TraceSampleRate float64
	// Clusters, when > 1, models a federated deployment: NewFederation
	// builds this many complete clusters over one shared virtual clock,
	// each with a border that summarizes local interest, and routes
	// publications across the inter-cluster mesh only toward clusters
	// whose summary matches (the real stack's internal/federation tier).
	Clusters int
	// InterClusterLatency is the one-way border-to-border WAN latency
	// (default 50ms; meaningful only with Clusters > 1).
	InterClusterLatency time.Duration
	// FedSummaryInterval is the border summary refresh cadence
	// (default 1s; meaningful only with Clusters > 1).
	FedSummaryInterval time.Duration
	// FedMaxRangesPerDim caps each summary dimension's interval count,
	// widening lossily past it (default 64).
	FedMaxRangesPerDim int

	// Seed drives all randomized decisions (default 1).
	Seed int64
	// OnDeliver, when set, is invoked at each message completion with the
	// message and the subscriptions it matched (delivery to subscribers).
	OnDeliver func(m *core.Message, matched []*core.Subscription)
}

func (c Config) withDefaults() Config {
	if c.Space == nil {
		panic("sim: Config.Space is required")
	}
	if c.Matchers <= 0 {
		panic("sim: Config.Matchers must be positive")
	}
	if c.Dispatchers <= 0 {
		c.Dispatchers = 2
	}
	if c.Strategy == nil {
		c.Strategy = placement.BlueDove{}
	}
	if c.Policy == nil {
		c.Policy = forward.Adaptive{}
	}
	if c.BaseMatchCost <= 0 {
		c.BaseMatchCost = 20 * time.Microsecond
	}
	if c.PerScanCost <= 0 {
		c.PerScanCost = 300 * time.Nanosecond
	}
	if c.PerDeliverCost <= 0 {
		c.PerDeliverCost = time.Microsecond
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 1
	}
	if c.MatchShards <= 0 {
		c.MatchShards = 1
	}
	if c.NetDelay <= 0 {
		c.NetDelay = 500 * time.Microsecond
	}
	if c.DispatchCost <= 0 {
		c.DispatchCost = 5 * time.Microsecond
	}
	if c.EdgeFanoutCost <= 0 {
		c.EdgeFanoutCost = 2 * time.Microsecond
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = time.Second
	}
	if c.ReportDeltaFrac <= 0 {
		c.ReportDeltaFrac = 0.1
	}
	if c.RateWindow <= 0 {
		c.RateWindow = 2 * time.Second
	}
	if c.TablePullInterval <= 0 {
		c.TablePullInterval = 10 * time.Second
	}
	if c.TablePropagateDelay <= 0 {
		c.TablePropagateDelay = 2 * time.Second
	}
	if c.FailureDetectDelay <= 0 {
		c.FailureDetectDelay = 10 * time.Second
	}
	if c.RecoveryDelay <= 0 {
		c.RecoveryDelay = 5 * time.Second
	}
	if c.ElasticCheckInterval <= 0 {
		c.ElasticCheckInterval = 5 * time.Second
	}
	if c.ElasticCooldown <= 0 {
		c.ElasticCooldown = 20 * time.Second
	}
	if c.ElasticBacklogSecs <= 0 {
		c.ElasticBacklogSecs = 0.15
	}
	if c.PersistMaxAttempts <= 0 {
		c.PersistMaxAttempts = 20
	}
	if c.PersistRetryDelay <= 0 {
		c.PersistRetryDelay = 500 * time.Millisecond
	}
	if c.SampleEvery <= 0 {
		c.SampleEvery = 20
	}
	if c.InterClusterLatency <= 0 {
		c.InterClusterLatency = 50 * time.Millisecond
	}
	if c.FedSummaryInterval <= 0 {
		c.FedSummaryInterval = time.Second
	}
	if c.FedMaxRangesPerDim <= 0 {
		c.FedMaxRangesPerDim = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}
