// Elasticity evaluation: the tentpole experiment behind BENCH_elasticity.json.
//
// Two segments share one seed. The simulator segment ramps a σ-skewed
// workload on the virtual clock: a 2-matcher cluster absorbs a surge far
// above its capacity, the embedded elastic.Controller scales it up (joins
// and hot-segment splits), and drains it back to the floor when the surge
// passes — the matcher-count timeline and per-phase p99 response times are
// the deliverable. The real-cluster segment runs the same controller against
// the in-process TCP stack under chaos-degraded links with the delivery
// auditor attached, proving that every controller-initiated handover and
// split preserves the acked-delivery invariant.
package experiment

import (
	"fmt"
	"os"
	"sort"
	"time"

	"bluedove/internal/chaos"
	"bluedove/internal/cluster"
	"bluedove/internal/core"
	"bluedove/internal/elastic"
	"bluedove/internal/metrics"
	"bluedove/internal/sim"
	"bluedove/internal/workload"
)

// ElasticityDecision is one journaled controller decision (virtual-clock
// segment).
type ElasticityDecision struct {
	TSec   float64     `json:"t_sec"`
	Action string      `json:"action"`
	Target core.NodeID `json:"target,omitempty"`
	To     core.NodeID `json:"to,omitempty"`
	Dim    int         `json:"dim"`
	Reason string      `json:"reason"`
}

// ElasticityPoint is one matcher-count sample.
type ElasticityPoint struct {
	TSec     float64 `json:"t_sec"`
	Matchers int     `json:"matchers"`
}

// ElasticityResult is the combined outcome.
type ElasticityResult struct {
	Seed int64 `json:"seed"`

	// Simulator segment: σ-skewed ramp on the virtual clock.
	SimStartMatchers int                  `json:"sim_start_matchers"`
	SimPeakMatchers  int                  `json:"sim_peak_matchers"`
	SimFinalMatchers int                  `json:"sim_final_matchers"`
	SimScaleUps      int64                `json:"sim_scale_ups"`
	SimScaleDowns    int64                `json:"sim_scale_downs"`
	SimSplits        int64                `json:"sim_splits"`
	SimThrash        int64                `json:"sim_thrash"`
	SimLost          int64                `json:"sim_lost"`
	SimDecisions     []ElasticityDecision `json:"sim_decisions"`
	SimMatcherSeries []ElasticityPoint    `json:"sim_matcher_series"`
	// Per-phase p99 response times (seconds): before the surge, late in the
	// surge after the controller has scaled, and after the drain back down.
	BaselineP99Sec   float64 `json:"baseline_p99_sec"`
	ScaledSurgeP99   float64 `json:"scaled_surge_p99_sec"`
	RecoveredP99     float64 `json:"recovered_p99_sec"`
	SurgeP99Factor   float64 `json:"surge_p99_over_baseline"` // ScaledSurgeP99 / BaselineP99Sec
	P99WithinTwofold bool    `json:"p99_within_2x_of_baseline"`

	// Real-cluster segment: controller-driven drain + split under chaos.
	ChaosStartMatchers int    `json:"chaos_start_matchers"`
	ChaosFinalMatchers int    `json:"chaos_final_matchers"`
	ChaosScaleDowns    int64  `json:"chaos_scale_downs"`
	ChaosSplits        int64  `json:"chaos_splits"`
	ChaosPublished     int    `json:"chaos_published"`
	ChaosDuplicates    int    `json:"chaos_duplicate_deliveries"`
	ChaosZeroLoss      bool   `json:"chaos_zero_acked_loss"`
	ChaosLossDetail    string `json:"chaos_loss_detail,omitempty"`
}

// Phase boundaries of the simulated ramp (virtual seconds).
const (
	elBaselineRate = 300.0
	elSurgeRate    = 3500.0
	elIdleRate     = 150.0
	elSurgeFrom    = 20
	elSurgeUntil   = 140
	elDriveUntil   = 260
	elRunUntil     = 300
)

// Elasticity runs both segments. Given the same seed the simulator segment
// is bit-for-bit reproducible (decisions included); the chaos segment's
// fault schedule replays from the same seed.
func Elasticity(seed int64) (*ElasticityResult, error) {
	if seed == 0 {
		seed = 1
	}
	r := &ElasticityResult{Seed: seed}
	elasticitySim(seed, r)
	if err := elasticityChaos(seed, r); err != nil {
		return nil, err
	}
	return r, nil
}

// elasticitySim drives the σ-skewed ramp on the virtual clock.
func elasticitySim(seed int64, r *ElasticityResult) {
	space := core.UniformSpace(4, 1000)
	wcfg := workload.Default(space)
	wcfg.Seed = seed
	// σ-skew: predicate centers cluster tightly around per-dimension hot
	// spots and the messages' leading dimensions follow the same
	// distribution, so the load lands on a narrow slice of the space.
	wcfg.SubStdDev = 70
	wcfg.SkewedMsgDims = 3

	cfg := sim.Config{
		Space:    space,
		Matchers: 2,
		Seed:     seed,
		// Inflated matching costs keep the event count small; controller
		// behaviour is cost-scale invariant.
		BaseMatchCost: 200 * time.Microsecond,
		PerScanCost:   3 * time.Microsecond,
		SampleEvery:   1, // record every response: the phases need true p99s
		Elastic:       true,
	}
	cfg.ElasticCheckInterval = 2 * time.Second
	cfg.ElasticConfig = elastic.Config{
		SustainRounds:  2,
		CooldownRounds: 5,
		MinMatchers:    2,
		MaxMatchers:    6,
		OnDecision: func(d elastic.Decision) {
			r.SimDecisions = append(r.SimDecisions, ElasticityDecision{
				TSec:   float64(d.At) / 1e9,
				Action: d.Action.String(),
				Target: d.Target,
				To:     d.To,
				Dim:    d.Dim,
				Reason: d.Reason,
			})
		},
	}
	cl := sim.NewCluster(cfg)
	gen := workload.New(wcfg)
	cl.SubscribeAll(gen.Subscriptions(2000))

	cl.Drive(gen, workload.Steps{
		{From: 0, Rate: elBaselineRate},
		{From: int64(elSurgeFrom * time.Second), Rate: elSurgeRate},
		{From: int64(elSurgeUntil * time.Second), Rate: elIdleRate},
	}, int64(elDriveUntil*time.Second))

	r.SimStartMatchers = 2
	cl.Engine().Every(int64(time.Second), time.Second, func() bool {
		n := len(cl.Matchers())
		if n > r.SimPeakMatchers {
			r.SimPeakMatchers = n
		}
		r.SimMatcherSeries = append(r.SimMatcherSeries, ElasticityPoint{
			TSec: float64(cl.Now()) / 1e9, Matchers: n,
		})
		return true
	})
	cl.RunUntil(int64(elRunUntil * time.Second))

	r.SimFinalMatchers = len(cl.Matchers())
	ctrl := cl.ElasticController()
	r.SimScaleUps = ctrl.ScaleUps.Value()
	r.SimScaleDowns = ctrl.ScaleDowns.Value()
	r.SimSplits = ctrl.Splits.Value()
	r.SimThrash = ctrl.Thrash.Value()
	r.SimLost = cl.Stats().Lost.Value()

	// Phase p99s keyed by arrival time: baseline before the surge, the last
	// 40 surge seconds (the controller has scaled by then; the transient
	// backlog from the under-provisioned start has drained), and the
	// post-drain tail back at the floor.
	points := cl.Stats().RespSeries.Points()
	r.BaselineP99Sec = p99Between(points, 5, elSurgeFrom)
	r.ScaledSurgeP99 = p99Between(points, elSurgeUntil-40, elSurgeUntil)
	r.RecoveredP99 = p99Between(points, 200, elDriveUntil)
	if r.BaselineP99Sec > 0 {
		r.SurgeP99Factor = r.ScaledSurgeP99 / r.BaselineP99Sec
	}
	r.P99WithinTwofold = r.SurgeP99Factor > 0 && r.SurgeP99Factor <= 2
}

// p99Between computes the 99th percentile of series values whose timestamps
// (ns) fall in [fromSec, toSec).
func p99Between(points []metrics.Point, fromSec, toSec int64) float64 {
	var vals []float64
	for _, p := range points {
		sec := p.T / 1e9
		if sec >= fromSec && sec < toSec {
			vals = append(vals, p.V)
		}
	}
	if len(vals) == 0 {
		return 0
	}
	sort.Float64s(vals)
	return vals[int(float64(len(vals)-1)*0.99)]
}

// elasticityChaos runs the controller against the real in-process cluster:
// chaos-degraded links, a full-space audited subscriber, one actuator-driven
// hot-segment split mid-burst, and the controller idling the 4-matcher
// cluster down to its floor of 2 — every handover audited for acked loss.
func elasticityChaos(seed int64, r *ElasticityResult) error {
	ctrl := chaos.NewController(seed)
	defer ctrl.Close()
	dir, err := os.MkdirTemp("", "bluedove-elasticity")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	c, err := cluster.Start(cluster.Options{
		Space:           core.UniformSpace(4, 1000),
		Matchers:        4,
		Dispatchers:     2,
		GossipInterval:  50 * time.Millisecond,
		FailAfter:       500 * time.Millisecond,
		ReportInterval:  50 * time.Millisecond,
		RecoveryDelay:   200 * time.Millisecond,
		PruneGrace:      300 * time.Millisecond,
		Persistent:      true,
		RetryInterval:   100 * time.Millisecond,
		DataDir:         dir,
		Chaos:           ctrl,
		Elastic:         true,
		ElasticInterval: 100 * time.Millisecond,
		DrainGrace:      400 * time.Millisecond,
		ElasticConfig: elastic.Config{
			// The first decision needs ~1.5s of sustained idle — room for
			// the audited split to land before the controller starts
			// draining (and possibly stopping) candidate matchers.
			SustainRounds:  15,
			CooldownRounds: 10,
			MinMatchers:    2,
		},
	})
	if err != nil {
		return err
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		return err
	}
	r.ChaosStartMatchers = 4

	full := []core.Range{
		{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	}
	aud := chaos.NewAuditor()
	aud.Subscribed(1, full)
	subCl, err := c.NewClient(0, func(m *core.Message, _ []core.SubscriptionID) {
		aud.Delivered(1, m)
	})
	if err != nil {
		return err
	}
	if _, err := subCl.Subscribe(full); err != nil {
		return err
	}
	time.Sleep(300 * time.Millisecond) // let the stores land

	// Degrade every dispatcher↔matcher link for the whole run.
	faults := chaos.LinkFaults{Drop: 0.05, Duplicate: 0.05,
		DelayMin: time.Millisecond, DelayMax: 3 * time.Millisecond}
	for _, id := range c.MatcherIDs() {
		maddr, _ := c.MatcherAddr(id)
		for _, daddr := range c.DispatcherAddrs() {
			ctrl.SetFaults(daddr, maddr, faults)
			ctrl.SetFaults(maddr, daddr, faults)
		}
	}

	pubCl, err := c.NewClient(1, nil)
	if err != nil {
		return err
	}

	// A controller-actuator split first: the first matcher's widest dim-0
	// segment is cut and the upper half re-homed — the range handover the
	// burst below must survive.
	ids := c.LiveMatcherIDs()
	if _, err := c.SplitSegment(ids[0], 0, ids[1]); err != nil {
		return fmt.Errorf("experiment: split: %v", err)
	}
	r.ChaosSplits = 1

	// Publish a steady audited burst. The load is far below 4 matchers'
	// capacity, so the embedded controller drains the cluster to its floor
	// mid-traffic — each drain is a controller-initiated range handover.
	const burst = 1500
	for i := 0; i < burst; i++ {
		token := fmt.Sprintf("el-%06d", i)
		attrs := []float64{float64((i * 37) % 1000), float64((i * 59) % 1000),
			float64((i * 83) % 1000), float64((i * 101) % 1000)}
		if err := pubCl.Publish(attrs, []byte(token)); err != nil {
			return fmt.Errorf("experiment: publish %d rejected: %v", i, err)
		}
		aud.Published(token, attrs)
		time.Sleep(2 * time.Millisecond)
	}

	// Wait for the controller to reach the floor.
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		if len(c.LiveMatcherIDs()) <= 2 {
			break
		}
		time.Sleep(100 * time.Millisecond)
	}
	lossErr := aud.WaitComplete(20 * time.Second)

	r.ChaosFinalMatchers = len(c.LiveMatcherIDs())
	r.ChaosScaleDowns = c.ElasticController().ScaleDowns.Value()
	r.ChaosPublished = burst
	r.ChaosDuplicates = aud.Duplicates()
	r.ChaosZeroLoss = lossErr == nil
	if lossErr != nil {
		r.ChaosLossDetail = lossErr.Error()
	}
	return nil
}

// Table renders the combined summary.
func (r *ElasticityResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Elasticity: σ-skewed ramp autoscale (seed %d)", r.Seed),
		Note: fmt.Sprintf("sim %d→%d→%d matchers; chaos segment %d→%d with zero acked loss = %v",
			r.SimStartMatchers, r.SimPeakMatchers, r.SimFinalMatchers,
			r.ChaosStartMatchers, r.ChaosFinalMatchers, r.ChaosZeroLoss),
		Header: []string{"metric", "value"},
	}
	t.AddRow("sim scale-ups", r.SimScaleUps)
	t.AddRow("sim scale-downs", r.SimScaleDowns)
	t.AddRow("sim splits", r.SimSplits)
	t.AddRow("sim thrash", r.SimThrash)
	t.AddRow("sim lost", r.SimLost)
	t.AddRow("baseline p99 (s)", r.BaselineP99Sec)
	t.AddRow("scaled surge p99 (s)", r.ScaledSurgeP99)
	t.AddRow("recovered p99 (s)", r.RecoveredP99)
	t.AddRow("surge/baseline p99 factor", r.SurgeP99Factor)
	t.AddRow("p99 within 2x of baseline", r.P99WithinTwofold)
	t.AddRow("chaos scale-downs", r.ChaosScaleDowns)
	t.AddRow("chaos splits", r.ChaosSplits)
	t.AddRow("chaos duplicates", r.ChaosDuplicates)
	t.AddRow("chaos zero acked loss", r.ChaosZeroLoss)
	return t
}
