// Disk-fault certification on the real in-process full stack: journaled
// dispatchers and matchers behind an edge tier, with the elasticity
// controller and the federation border tier running, while both network
// faults (drops, duplicates, delays on the dispatcher↔matcher fabric) and
// disk faults (fsync failure, ENOSPC) are injected concurrently.
//
// Two phases certify the two durability policies:
//
//   - FailStop: one matcher's disk starts failing every fsync mid-burst.
//     The store fails, the cluster crashes the node, persistence reroutes
//     its unacked forwards — every acked publication must still reach both
//     the direct subscriber and the edge session (zero acked loss).
//   - DegradeToMemory: one dispatcher's disk runs out of space mid-burst.
//     The node keeps serving — every publication is accepted and delivered
//     — while the weakened guarantee is reported exactly: store health
//     flips to degraded and every non-durable append is counted, so the
//     durable prefix plus the reported drops covers everything accepted.
package experiment

import (
	"fmt"
	"os"
	"time"

	"bluedove/internal/chaos"
	"bluedove/internal/cluster"
	"bluedove/internal/core"
	"bluedove/internal/elastic"
	"bluedove/internal/store"
)

// DiskFaultFailStop is the FailStop phase outcome.
type DiskFaultFailStop struct {
	Published     int64   `json:"published"`
	Expected      int     `json:"expected_deliveries"` // auditor-expected deliveries across both subscribers
	ZeroAckedLoss bool    `json:"zero_acked_loss"`     // every acked publication delivered everywhere
	LossDetail    string  `json:"loss_detail,omitempty"`
	Duplicates    int64   `json:"duplicates"`        // redeliveries absorbed by the auditor
	EdgeDelivered int64   `json:"edge_delivered"`    // deliveries that crossed the edge tier
	CrashMs       float64 `json:"fault_to_crash_ms"` // fsync fault injected → victim left the live set
	DiskFaults    int     `json:"disk_ops_faulted"`  // disk ops faulted on the victim (trace length)
	ElasticMoves  int64   `json:"elastic_moves"`     // controller scale-ups + replaces observed
}

// DiskFaultDegrade is the DegradeToMemory phase outcome.
type DiskFaultDegrade struct {
	Published       int64  `json:"published"`
	ZeroAckedLoss   bool   `json:"zero_acked_loss"`
	LossDetail      string `json:"loss_detail,omitempty"`
	Duplicates      int64  `json:"duplicates"`
	HealthDegraded  bool   `json:"store_degraded"`   // dispatcher store ended in Degraded
	Durable         int64  `json:"durable_appends"`  // appends that reached the disk
	Dropped         int64  `json:"reported_drops"`   // appends accepted non-durably (reported, not silent)
	AccountingExact bool   `json:"accounting_exact"` // Durable + Dropped >= accepted publications
}

// DiskFaultResult is the two-phase certification outcome.
type DiskFaultResult struct {
	Seed        int64             `json:"seed"`
	Matchers    int               `json:"matchers"`
	Dispatchers int               `json:"dispatchers"`
	Burst       int               `json:"burst_per_phase"`
	FailStop    DiskFaultFailStop `json:"fail_stop"`
	Degrade     DiskFaultDegrade  `json:"degrade"`
}

// DiskFaultOpts parameterizes the certification run.
type DiskFaultOpts struct {
	Seed     int64 // chaos seed: network and disk faults both derive from it (default 1)
	Burst    int   // publications per phase (default 300)
	Matchers int   // default 4
}

func (o *DiskFaultOpts) defaults() {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Burst <= 0 {
		o.Burst = 300
	}
	if o.Matchers <= 0 {
		o.Matchers = 4
	}
}

// diskFaultOptions builds the full-stack cluster the certification runs on:
// persistent journaled nodes, an edge server, the embedded elasticity
// controller, and the federation border tier (single cluster — no peers —
// so the border summary loop runs without a second cluster).
func diskFaultOptions(opts DiskFaultOpts, ctrl *chaos.Controller, dir string, policy store.FailPolicy) cluster.Options {
	return cluster.Options{
		Space:          core.UniformSpace(4, 1000),
		Matchers:       opts.Matchers,
		Dispatchers:    2,
		GossipInterval: 50 * time.Millisecond,
		FailAfter:      500 * time.Millisecond,
		ReportInterval: 50 * time.Millisecond,
		RecoveryDelay:  200 * time.Millisecond,
		PruneGrace:     300 * time.Millisecond,
		RetryInterval:  100 * time.Millisecond,

		Chaos:      ctrl,
		Persistent: true,
		DataDir:    dir,
		Fsync:      store.FsyncAlways,
		FailPolicy: policy,

		Edges:           1,
		Elastic:         true,
		ElasticInterval: 100 * time.Millisecond,
		// Hold the floor at the starting size so the controller reacts to
		// failure (replace) and load (up), never shrinks mid-certification.
		ElasticConfig:      elastic.Config{MinMatchers: opts.Matchers},
		Federation:         true,
		FedSummaryInterval: 100 * time.Millisecond,
	}
}

// diskFaultSpace is the all-matching subscription every auditor holds.
func diskFaultSpace() []core.Range {
	return []core.Range{
		{Low: 0, High: 1000}, {Low: 0, High: 1000},
		{Low: 0, High: 1000}, {Low: 0, High: 1000},
	}
}

// diskFaultFabricChaos arms the dispatcher↔matcher fabric with lossy,
// duplicating, delaying links in both directions.
func diskFaultFabricChaos(c *cluster.Cluster, ctrl *chaos.Controller) {
	faults := chaos.LinkFaults{Drop: 0.1, Duplicate: 0.05,
		DelayMin: time.Millisecond, DelayMax: 3 * time.Millisecond}
	for _, id := range c.MatcherIDs() {
		maddr, _ := c.MatcherAddr(id)
		for _, daddr := range c.DispatcherAddrs() {
			ctrl.SetFaults(daddr, maddr, faults)
			ctrl.SetFaults(maddr, daddr, faults)
		}
	}
}

// DiskFault runs the two-phase disk-fault certification.
func DiskFault(opts DiskFaultOpts) (*DiskFaultResult, error) {
	opts.defaults()
	r := &DiskFaultResult{Seed: opts.Seed, Matchers: opts.Matchers, Dispatchers: 2, Burst: opts.Burst}
	fs, err := diskFaultFailStop(opts)
	if err != nil {
		return nil, fmt.Errorf("experiment: diskfault failstop: %w", err)
	}
	r.FailStop = *fs
	dg, err := diskFaultDegrade(opts)
	if err != nil {
		return nil, fmt.Errorf("experiment: diskfault degrade: %w", err)
	}
	r.Degrade = *dg
	return r, nil
}

func diskFaultFailStop(opts DiskFaultOpts) (*DiskFaultFailStop, error) {
	ctrl := chaos.NewController(opts.Seed)
	defer ctrl.Close()
	dir, err := os.MkdirTemp("", "bluedove-diskfault-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	c, err := cluster.Start(diskFaultOptions(opts, ctrl, dir, store.FailStop))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		return nil, err
	}

	// Two audited subscribers: one direct client, one multiplexed edge
	// session — acked loss anywhere fails the certification.
	aud := chaos.NewAuditor()
	aud.Subscribed(1, diskFaultSpace())
	aud.Subscribed(2, diskFaultSpace())
	subCl, err := c.NewClient(0, func(m *core.Message, _ []core.SubscriptionID) {
		aud.Delivered(1, m)
	})
	if err != nil {
		return nil, err
	}
	if _, err := subCl.Subscribe(diskFaultSpace()); err != nil {
		return nil, err
	}
	sess, err := c.NewEdgeSession(0, func(m *core.Message, _ []core.SubscriptionID) {
		aud.Delivered(2, m)
	})
	if err != nil {
		return nil, err
	}
	if _, err := sess.Subscribe(diskFaultSpace()); err != nil {
		return nil, err
	}
	time.Sleep(300 * time.Millisecond) // let the stores land everywhere

	diskFaultFabricChaos(c, ctrl)

	victim := c.MatcherIDs()[0]
	victimLabel := fmt.Sprintf("matcher-%d", victim)
	pubCl, err := c.NewClient(1, nil)
	if err != nil {
		return nil, err
	}

	var faultAt time.Time
	for i := 0; i < opts.Burst; i++ {
		if i == opts.Burst/2 {
			// The victim's disk starts failing every fsync; the triggering
			// subscription install journals on every matcher, poisons the
			// victim's segment, and FailStop crashes the node mid-burst.
			faultAt = time.Now()
			ctrl.SetDiskFaults(victimLabel, chaos.DiskFaults{SyncErr: 1.0})
			trig, err := c.NewClient(0, func(*core.Message, []core.SubscriptionID) {})
			if err != nil {
				return nil, err
			}
			_, _ = trig.Subscribe(diskFaultSpace()) // may race the crash; best-effort
		}
		token := fmt.Sprintf("dfk-%05d", i)
		attrs := []float64{float64((i * 37) % 1000), float64((i * 59) % 1000),
			float64((i * 83) % 1000), float64((i * 101) % 1000)}
		if err := pubCl.Publish(attrs, []byte(token)); err != nil {
			return nil, fmt.Errorf("publish %d rejected: %v", i, err)
		}
		aud.Published(token, attrs)
		time.Sleep(time.Millisecond)
	}

	// FailStop actuation: wait for the victim to leave the live set.
	crashDeadline := time.Now().Add(10 * time.Second)
	var crashedAt time.Time
	for time.Now().Before(crashDeadline) {
		live := false
		for _, id := range c.LiveMatcherIDs() {
			if id == victim {
				live = true
				break
			}
		}
		if !live {
			crashedAt = time.Now()
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if crashedAt.IsZero() {
		return nil, fmt.Errorf("victim matcher %v never left the live set", victim)
	}
	if h := c.Matcher(victim).StoreHealth(); h != store.Failed {
		return nil, fmt.Errorf("victim store health = %v, want failed", h)
	}

	out := &DiskFaultFailStop{
		Published:     int64(opts.Burst),
		ZeroAckedLoss: true,
		CrashMs:       float64(crashedAt.Sub(faultAt).Microseconds()) / 1e3,
	}
	if err := aud.WaitComplete(30 * time.Second); err != nil {
		out.ZeroAckedLoss = false
		out.LossDetail = err.Error()
	}
	out.Expected = aud.Expected()
	out.Duplicates = int64(aud.Duplicates())
	out.EdgeDelivered = sess.Delivered()
	out.DiskFaults = len(ctrl.DiskTrace(victimLabel))
	if out.DiskFaults == 0 {
		return nil, fmt.Errorf("no disk faults were injected — certification lost its teeth")
	}
	if ec := c.ElasticController(); ec != nil {
		out.ElasticMoves = ec.ScaleUps.Value() + ec.Replaces.Value()
	}
	return out, nil
}

func diskFaultDegrade(opts DiskFaultOpts) (*DiskFaultDegrade, error) {
	ctrl := chaos.NewController(opts.Seed)
	defer ctrl.Close()
	dir, err := os.MkdirTemp("", "bluedove-diskfault-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	c, err := cluster.Start(diskFaultOptions(opts, ctrl, dir, store.DegradeToMemory))
	if err != nil {
		return nil, err
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		return nil, err
	}

	aud := chaos.NewAuditor()
	aud.Subscribed(1, diskFaultSpace())
	subCl, err := c.NewClient(1, func(m *core.Message, _ []core.SubscriptionID) {
		aud.Delivered(1, m)
	})
	if err != nil {
		return nil, err
	}
	if _, err := subCl.Subscribe(diskFaultSpace()); err != nil {
		return nil, err
	}
	time.Sleep(300 * time.Millisecond)

	diskFaultFabricChaos(c, ctrl)

	// Dispatcher 0 journals every accepted publication (persistent mode);
	// its disk admits ~4KiB more, then every write fails with ENOSPC.
	d0 := c.Dispatchers()[0]
	ctrl.SetDiskFaults(fmt.Sprintf("dispatcher-%d", d0.ID()), chaos.DiskFaults{ENOSPCAfter: 4096})

	pubCl, err := c.NewClient(0, nil) // publishes through dispatcher 0
	if err != nil {
		return nil, err
	}
	for i := 0; i < opts.Burst; i++ {
		token := fmt.Sprintf("deg-%05d", i)
		attrs := []float64{float64((i * 41) % 1000), float64((i * 67) % 1000),
			float64((i * 89) % 1000), float64((i * 103) % 1000)}
		if err := pubCl.Publish(attrs, []byte(token)); err != nil {
			return nil, fmt.Errorf("publish %d rejected — DegradeToMemory must keep serving: %v", i, err)
		}
		aud.Published(token, attrs)
		time.Sleep(time.Millisecond)
	}

	out := &DiskFaultDegrade{Published: int64(opts.Burst), ZeroAckedLoss: true}
	if err := aud.WaitComplete(30 * time.Second); err != nil {
		out.ZeroAckedLoss = false
		out.LossDetail = err.Error()
	}
	out.Duplicates = int64(aud.Duplicates())

	jnl := d0.Journal()
	if jnl == nil {
		return nil, fmt.Errorf("dispatcher 0 has no journal")
	}
	out.HealthDegraded = jnl.Health() == store.Degraded
	out.Durable = jnl.Appends.Value()
	out.Dropped = jnl.DroppedAppends.Value()
	out.AccountingExact = out.Dropped > 0 && out.Durable+out.Dropped >= int64(opts.Burst)
	return out, nil
}

// Table renders the certification outcome.
func (r *DiskFaultResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Disk-fault certification (seed %d, %d matchers, %d dispatchers, %d pubs/phase, disk+network chaos)",
			r.Seed, r.Matchers, r.Dispatchers, r.Burst),
		Header: []string{"metric", "failstop", "degrade-to-memory"},
	}
	b := func(v bool) string {
		if v {
			return "yes"
		}
		return "NO"
	}
	t.AddRow("published", r.FailStop.Published, r.Degrade.Published)
	t.AddRow("zero acked loss", b(r.FailStop.ZeroAckedLoss), b(r.Degrade.ZeroAckedLoss))
	t.AddRow("expected deliveries", r.FailStop.Expected, r.Degrade.Published)
	t.AddRow("duplicates absorbed", r.FailStop.Duplicates, r.Degrade.Duplicates)
	t.AddRow("edge deliveries", r.FailStop.EdgeDelivered, "-")
	t.AddRow("fault→crash (ms)", fmt.Sprintf("%.1f", r.FailStop.CrashMs), "-")
	t.AddRow("disk ops faulted", r.FailStop.DiskFaults, "-")
	t.AddRow("elastic moves", r.FailStop.ElasticMoves, "-")
	t.AddRow("store degraded", "-", b(r.Degrade.HealthDegraded))
	t.AddRow("durable appends", "-", r.Degrade.Durable)
	t.AddRow("reported drops", "-", r.Degrade.Dropped)
	t.AddRow("accounting exact", "-", b(r.Degrade.AccountingExact))
	return t
}
