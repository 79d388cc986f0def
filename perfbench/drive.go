package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"bluedove/internal/client"
	"bluedove/internal/cluster"
	"bluedove/internal/core"
	"bluedove/internal/placement"
)

// deployment is one running cluster with the benchmark's clients attached.
type deployment struct {
	w   *spec
	in  *inputs
	tr  *tracker
	c   *cluster.Cluster
	dir string // journal root (durable workloads), removed on close

	pubs    [2]*client.Client // one per dispatcher, used alternately
	subs    [2]*client.Client // hold the stable subscriptions
	churnCl *client.Client

	seq atomic.Int64 // next publication sequence number

	churnMu   sync.Mutex
	churnLive []liveSub // oldest first

	attempted atomic.Int64
	failed    atomic.Int64
}

type liveSub struct {
	id core.SubscriptionID
	b  *box
}

// clusterOptions is the deployment under test: 4 matchers and 2
// dispatchers over TCP loopback with 50 ms control loops; everything else
// is the default except the workload's own settings.
func clusterOptions(w *spec, dir string, traced bool) cluster.Options {
	o := cluster.Options{
		Space:          core.UniformSpace(dims, extent),
		Matchers:       4,
		Dispatchers:    2,
		TCP:            true,
		GossipInterval: 50 * time.Millisecond,
		ReportInterval: 50 * time.Millisecond,
		IndexKind:      w.Index,
		Covering:       w.Covering,
		MatchShards:    w.MatchShards,
	}
	if w.Durable {
		// The journal keeps the cluster's default fsync policy (interval).
		// Under fsync always, capacity on a shared virtual disk varied
		// between 1.9k and 6.6k msgs/s across identical runs; the always
		// policy's cost is measured outside the cluster instead (storeDrive).
		o.DataDir = dir
		o.Persistent = true
	}
	if traced {
		o.Telemetry = true
		o.TraceSampleRate = 1
	}
	return o
}

// start boots a deployment, installs every stable subscription and the
// initial churn set, checks that every placement is installed, and returns
// once a probe publication has been fully delivered. The returned duration
// is setup_s.
func start(w *spec, in *inputs, workDir string, traced bool) (*deployment, time.Duration, error) {
	d := &deployment{w: w, in: in, tr: newTracker(in, w.Durable)}
	if w.Durable {
		dir, err := os.MkdirTemp(workDir, "wal-")
		if err != nil {
			return nil, 0, fmt.Errorf("journal dir: %w", err)
		}
		d.dir = dir
	}
	d.tr.cur.Store(newPhase(0, 0, false, 0))
	t0 := time.Now()
	c, err := cluster.Start(clusterOptions(w, d.dir, traced))
	if err != nil {
		d.close()
		return nil, 0, fmt.Errorf("cluster start: %w", err)
	}
	d.c = c
	if err := d.setup(); err != nil {
		d.close()
		return nil, 0, err
	}
	return d, time.Since(t0), nil
}

func (d *deployment) setup() error {
	if err := d.c.WaitForTable(1, 10*time.Second); err != nil {
		return err
	}
	var err error
	for i := range d.pubs {
		if d.pubs[i], err = d.c.NewClient(i, nil); err != nil {
			return err
		}
		if d.subs[i], err = d.c.NewClient(i, d.tr.deliver); err != nil {
			return err
		}
	}
	if d.churnCl, err = d.c.NewClient(1, d.tr.deliver); err != nil {
		return err
	}
	// Covers go in before their riders so the cover table does not depend
	// on arrival order.
	if t := d.in.templates; t > 0 {
		if err := d.subscribeStable(0, t); err != nil {
			return err
		}
		if err := d.waitPlacements(d.stablePlacements(0, t), 30*time.Second); err != nil {
			return err
		}
	}
	if err := d.subscribeStable(d.in.templates, len(d.in.stable)); err != nil {
		return err
	}
	for i := 0; i < d.w.ChurnLive; i++ {
		if err := d.churnSubscribe(int64(i), nil); err != nil {
			return err
		}
	}
	if err := d.waitPlacements(d.expectedPlacements(), 30*time.Second); err != nil {
		return err
	}
	return d.probe()
}

// subscribeStable subscribes stable[lo:hi], even indexes through
// dispatcher 0 and odd ones through dispatcher 1, one goroutine each: every
// dispatcher then sees its subscriptions in input order and assigns the
// same IDs on every run, so shard placement repeats with the seed.
func (d *deployment) subscribeStable(lo, hi int) error {
	errs := make(chan error, len(d.subs)) // one result per goroutine
	for j := range d.subs {
		go func(j int) {
			for i := lo + (lo+j)%2; i < hi; i += 2 {
				id, err := d.subs[j].Subscribe(d.in.stable[i].ranges())
				d.attempted.Add(1)
				if err != nil {
					d.failed.Add(1)
					errs <- fmt.Errorf("stable subscribe %d: %w", i, err)
					return
				}
				d.tr.addStable(id, i)
			}
			errs <- nil
		}(j)
	}
	var first error
	for range d.subs {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// placementsOf is the number of (matcher, dimension) placements the
// cluster's own table assigns to b.
func placementsOf(c *cluster.Cluster, b *box) int {
	return len(placement.BlueDove{}.Assign(c.Table(), &core.Subscription{Predicates: b.ranges()}))
}

func (d *deployment) stablePlacements(lo, hi int) int {
	n := 0
	for i := lo; i < hi; i++ {
		n += placementsOf(d.c, &d.in.stable[i])
	}
	return n
}

// expectedPlacements counts the placements of every stable and live churn
// subscription.
func (d *deployment) expectedPlacements() int {
	n := d.stablePlacements(0, len(d.in.stable))
	d.churnMu.Lock()
	defer d.churnMu.Unlock()
	for _, s := range d.churnLive {
		n += placementsOf(d.c, s.b)
	}
	return n
}

// installed sums the subscriptions stored on every matcher and dimension.
func (d *deployment) installed() int {
	n := 0
	for _, id := range d.c.MatcherIDs() {
		m := d.c.Matcher(id)
		for dim := 0; dim < dims; dim++ {
			n += m.SubsOnDim(dim)
		}
	}
	return n
}

// waitPlacements waits until the matchers hold exactly want placements.
func (d *deployment) waitPlacements(want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		got := d.installed()
		if got == want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("placement check: matchers hold %d placements, the table assigns %d (shortfall %d)",
				got, want, want-got)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// probe publishes one publication with expected deliveries and waits for
// all of them.
func (d *deployment) probe() error {
	seq := d.nextCounted()
	ph := d.tr.cur.Load()
	before := ph.completed.Load()
	if err := d.publish(seq, time.Now().UnixNano()); err != nil {
		return fmt.Errorf("probe publish: %w", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for ph.completed.Load() == before {
		if time.Now().After(deadline) {
			return errors.New("probe publication was not fully delivered within 10s")
		}
		time.Sleep(time.Millisecond)
	}
	return nil
}

// nextCounted skips to the next sequence number whose publication has
// expected deliveries.
func (d *deployment) nextCounted() int64 {
	for {
		seq := d.seq.Add(1) - 1
		if len(d.tr.expected(seq)) > 0 {
			return seq
		}
	}
}

// publish arms the oracle for seq and sends it. Its payload is the
// sequence number; publisher clients alternate by sequence.
func (d *deployment) publish(seq, sched int64) error {
	var payload [8]byte
	binary.LittleEndian.PutUint64(payload[:], uint64(seq))
	d.tr.arm(seq, sched)
	d.attempted.Add(1)
	if err := d.pubs[seq&1].Publish(d.tr.attrs(seq), payload[:]); err != nil {
		d.tr.unarm(seq)
		d.failed.Add(1)
		d.tr.fail("publish %d: %v", seq, err)
		return err
	}
	return nil
}

// churnSubscribe subscribes churn subscription k and, if the live set is
// full, unsubscribes the oldest. rtt, when non-nil, receives the Subscribe
// round trip.
func (d *deployment) churnSubscribe(k int64, rtt *[]time.Duration) error {
	b := &d.in.churn[k%churnPoolSize]
	d.tr.setPending(b)
	t0 := time.Now()
	id, err := d.churnCl.Subscribe(b.ranges())
	took := time.Since(t0)
	d.attempted.Add(1)
	if err != nil {
		d.tr.setPending(nil)
		d.failed.Add(1)
		return fmt.Errorf("churn subscribe: %w", err)
	}
	d.tr.addChurn(id, b)
	if rtt != nil {
		*rtt = append(*rtt, took)
	}
	d.churnMu.Lock()
	d.churnLive = append(d.churnLive, liveSub{id, b})
	var old *liveSub
	if len(d.churnLive) > d.w.ChurnLive {
		old = &d.churnLive[0]
		d.churnLive = d.churnLive[1:]
	}
	d.churnMu.Unlock()
	if old != nil {
		d.attempted.Add(1)
		if err := d.churnCl.Unsubscribe(old.id); err != nil {
			d.failed.Add(1)
			return fmt.Errorf("churn unsubscribe: %w", err)
		}
	}
	return nil
}

// churner runs subscribe+unsubscribe pairs at the workload's rate until
// stopped. Subscribe round trips are recorded while record is set.
type churner struct {
	stop   chan struct{}
	done   chan struct{}
	record atomic.Bool
	rtts   []time.Duration // read after done closes
}

func (d *deployment) startChurn() *churner {
	ch := &churner{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(ch.done)
		interval := time.Duration(float64(time.Second) / d.w.ChurnRate)
		next := time.Now()
		for k := int64(d.w.ChurnLive); ; k++ {
			next = next.Add(interval)
			select {
			case <-ch.stop:
				return
			case <-time.After(time.Until(next)):
			}
			var rtt *[]time.Duration
			if ch.record.Load() {
				rtt = &ch.rtts
			}
			if err := d.churnSubscribe(k, rtt); err != nil {
				d.tr.fail("%v", err)
			}
		}
	}()
	return ch
}

func (ch *churner) halt() {
	close(ch.stop)
	<-ch.done
}

// drain waits until every armed publication of the phase has completed, or
// until missingAfter has passed since the last completion.
func (d *deployment) drain(ph *phase) {
	last, lastAt := ph.completed.Load(), time.Now()
	for ph.completed.Load() < ph.armed.Load() {
		if c := ph.completed.Load(); c != last {
			last, lastAt = c, time.Now()
		} else if time.Since(lastAt) > missingAfter {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// sampleWindow is the interval over which the closed loop samples its
// completion rate and the open loop its median latency.
const sampleWindow = 500 * time.Millisecond

// capacity runs the closed loop: at most w.Window publications with
// expected deliveries outstanding; publications with none are sent
// unwindowed and not counted. It returns the full-delivery rate of each
// consecutive window of measure, after a warm-up. A spurious delivery ends
// the loop early.
func (d *deployment) capacity(warm, measure time.Duration) []float64 {
	ph := newPhase(d.seq.Load(), 0, false, d.w.Window)
	d.tr.cur.Store(ph)
	timer := time.NewTimer(missingAfter)
	defer timer.Stop()
	start := time.Now()
	end := start.Add(warm + measure)
	nextMark := start.Add(warm)
	var marks []mark
	for d.tr.spurious.Load() == 0 {
		now := time.Now()
		if !now.Before(nextMark) {
			marks = append(marks, mark{now, ph.completed.Load()})
			if !now.Before(end) {
				break
			}
			nextMark = nextMark.Add(sampleWindow)
		}
		seq := d.seq.Add(1) - 1
		counted := len(d.tr.expected(seq)) > 0
		if counted {
			timer.Reset(missingAfter)
			select {
			case <-ph.tokens:
			case <-timer.C:
				// The window is stuck on missing deliveries; the oracle's
				// sweep counts them.
				d.tr.fail("closed loop stalled: no publication completed for %v", missingAfter)
				d.drain(ph)
				return windowRates(marks)
			}
		}
		if d.publish(seq, now.UnixNano()) != nil && counted {
			ph.tokens <- struct{}{} // the failed publication returns its token
		}
	}
	d.drain(ph)
	return windowRates(marks)
}

// mark is the completion count at one instant of the closed loop.
type mark struct {
	at   time.Time
	done int64
}

// windowRates returns the completion rate between consecutive marks.
func windowRates(marks []mark) []float64 {
	var rates []float64
	for i := 1; i < len(marks); i++ {
		rates = append(rates, float64(marks[i].done-marks[i-1].done)/marks[i].at.Sub(marks[i-1].at).Seconds())
	}
	return rates
}

// openResult is what one open-loop phase measured.
type openResult struct {
	ph        *phase
	sched     []int64   // scheduled send, unix ns
	latencies []float64 // ms, of publications with expected deliveries
	// windowP50s is the median latency (ms) of each window of scheduled
	// send times.
	windowP50s []float64
	genLate    []float64 // ms, actual minus scheduled send
	callUs     []float64 // µs in Publish
}

// openLoop publishes at the workload's fixed rate for dur; each
// publication is timed from its scheduled send, so a generator stall is
// charged to the publications behind it. A spurious delivery ends the loop
// early.
func (d *deployment) openLoop(dur time.Duration, traced bool) *openResult {
	n := int(d.w.OpenRate * dur.Seconds())
	base := d.seq.Load()
	ph := newPhase(base, n, traced, 0)
	d.tr.cur.Store(ph)
	r := &openResult{ph: ph, sched: make([]int64, n), genLate: make([]float64, n), callUs: make([]float64, n)}
	p := newPacer()
	defer p.close()
	interval := float64(time.Second) / d.w.OpenRate
	t0 := time.Now().Add(5 * time.Millisecond).UnixNano()
	sent := 0
	for ; sent < n && d.tr.spurious.Load() == 0; sent++ {
		sched := t0 + int64(float64(sent)*interval)
		p.sleepUntil(sched)
		at := time.Now().UnixNano()
		_ = d.publish(base+int64(sent), sched) // publish counts its own failure
		r.sched[sent] = sched
		r.genLate[sent] = float64(at-sched) / 1e6
		r.callUs[sent] = float64(time.Now().UnixNano()-at) / 1e3
	}
	r.sched, r.genLate, r.callUs = r.sched[:sent], r.genLate[:sent], r.callUs[:sent]
	d.seq.Store(base + int64(sent))
	d.drain(ph)
	perWindow := int(d.w.OpenRate * sampleWindow.Seconds())
	var win []float64
	for i := range ph.lat[:sent] {
		if v := ph.lat[i].Load(); v > 0 {
			r.latencies = append(r.latencies, float64(v)/1e6)
			win = append(win, float64(v)/1e6)
		}
		if (i+1)%perWindow == 0 && len(win) > 0 {
			r.windowP50s = append(r.windowP50s, median(win))
			win = win[:0]
		}
	}
	return r
}

// finish stops the churn, checks that the matchers hold exactly the
// placements of the stable and live churn subscriptions, and retires every
// outstanding publication.
func (d *deployment) finish(ch *churner) error {
	if ch != nil {
		ch.halt()
	}
	d.tr.retireAll()
	d.failed.Add(d.tr.missing.Load())
	if err := d.waitPlacements(d.expectedPlacements(), 10*time.Second); err != nil {
		d.failed.Add(1)
		return err
	}
	return nil
}

func (d *deployment) close() {
	if d.c != nil {
		d.c.Close()
	}
	if d.dir != "" {
		if err := os.RemoveAll(d.dir); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: removing journal dir:", err)
		}
	}
}

// workDir returns the directory the benchmark may write to, inside the
// checkout.
func workDir(root string) (string, error) {
	dir := filepath.Join(root, ".bench_build", "run")
	return dir, os.MkdirAll(dir, 0o755)
}
