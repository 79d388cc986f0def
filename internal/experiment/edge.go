// Edge-tier benchmark on the real edge server: one edge hosts up to 100k
// in-process subscriber sessions (edge.AttachLocal — the handshake, buffers,
// policies and resume machinery are the transport path; only the final write
// is a function call), a publication burst fans out through the per-edge
// re-match table, and each slow-consumer policy is exercised by a set of
// full-space "heavy" sessions whose acks are withheld:
//
//   - backpressure: heavy sessions churn slow/fast while a reconnect storm
//     detaches and resumes random sessions mid-burst; the run must end with
//     zero acked loss (every session saw exactly its matching publications),
//     double-checked by a sampled chaos auditor.
//   - drop-oldest: heavy sessions never ack until the end; the edge evicts
//     their oldest unsent deliveries, and after the drain the consumer must
//     be caught up to the head with only a bounded stale gap behind it.
//   - disconnect: heavy sessions overflow and are detached; a later resume
//     replays the bounded ring and reports everything that aged out, so
//     delivered + reported-lost must exactly account for the expected set.
//
// Loss accounting is exact and cheap: per-session delivery count plus a sum
// of delivered message IDs is compared against the expected set computed
// from sorted publication attributes (prefix sums + binary search), so the
// zero-loss check covers all 100k sessions, not a sample.
package experiment

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bluedove/internal/chaos"
	"bluedove/internal/core"
	"bluedove/internal/edge"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// EdgeOpts parameterizes the edge-tier benchmark.
type EdgeOpts struct {
	Seed          int64 // drives attrs, churn and the storm (default 1)
	Sessions      int   // backpressure-phase session count (default 100_000)
	SmallSessions int   // drop-oldest/disconnect session count (default Sessions/5)
	Publications  int   // burst length (default 2000)
	BufferBytes   int   // per-session buffer/flight window (default 8 KiB)
	ResumeWindow  int   // resume ring entries (default 4096)
	Audited       int   // sessions double-checked by the chaos auditor (default 256)
}

func (o EdgeOpts) withDefaults() EdgeOpts {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Sessions <= 0 {
		o.Sessions = 100_000
	}
	if o.SmallSessions <= 0 {
		o.SmallSessions = o.Sessions / 5
	}
	if o.Publications <= 0 {
		o.Publications = 2000
	}
	if o.BufferBytes <= 0 {
		o.BufferBytes = 8 << 10
	}
	if o.ResumeWindow <= 0 {
		o.ResumeWindow = 4096
	}
	if o.Audited <= 0 {
		o.Audited = 256
	}
	return o
}

// EdgePolicyResult is the outcome of one policy phase.
type EdgePolicyResult struct {
	Policy       string `json:"policy"`
	Sessions     int    `json:"sessions"`
	WideSessions int    `json:"wide_sessions"` // full-space heavy sessions driving the policy
	Publications int    `json:"publications"`

	ExpectedDeliveries   int64 `json:"expected_deliveries"`   // matching (publication, session) pairs
	Delivered            int64 `json:"delivered"`             // distinct deliveries applications saw
	SuppressedDuplicates int64 `json:"suppressed_duplicates"` // replay overlap absorbed client-side (seq dedup)

	AttachPerSec     float64 `json:"attach_per_sec"`     // session attach+subscribe rate
	DeliveriesPerSec float64 `json:"deliveries_per_sec"` // fan-out throughput over the whole phase
	RunSecs          float64 `json:"run_secs"`

	BackpressureWaits int64 `json:"backpressure_waits"`
	DroppedOldest     int64 `json:"dropped_oldest"`
	SlowDisconnects   int64 `json:"slow_disconnects"`
	StormDetaches     int64 `json:"storm_detaches"` // reconnect-storm connection kills
	Resumes           int64 `json:"resumes"`
	Replayed          int64 `json:"replayed"`
	ResumeLost        int64 `json:"resume_lost"` // welcome-reported deliveries aged out of rings

	ZeroAckedLoss bool   `json:"zero_acked_loss"`       // every checked session saw exactly its expected set
	LossDetail    string `json:"loss_detail,omitempty"` // first few violations when ZeroAckedLoss is false

	AuditDuplicates int    `json:"audit_duplicates"`    // sampled auditor: at-least-once redundancy
	AuditErr        string `json:"audit_err,omitempty"` // sampled auditor: invariant violations

	// Drop-oldest staleness: after the drain a slow consumer must hold the
	// head, with only a bounded stale gap of evicted older deliveries.
	MaxStalenessGap  int64 `json:"max_staleness_gap"`
	SlowTailCaughtUp bool  `json:"slow_tail_caught_up"`

	// Disconnect accounting: delivered + reported-lost == expected on every
	// heavy session (nothing vanished without being declared).
	LossAccounted bool `json:"loss_accounted"`
}

// EdgeResult is the full three-policy benchmark outcome.
type EdgeResult struct {
	Seed         int64 `json:"seed"`
	BufferBytes  int   `json:"buffer_bytes"`
	ResumeWindow int   `json:"resume_window"`

	Backpressure EdgePolicyResult `json:"backpressure"`
	DropOldest   EdgePolicyResult `json:"drop_oldest"`
	Disconnect   EdgePolicyResult `json:"disconnect"`
}

// edgeBenchSess is one simulated subscriber session's book-keeping.
type edgeBenchSess struct {
	token uint64
	lo    float64
	hi    float64
	wide  bool
	aud   int // auditor subscriber index, -1 when unaudited

	mu         sync.Mutex
	lastSeq    uint64
	seen       int64
	idSum      uint64
	suppressed int64
	lost       uint64 // welcome-reported loss accumulated across resumes
	slow       bool   // withhold acks (the slow-consumer model)
	seqs       []uint64
}

// edgePhase configures one policy phase of the benchmark.
type edgePhase struct {
	policy       edge.Policy
	sessions     int
	wides        int
	stormEvery   int  // detach+resume a random narrow session every N pubs
	wideChurn    bool // toggle heavy sessions slow/fast on a timer
	wideNeverAck bool // heavy sessions withhold every ack until the drain
	resumeWindow int
	trackSeqs    bool // record heavy-session seqs for staleness analysis
}

// EdgeTier runs the three-policy edge benchmark and returns the results.
func EdgeTier(opts EdgeOpts) (*EdgeResult, error) {
	opts = opts.withDefaults()
	r := &EdgeResult{Seed: opts.Seed, BufferBytes: opts.BufferBytes, ResumeWindow: opts.ResumeWindow}

	bp, err := runEdgePhase(opts, edgePhase{
		policy:       edge.PolicyBackpressure,
		sessions:     opts.Sessions,
		wides:        16,
		stormEvery:   8,
		wideChurn:    true,
		resumeWindow: opts.ResumeWindow,
	})
	if err != nil {
		return nil, fmt.Errorf("backpressure phase: %w", err)
	}
	r.Backpressure = *bp

	do, err := runEdgePhase(opts, edgePhase{
		policy:       edge.PolicyDropOldest,
		sessions:     opts.SmallSessions,
		wides:        8,
		wideNeverAck: true,
		resumeWindow: opts.ResumeWindow,
		trackSeqs:    true,
	})
	if err != nil {
		return nil, fmt.Errorf("drop-oldest phase: %w", err)
	}
	r.DropOldest = *do

	rw := opts.ResumeWindow
	if rw > 512 {
		rw = 512 // small ring so the resume genuinely ages deliveries out
	}
	dc, err := runEdgePhase(opts, edgePhase{
		policy:       edge.PolicyDisconnect,
		sessions:     opts.SmallSessions,
		wides:        8,
		wideNeverAck: true,
		resumeWindow: rw,
	})
	if err != nil {
		return nil, fmt.Errorf("disconnect phase: %w", err)
	}
	r.Disconnect = *dc
	return r, nil
}

func runEdgePhase(opts EdgeOpts, ph edgePhase) (*EdgePolicyResult, error) {
	const spaceMax = 1000.0
	width := spaceMax * 0.005 // each narrow session matches ~0.5% of traffic
	rng := rand.New(rand.NewSource(opts.Seed))
	space := core.UniformSpace(1, spaceMax)

	mesh := transport.NewMesh(0)
	defer mesh.Close()
	// Minimal upstream dispatcher: acks the edge's aggregated subscribe.
	var nextSub uint64
	if _, err := mesh.Endpoint("disp").Listen("disp", func(env *wire.Envelope) *wire.Envelope {
		if env.Kind != wire.KindSubscribe {
			return nil
		}
		nextSub++
		return &wire.Envelope{Kind: wire.KindSubscribeAck,
			Body: (&wire.SubscribeAckBody{ID: core.SubscriptionID(nextSub)}).Encode()}
	}); err != nil {
		return nil, err
	}
	e, err := edge.New(edge.Config{
		ID:             7,
		Addr:           "edge",
		Space:          space,
		Transport:      mesh.Endpoint("edge"),
		DispatcherAddr: "disp",
		Policy:         ph.policy,
		BufferBytes:    opts.BufferBytes,
		ResumeWindow:   ph.resumeWindow,
		FlushWorkers:   8,
	})
	if err != nil {
		return nil, err
	}
	if err := e.Start(); err != nil {
		return nil, err
	}
	defer e.Stop()

	aud := chaos.NewAuditor()
	sessions := make([]*edgeBenchSess, ph.sessions)
	sinks := make([]func(*wire.Envelope), ph.sessions)
	var delivered atomic.Int64
	stride := ph.sessions / opts.Audited
	if stride < 1 {
		stride = 1
	}

	// Heavy (full-space) sessions attach first so the aggregated upstream
	// cuboid is widened once; every narrow widen after that is covered.
	attachStart := time.Now()
	for i := range sessions {
		s := &edgeBenchSess{aud: -1}
		if i < ph.wides {
			s.wide, s.lo, s.hi = true, 0, spaceMax
			s.slow = ph.wideNeverAck
			// Heavy sessions join the audit only where they are expected to
			// end loss-free (the backpressure phase).
			if !ph.wideNeverAck {
				s.aud = i
			}
		} else {
			s.lo = rng.Float64() * (spaceMax - width)
			s.hi = s.lo + width
			if i%stride == 0 {
				s.aud = i
			}
		}
		if s.aud >= 0 {
			aud.Subscribed(s.aud, []core.Range{{Low: s.lo, High: s.hi}})
		}
		sink := edgeBenchSink(e, s, aud, &delivered, ph.trackSeqs)
		w, err := e.AttachLocal(&wire.SessionHelloBody{Subscriber: core.SubscriberID(i + 1)}, sink)
		if err != nil {
			return nil, fmt.Errorf("attach session %d: %w", i, err)
		}
		s.token = w.Token
		sub := core.NewSubscription(0, []core.Range{{Low: s.lo, High: s.hi}})
		if _, err := e.Subscribe(s.token, sub); err != nil {
			return nil, fmt.Errorf("subscribe session %d: %w", i, err)
		}
		sessions[i] = s
		sinks[i] = sink
	}
	attachSecs := time.Since(attachStart).Seconds()

	// Slow-consumer churn: a timer goroutine (independent of publisher
	// progress, which backpressure may stall) flips heavy sessions between
	// acking normally and withholding acks; un-slowing acks the catch-up.
	stopChurn := make(chan struct{})
	var churnWG sync.WaitGroup
	if ph.wideChurn {
		churnWG.Add(1)
		crng := rand.New(rand.NewSource(opts.Seed + 1))
		go func() {
			defer churnWG.Done()
			tick := time.NewTicker(2 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-stopChurn:
					return
				case <-tick.C:
				}
				s := sessions[crng.Intn(ph.wides)]
				s.mu.Lock()
				if s.slow {
					s.slow = false
					tok, last := s.token, s.lastSeq
					s.mu.Unlock()
					e.Ack(tok, last)
				} else {
					s.slow = true
					s.mu.Unlock()
				}
			}
		}()
	}

	// Publication burst with the reconnect storm riding along.
	runStart := time.Now()
	pubAttrs := make([]float64, opts.Publications)
	var stormDetaches int64
	for i := 0; i < opts.Publications; i++ {
		x := rng.Float64() * spaceMax
		pubAttrs[i] = x
		token := fmt.Sprintf("e-%06d", i)
		m := core.NewMessage([]float64{x}, []byte(token))
		m.ID = core.MessageID(i + 1)
		aud.Published(token, m.Attrs)
		e.Deliver(m)
		if ph.stormEvery > 0 && i%ph.stormEvery == ph.stormEvery-1 {
			v := ph.wides + rng.Intn(ph.sessions-ph.wides)
			s := sessions[v]
			s.mu.Lock()
			tok, last := s.token, s.lastSeq
			s.mu.Unlock()
			if e.Detach(tok) {
				stormDetaches++
				w, err := e.AttachLocal(&wire.SessionHelloBody{Token: tok, LastSeq: last}, sinks[v])
				if err != nil {
					return nil, fmt.Errorf("storm resume session %d: %w", v, err)
				}
				s.mu.Lock()
				s.lost += w.Lost
				s.mu.Unlock()
			}
		}
	}
	close(stopChurn)
	churnWG.Wait()

	// Drain: heavy sessions stop being slow. Under disconnect they were
	// detached by overflow and must resume (replaying the bounded ring and
	// learning what aged out); under the other policies a catch-up ack
	// reopens the flight window.
	time.Sleep(200 * time.Millisecond) // let in-flight flushes settle
	for i := 0; i < ph.wides; i++ {
		s := sessions[i]
		s.mu.Lock()
		s.slow = false
		tok, last := s.token, s.lastSeq
		s.mu.Unlock()
		if ph.policy == edge.PolicyDisconnect {
			w, err := e.AttachLocal(&wire.SessionHelloBody{Token: tok, LastSeq: last}, sinks[i])
			if err != nil {
				return nil, fmt.Errorf("drain resume heavy session %d: %w", i, err)
			}
			s.mu.Lock()
			s.lost += w.Lost
			s.mu.Unlock()
		} else {
			e.Ack(tok, last)
		}
	}

	// Expected sets from sorted publication attributes: prefix sums give each
	// session's (count, ID-sum) in O(log P).
	type pubPoint struct {
		x  float64
		id uint64
	}
	pts := make([]pubPoint, len(pubAttrs))
	for i, x := range pubAttrs {
		pts[i] = pubPoint{x: x, id: uint64(i + 1)}
	}
	sort.Slice(pts, func(a, b int) bool { return pts[a].x < pts[b].x })
	prefCount := make([]int64, len(pts)+1)
	prefSum := make([]uint64, len(pts)+1)
	for i, p := range pts {
		prefCount[i+1] = prefCount[i] + 1
		prefSum[i+1] = prefSum[i] + p.id
	}
	// Predicate ranges are half-open [Low, High), matching core.Range.Contains.
	expectedFor := func(lo, hi float64) (int64, uint64) {
		a := sort.Search(len(pts), func(i int) bool { return pts[i].x >= lo })
		b := sort.Search(len(pts), func(i int) bool { return pts[i].x >= hi })
		return prefCount[b] - prefCount[a], prefSum[b] - prefSum[a]
	}
	var expectedTotal int64
	for _, s := range sessions {
		n, _ := expectedFor(s.lo, s.hi)
		expectedTotal += n
	}

	// Wait for the fan-out to drain: all expected deliveries, or no progress.
	deadline := time.Now().Add(60 * time.Second)
	lastN, lastChange := int64(-1), time.Now()
	for {
		n := delivered.Load()
		if n >= expectedTotal {
			break
		}
		if n != lastN {
			lastN, lastChange = n, time.Now()
		} else if time.Since(lastChange) > 1500*time.Millisecond {
			break
		}
		if time.Now().After(deadline) {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	runSecs := time.Since(runStart).Seconds()

	res := &EdgePolicyResult{
		Policy:             ph.policy.String(),
		Sessions:           ph.sessions,
		WideSessions:       ph.wides,
		Publications:       opts.Publications,
		ExpectedDeliveries: expectedTotal,
		Delivered:          delivered.Load(),
		AttachPerSec:       float64(ph.sessions) / attachSecs,
		DeliveriesPerSec:   float64(delivered.Load()) / runSecs,
		RunSecs:            runSecs,
		BackpressureWaits:  e.BackpressureWaits(),
		DroppedOldest:      e.DroppedOldest(),
		SlowDisconnects:    e.SlowDisconnects(),
		StormDetaches:      stormDetaches,
		Resumes:            e.Resumes(),
		Replayed:           e.Replayed(),
		ZeroAckedLoss:      true,
		SlowTailCaughtUp:   true,
		LossAccounted:      true,
	}

	// Exact loss accounting over every session. Heavy sessions are held to
	// zero loss only under backpressure; under drop-oldest they are measured
	// for staleness, under disconnect for declared-loss accounting.
	var violations []string
	for i, s := range sessions {
		expCount, expSum := expectedFor(s.lo, s.hi)
		s.mu.Lock()
		seen, idSum, lost, suppressed := s.seen, s.idSum, s.lost, s.suppressed
		seqs := s.seqs
		s.mu.Unlock()
		res.SuppressedDuplicates += suppressed
		res.ResumeLost += int64(lost)
		if s.wide {
			switch ph.policy {
			case edge.PolicyDropOldest:
				// Staleness: the consumer must end holding the head, with a
				// bounded gap of evicted older deliveries behind it.
				head := uint64(expCount)
				if len(seqs) == 0 || seqs[len(seqs)-1] != head {
					res.SlowTailCaughtUp = false
				}
				var prev uint64
				for _, q := range seqs {
					if gap := int64(q-prev) - 1; gap > res.MaxStalenessGap {
						res.MaxStalenessGap = gap
					}
					prev = q
				}
				continue
			case edge.PolicyDisconnect:
				if seen+int64(lost) != expCount {
					res.LossAccounted = false
					violations = append(violations, fmt.Sprintf(
						"heavy session %d: %d delivered + %d declared lost != %d expected",
						i, seen, lost, expCount))
				}
				continue
			}
		}
		if seen != expCount || idSum != expSum {
			res.ZeroAckedLoss = false
			if len(violations) < 5 {
				violations = append(violations, fmt.Sprintf(
					"session %d [%g,%g]: saw %d deliveries (id sum %d), expected %d (id sum %d)",
					i, s.lo, s.hi, seen, idSum, expCount, expSum))
			}
		}
	}
	if len(violations) > 0 {
		res.LossDetail = fmt.Sprintf("%v", violations)
	}
	res.AuditDuplicates = aud.Duplicates()
	if err := aud.Check(); err != nil {
		// Heavy sessions legitimately miss deliveries under the lossy
		// policies; they are excluded from the audit there, so any auditor
		// failure is a real invariant violation.
		res.AuditErr = err.Error()
		res.ZeroAckedLoss = false
	}
	return res, nil
}

// edgeBenchSink builds a session's delivery sink: it drops replay duplicates
// by sequence (the client dedup model), records exact-delivery book-keeping,
// feeds the sampled auditor, and acks when the session is not playing slow.
func edgeBenchSink(e *edge.Edge, s *edgeBenchSess, aud *chaos.Auditor,
	delivered *atomic.Int64, trackSeqs bool) func(*wire.Envelope) {
	return func(env *wire.Envelope) {
		b, err := wire.DecodeEdgeDeliver(env.Body)
		if err != nil || b.Msg == nil {
			return
		}
		s.mu.Lock()
		dup := b.Seq <= s.lastSeq
		if dup {
			s.suppressed++
		} else {
			s.lastSeq = b.Seq
			s.seen++
			s.idSum += uint64(b.Msg.ID)
			if trackSeqs && s.wide {
				s.seqs = append(s.seqs, b.Seq)
			}
		}
		ackNow := !s.slow && !dup
		tok, audIdx := s.token, s.aud
		s.mu.Unlock()
		if audIdx >= 0 {
			aud.Delivered(audIdx, b.Msg)
		}
		if dup {
			return
		}
		delivered.Add(1)
		if ackNow {
			e.Ack(tok, b.Seq)
		}
	}
}

// Table renders the three-policy summary.
func (r *EdgeResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Edge tier (seed %d, buffer %d B, resume window %d)",
			r.Seed, r.BufferBytes, r.ResumeWindow),
		Header: []string{"metric", "backpressure", "drop-oldest", "disconnect"},
	}
	ps := []*EdgePolicyResult{&r.Backpressure, &r.DropOldest, &r.Disconnect}
	row := func(name string, f func(*EdgePolicyResult) interface{}) {
		t.AddRow(name, f(ps[0]), f(ps[1]), f(ps[2]))
	}
	row("sessions", func(p *EdgePolicyResult) interface{} { return p.Sessions })
	row("deliveries", func(p *EdgePolicyResult) interface{} { return p.Delivered })
	row("attach/s", func(p *EdgePolicyResult) interface{} { return p.AttachPerSec })
	row("deliveries/s", func(p *EdgePolicyResult) interface{} { return p.DeliveriesPerSec })
	row("bp waits", func(p *EdgePolicyResult) interface{} { return p.BackpressureWaits })
	row("dropped oldest", func(p *EdgePolicyResult) interface{} { return p.DroppedOldest })
	row("slow disconnects", func(p *EdgePolicyResult) interface{} { return p.SlowDisconnects })
	row("storm detaches", func(p *EdgePolicyResult) interface{} { return p.StormDetaches })
	row("resumes", func(p *EdgePolicyResult) interface{} { return p.Resumes })
	row("replayed", func(p *EdgePolicyResult) interface{} { return p.Replayed })
	row("resume lost", func(p *EdgePolicyResult) interface{} { return p.ResumeLost })
	row("zero acked loss", func(p *EdgePolicyResult) interface{} { return p.ZeroAckedLoss })
	return t
}
