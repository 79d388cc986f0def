package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/index"
	"bluedove/internal/store"
	"bluedove/internal/wire"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

// setDist reports the p50 and p99 of samples as name.p50 and name.p99.
func (m metrics) setDist(name, unit string, samples []float64) {
	sort.Float64s(samples)
	m.set(name+".p50", unit, quantile(samples, 0.5))
	m.set(name+".p99", unit, quantile(samples, 0.99))
}

// quantile returns the q-quantile of sorted samples by linear
// interpolation (0 when there are none).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// counters is a reading of the exported node counters of one deployment.
type counters struct {
	scanned, matched, processed, busyNacks, dropped     float64
	published, forwarded, batches, rerouted, retransmit float64
	framesSent, bytesSent, fsyncs, walAppends           float64
	deliveries                                          float64
}

// readCounters sums every node's exported counters and, on a deployment
// with telemetry, the registry's transport and store series.
func (d *deployment) readCounters() counters {
	var k counters
	ids := d.c.MatcherIDs()
	for _, id := range ids {
		m := d.c.Matcher(id)
		k.scanned += float64(m.Scanned.Value())
		k.matched += float64(m.Matched.Value())
		k.processed += float64(m.Processed.Value())
		k.busyNacks += float64(m.BusyNacks.Value())
		k.dropped += float64(m.Dropped.Value())
	}
	for _, disp := range d.c.Dispatchers() {
		k.published += float64(disp.Published.Value())
		k.forwarded += float64(disp.Forwarded.Value())
		k.batches += float64(disp.ForwardBatches.Value())
		k.rerouted += float64(disp.Rerouted.Value())
		k.retransmit += float64(disp.Retransmits.Value())
		ids = append(ids, disp.ID())
	}
	now := time.Now().UnixNano()
	for _, id := range ids {
		tel := d.c.Telemetry(id)
		if tel == nil {
			continue
		}
		for _, s := range tel.Registry.Snapshot(now) {
			switch s.Name {
			case "transport.frames_sent":
				k.framesSent += s.Value
			case "transport.bytes_sent":
				k.bytesSent += s.Value
			case "store.fsyncs":
				k.fsyncs += s.Value
			case "store.wal_appends":
				k.walAppends += s.Value
			}
		}
	}
	k.deliveries = float64(d.tr.deliveries.Load())
	return k
}

func (k counters) minus(o counters) counters {
	return counters{
		k.scanned - o.scanned, k.matched - o.matched, k.processed - o.processed,
		k.busyNacks - o.busyNacks, k.dropped - o.dropped,
		k.published - o.published, k.forwarded - o.forwarded, k.batches - o.batches,
		k.rerouted - o.rerouted, k.retransmit - o.retransmit,
		k.framesSent - o.framesSent, k.bytesSent - o.bytesSent, k.fsyncs - o.fsyncs,
		k.walAppends - o.walAppends, k.deliveries - o.deliveries,
	}
}

// collapseRatio is stored subscriptions over indexed entries across every
// matcher and dimension (1 without covering).
func (d *deployment) collapseRatio() float64 {
	var stored, indexed float64
	for _, id := range d.c.MatcherIDs() {
		m := d.c.Matcher(id)
		for dim := 0; dim < dims; dim++ {
			stored += float64(m.SubsOnDim(dim))
			indexed += float64(m.IndexedOnDim(dim))
		}
	}
	return ratio(stored, indexed)
}

// traceMetrics turns the hop stamps the traced open loop collected into
// per-hop distributions.
func traceMetrics(m metrics, r *openResult) {
	var ingest, route, queue, match, toClient []float64
	ph := r.ph
	for i := range ph.hops {
		if ph.hopSeen[i].Load() != 2 {
			continue
		}
		h := &ph.hops[i]
		span := func(from, to int64, scale float64, dst *[]float64) {
			if from != 0 && to != 0 {
				*dst = append(*dst, float64(to-from)/scale)
			}
		}
		span(r.sched[i], h[core.HopIngest], 1e6, &ingest)
		span(h[core.HopIngest], h[core.HopForward], 1e3, &route)
		span(h[core.HopForward], h[core.HopDequeue], 1e6, &queue)
		span(h[core.HopDequeue], h[core.HopMatch], 1e3, &match)
		span(h[core.HopDeliver], h[core.HopCount], 1e6, &toClient)
	}
	m.set("trace.samples", "count", float64(len(ingest)))
	m.setDist("dispatcher.ingest_ms", "ms", ingest)
	m.setDist("forward.route_us", "us", route)
	m.setDist("transport.queue_ms", "ms", queue)
	m.setDist("matcher.match_us", "us", match)
	m.setDist("delivery.to_client_ms", "ms", toClient)
}

// counterMetrics derives the per-layer ratios from counter deltas over
// the traced open loop.
func counterMetrics(m metrics, k counters) {
	frames := k.batches
	if frames == 0 {
		frames = k.forwarded // unbatched: one frame per forward
	}
	m.set("dispatcher.msgs_per_frame", "ratio", ratio(k.forwarded, frames))
	m.set("dispatcher.retransmits_per_kmsg", "count", 1000*ratio(k.retransmit, k.published))
	m.set("dispatcher.rerouted_per_kmsg", "count", 1000*ratio(k.rerouted, k.published))
	m.set("transport.frames_per_msg", "ratio", ratio(k.framesSent, k.published))
	m.set("transport.bytes_per_msg", "bytes", ratio(k.bytesSent, k.published))
	m.set("matcher.scanned_per_msg", "count", ratio(k.scanned, k.processed))
	m.set("matcher.matched_per_msg", "count", ratio(k.matched, k.processed))
	m.set("matcher.useful_ratio", "ratio", ratio(k.matched, k.scanned))
	m.set("matcher.busy_nacks_per_kmsg", "count", 1000*ratio(k.busyNacks, k.processed))
	m.set("matcher.dropped_per_kmsg", "count", 1000*ratio(k.dropped, k.processed))
	m.set("delivery.deliveries_per_msg", "count", ratio(k.deliveries, k.published))
	m.set("store.fsyncs_per_msg", "ratio", ratio(k.fsyncs, k.published))
	m.set("store.appends_per_msg", "ratio", ratio(k.walAppends, k.published))
}

// subscription converts input box i to a subscription with a fixed ID, for
// the drives that call index and wire directly.
func subscription(id int, b *box) *core.Subscription {
	return &core.Subscription{ID: core.SubscriptionID(id), Subscriber: 1, Predicates: b.ranges()}
}

func message(in *inputs, seq int) *core.Message {
	return &core.Message{ID: core.MessageID(seq + 1), Attrs: in.pool[seq%poolSize],
		Payload: make([]byte, 8), PublishedAt: time.Now().UnixNano()}
}

// indexDrive builds dimension 0's index the way a matcher does (the
// workload's index kind, wrapped in covering when the workload enables it) from the workload's
// stable subscriptions, and times Match over the publications and
// Add/Remove of churn subscriptions.
func indexDrive(m metrics, w *spec, in *inputs) {
	var idx index.Index = index.New(w.Index, core.UniformSpace(dims, extent), 0)
	if w.Covering {
		idx = index.NewCovering(idx)
	}
	for i := range in.stable {
		idx.Add(subscription(i+1, &in.stable[i]))
	}
	msgs := make([]*core.Message, poolSize)
	for i := range msgs {
		msgs[i] = message(in, i)
	}
	var dst, cands []*core.Subscription
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 300*time.Millisecond {
		for j := 0; j < 256; j++ {
			dst, cands, _ = index.Match(idx, msgs[n%poolSize], dst[:0], cands)
			n++
		}
	}
	m.set("index.match_ns_per_msg", "ns", float64(time.Since(t0).Nanoseconds())/float64(n))

	const churn = 2000
	adds := make([]float64, churn)
	removes := make([]float64, churn)
	for k := 0; k < churn; k++ {
		s := subscription(len(in.stable)+1+k, &in.churn[k%churnPoolSize])
		t := time.Now()
		idx.Add(s)
		t1 := time.Now()
		idx.Remove(s.ID)
		adds[k] = float64(t1.Sub(t).Nanoseconds()) / 1e3
		removes[k] = float64(time.Since(t1).Nanoseconds()) / 1e3
	}
	sort.Float64s(adds)
	sort.Float64s(removes)
	m.set("index.add_us", "us", quantile(adds, 0.5))
	m.set("index.remove_us", "us", quantile(removes, 0.5))
}

// wireDrive times the forward-batch encode and the deliver-batch decode of
// the workload's publications (64 per frame), and counts allocations.
func wireDrive(m metrics, in *inputs) {
	const batch = 64
	fwd := &wire.ForwardBatchBody{Entries: make([]wire.ForwardEntry, batch)}
	del := &wire.DeliverBatchBody{Deliveries: make([]wire.DeliverBody, batch)}
	for i := 0; i < batch; i++ {
		msg := message(in, i)
		fwd.Entries[i] = wire.ForwardEntry{Dim: i % dims, Msg: msg}
		ids := make([]core.SubscriptionID, len(in.expect[i]))
		for j, s := range in.expect[i] {
			ids[j] = core.SubscriptionID(s + 1)
		}
		del.Deliveries[i] = wire.DeliverBody{Subscriber: 1, Msg: msg, SubIDs: ids}
	}
	enc := del.Encode()
	var buf []byte
	timeLoop := func(f func()) float64 {
		n := 0
		t0 := time.Now()
		for time.Since(t0) < 200*time.Millisecond {
			for j := 0; j < 64; j++ {
				f()
			}
			n += 64
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n*batch)
	}
	encode := func() { buf = fwd.AppendTo(buf[:0]) }
	decode := func() {
		if _, err := wire.DecodeDeliverBatch(enc); err != nil {
			panic(err) // the bytes were just encoded by the same codec
		}
	}
	m.set("wire.forward_encode_ns_per_msg", "ns", timeLoop(encode))
	m.set("wire.deliver_decode_ns_per_msg", "ns", timeLoop(decode))

	const rounds = 200
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for r := 0; r < rounds; r++ {
		encode()
		decode()
	}
	runtime.ReadMemStats(&after)
	m.set("wire.allocs_per_msg", "count", float64(after.Mallocs-before.Mallocs)/float64(rounds*batch))
}

// storeDrive times store.Append of publish-sized records with one and with
// two concurrent appenders, under the journal's default fsync policy
// (interval, which the durable workload runs) and under fsync always.
func storeDrive(m metrics, in *inputs, dir string) error {
	rec := (&wire.PublishBody{Msg: message(in, 0)}).Encode()
	for _, p := range []struct {
		name   string
		policy store.Fsync
	}{{"store.append_us", store.FsyncInterval}, {"store.append_always_us", store.FsyncAlways}} {
		for _, appenders := range []int{1, 2} {
			lat, err := appendLatencies(dir, p.policy, rec, appenders)
			if err != nil {
				return err
			}
			m.setDist(fmt.Sprintf("%s.%dw", p.name, appenders), "us", lat)
		}
	}
	return nil
}

func appendLatencies(root string, policy store.Fsync, rec []byte, appenders int) ([]float64, error) {
	dir, err := os.MkdirTemp(root, "store-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	s, err := store.Open(store.Options{Dir: dir, Fsync: policy})
	if err != nil {
		return nil, err
	}
	const dur, maxAppends = 200 * time.Millisecond, 20000
	lats := make([][]float64, appenders)
	errs := make([]error, appenders)
	var wg sync.WaitGroup
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			t0 := time.Now()
			for len(lats[a]) < maxAppends && time.Since(t0) < dur {
				t := time.Now()
				if err := s.Append(1, rec); err != nil {
					errs[a] = err
					return
				}
				lats[a] = append(lats[a], float64(time.Since(t).Nanoseconds())/1e3)
			}
		}(a)
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		return nil, err
	}
	var all []float64
	for a := range lats {
		if errs[a] != nil {
			return nil, errs[a]
		}
		all = append(all, lats[a]...)
	}
	return all, nil
}
