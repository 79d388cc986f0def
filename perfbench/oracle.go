package main

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bluedove/internal/core"
)

// ringSize is the number of publication slots the tracker keeps; slot
// seq%ringSize holds publication seq until it completes or is declared
// missing.
const ringSize = 1 << 15

// missingAfter is how long a publication may wait for its last expected
// delivery before it counts as failed.
const missingAfter = 2 * time.Second

// slot tracks one in-flight publication's expected stable deliveries.
type slot struct {
	seq       atomic.Int64 // occupying publication; -1 when free
	remaining atomic.Int32 // expected deliveries not yet seen
	sched     atomic.Int64 // scheduled send time, unix ns
}

// phase collects per-publication results for one measured phase; arrays
// are indexed by seq-base and preallocated so the delivery callback never
// allocates.
type phase struct {
	base int64
	// lat is completion minus scheduled send, ns (0: not complete).
	lat []atomic.Int64
	// hops holds, for traced publications, the hop stamps the first
	// delivery carried plus the callback time in the last element.
	hops    [][core.HopCount + 1]int64
	hopSeen []atomic.Uint32 // 0 free, 1 writing, 2 written
	// tokens is the closed-loop window: one token returns per completion.
	tokens chan struct{}

	armed     atomic.Int64 // publications with expected deliveries
	completed atomic.Int64 // of those, fully delivered
}

func newPhase(base int64, n int, traced bool, window int) *phase {
	p := &phase{base: base, lat: make([]atomic.Int64, n)}
	if traced {
		p.hops = make([][core.HopCount + 1]int64, n)
		p.hopSeen = make([]atomic.Uint32, n)
	}
	if window > 0 {
		p.tokens = make(chan struct{}, window) // sized to the window: every token fits
		for i := 0; i < window; i++ {
			p.tokens <- struct{}{}
		}
	}
	return p
}

// tracker is the delivery oracle at run time. It checks every stable
// delivery exactly against the precomputed expected sets, checks churn
// deliveries for spuriousness only, and times completions.
type tracker struct {
	in         *inputs
	words      int             // bitset words per slot
	slots      []slot          // ringSize
	bits       []atomic.Uint64 // ringSize*words delivered-position bitsets
	dupesLegal bool

	mu        sync.RWMutex
	stableIdx map[core.SubscriptionID]int32
	churn     map[core.SubscriptionID]*box
	pending   *box // churn subscription whose Subscribe is in flight

	cur atomic.Pointer[phase]

	spurious   atomic.Int64
	duplicates atomic.Int64
	late       atomic.Int64 // deliveries for a publication already retired
	missing    atomic.Int64 // publications retired with deliveries missing
	deliveries atomic.Int64 // subscription IDs delivered

	errMu    sync.Mutex
	firstErr string
}

func newTracker(in *inputs, dupesLegal bool) *tracker {
	t := &tracker{
		in:         in,
		words:      max(1, (in.maxExpect+63)/64),
		slots:      make([]slot, ringSize),
		dupesLegal: dupesLegal,
		stableIdx:  make(map[core.SubscriptionID]int32, len(in.stable)),
		churn:      make(map[core.SubscriptionID]*box),
	}
	t.bits = make([]atomic.Uint64, ringSize*t.words)
	for i := range t.slots {
		t.slots[i].seq.Store(-1)
	}
	return t
}

func (t *tracker) fail(format string, args ...any) {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	if t.firstErr == "" {
		t.firstErr = fmt.Sprintf(format, args...)
	}
}

func (t *tracker) firstError() string {
	t.errMu.Lock()
	defer t.errMu.Unlock()
	return t.firstErr
}

func (t *tracker) addStable(id core.SubscriptionID, idx int) {
	t.mu.Lock()
	t.stableIdx[id] = int32(idx)
	t.mu.Unlock()
}

// setPending declares the churn subscription about to be subscribed: its
// placements can deliver before Subscribe returns the ID.
func (t *tracker) setPending(b *box) {
	t.mu.Lock()
	t.pending = b
	t.mu.Unlock()
}

// addChurn records a subscribed churn subscription and clears the pending
// one. Churn entries are never removed: a delivery racing an unsubscribe is
// still a correct match.
func (t *tracker) addChurn(id core.SubscriptionID, b *box) {
	t.mu.Lock()
	t.churn[id] = b
	t.pending = nil
	t.mu.Unlock()
}

func (t *tracker) expected(seq int64) []int32 { return t.in.expect[seq%int64(len(t.in.pool))] }
func (t *tracker) attrs(seq int64) []float64  { return t.in.pool[seq%int64(len(t.in.pool))] }

// arm prepares the slot for publication seq and returns the number of
// expected deliveries. A slot still held by an older publication is waited
// for until that publication completes or times out as missing.
func (t *tracker) arm(seq, sched int64) int {
	s := &t.slots[seq%ringSize]
	for {
		old := s.seq.Load()
		if old < 0 || s.remaining.Load() <= 0 {
			break
		}
		if time.Now().UnixNano()-s.sched.Load() > int64(missingAfter) {
			t.retire(s, old)
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.seq.Store(-1)
	n := len(t.expected(seq))
	base := int(seq%ringSize) * t.words
	for w := 0; w < t.words; w++ {
		t.bits[base+w].Store(0)
	}
	s.remaining.Store(int32(n))
	s.sched.Store(sched)
	s.seq.Store(seq)
	if n > 0 {
		t.cur.Load().armed.Add(1)
	}
	return n
}

// retire declares slot s's publication failed if deliveries are missing.
func (t *tracker) retire(s *slot, seq int64) {
	if r := s.remaining.Swap(0); r > 0 {
		t.missing.Add(1)
		t.fail("publication %d: %d of %d expected stable deliveries missing after %v",
			seq, r, len(t.expected(seq)), missingAfter)
	}
}

// unarm drops a publication whose Publish call failed, so it is not also
// reported missing.
func (t *tracker) unarm(seq int64) {
	s := &t.slots[seq%ringSize]
	if s.remaining.Swap(0) > 0 {
		t.cur.Load().armed.Add(-1)
	}
}

// retireAll declares every still-incomplete publication failed; called
// once the run has drained.
func (t *tracker) retireAll() {
	for i := range t.slots {
		s := &t.slots[i]
		if seq := s.seq.Load(); seq >= 0 {
			t.retire(s, seq)
		}
	}
}

// deliver is the subscriber callback for every client. It allocates
// nothing on the stable path.
func (t *tracker) deliver(msg *core.Message, ids []core.SubscriptionID) {
	now := time.Now().UnixNano()
	if len(msg.Payload) != 8 {
		t.spurious.Add(int64(len(ids)))
		t.fail("delivery with a %d-byte payload, want 8", len(msg.Payload))
		return
	}
	seq := int64(binary.LittleEndian.Uint64(msg.Payload))
	if seq < 0 || !slices.Equal(msg.Attrs, t.attrs(seq)) {
		t.spurious.Add(int64(len(ids)))
		t.fail("delivery of publication %d with attributes %v, want %v", seq, msg.Attrs, t.attrs(seq))
		return
	}
	t.deliveries.Add(int64(len(ids)))
	s := &t.slots[seq%ringSize]
	live := s.seq.Load() == seq
	exp := t.expected(seq)
	bits := t.bits[int(seq%ringSize)*t.words:]
	t.mu.RLock()
	for _, id := range ids {
		if si, ok := t.stableIdx[id]; ok {
			pos, found := slices.BinarySearch(exp, si)
			switch {
			case !found:
				t.spurious.Add(1)
				t.fail("publication %d delivered to stable subscription %d (%v), which does not match it",
					seq, si, t.in.stable[si])
			case !live:
				t.late.Add(1)
			default:
				bit := uint64(1) << (pos & 63)
				if bits[pos>>6].Or(bit)&bit != 0 {
					t.duplicates.Add(1)
				} else if s.remaining.Add(-1) == 0 {
					t.complete(seq, s, now)
				}
			}
			continue
		}
		b, ok := t.churn[id]
		if !ok {
			b = t.pending
		}
		if b == nil || !b.contains(msg.Attrs) {
			t.spurious.Add(1)
			t.fail("publication %d delivered to subscription %v, which is unknown or does not match", seq, id)
		}
	}
	t.mu.RUnlock()
	if msg.Trace != nil {
		t.recordTrace(seq, msg.Trace, now)
	}
}

func (t *tracker) complete(seq int64, s *slot, now int64) {
	ph := t.cur.Load()
	if i := seq - ph.base; i >= 0 && i < int64(len(ph.lat)) {
		ph.lat[i].Store(max(1, now-s.sched.Load()))
	}
	ph.completed.Add(1)
	if ph.tokens != nil {
		select {
		case ph.tokens <- struct{}{}:
		default:
		}
	}
}

func (t *tracker) recordTrace(seq int64, tc *core.TraceCtx, now int64) {
	ph := t.cur.Load()
	i := seq - ph.base
	if ph.hops == nil || i < 0 || i >= int64(len(ph.hops)) || !ph.hopSeen[i].CompareAndSwap(0, 1) {
		return
	}
	copy(ph.hops[i][:core.HopCount], tc.Hops[:])
	ph.hops[i][core.HopCount] = now
	ph.hopSeen[i].Store(2)
}

// verdict summarises the oracle's findings: whether every check passed,
// and if not, the first failure.
func (t *tracker) verdict() (ok bool, why string) {
	switch {
	case t.spurious.Load() > 0:
		return false, fmt.Sprintf("%d spurious deliveries; first: %s", t.spurious.Load(), t.firstError())
	case t.missing.Load() > 0:
		return false, fmt.Sprintf("%d publications missing deliveries; first: %s", t.missing.Load(), t.firstError())
	case !t.dupesLegal && t.duplicates.Load()+t.late.Load() > 0:
		return false, fmt.Sprintf("%d duplicate deliveries on an at-most-once deployment",
			t.duplicates.Load()+t.late.Load())
	}
	return true, ""
}
