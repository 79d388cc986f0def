package main

import (
	"encoding/binary"
	"testing"

	"bluedove/internal/core"
)

// oracleFixture is two stable subscriptions and one publication matching
// only the first, tracked as publication 0.
func oracleFixture(t *testing.T) (*tracker, *core.Message) {
	t.Helper()
	narrow := fullBox()
	narrow[0], narrow[1] = 0, 100
	far := fullBox()
	far[0], far[1] = 900, 1000
	in := &inputs{stable: []box{fullBox(), far, narrow}, pool: [][]float64{{50, 1, 2, 3}}}
	in.expect = expectedSets(in.stable, in.pool)
	in.maxExpect = len(in.expect[0])
	if want := []int32{0, 2}; len(in.expect[0]) != 2 || in.expect[0][0] != want[0] || in.expect[0][1] != want[1] {
		t.Fatalf("expected set %v, want %v", in.expect[0], want)
	}
	tr := newTracker(in, false)
	for i := range in.stable {
		tr.addStable(core.SubscriptionID(100+i), i)
	}
	tr.cur.Store(newPhase(0, 1, false, 0))
	if n := tr.arm(0, 1); n != 2 {
		t.Fatalf("arm: %d expected deliveries, want 2", n)
	}
	payload := make([]byte, 8)
	binary.LittleEndian.PutUint64(payload, 0)
	return tr, &core.Message{Attrs: []float64{50, 1, 2, 3}, Payload: payload}
}

func TestOracleAcceptsExactDelivery(t *testing.T) {
	tr, msg := oracleFixture(t)
	tr.deliver(msg, []core.SubscriptionID{100})
	tr.deliver(msg, []core.SubscriptionID{102})
	tr.retireAll()
	if ok, why := tr.verdict(); !ok {
		t.Fatalf("exact delivery rejected: %s", why)
	}
	if c := tr.cur.Load().completed.Load(); c != 1 {
		t.Fatalf("completed %d, want 1", c)
	}
}

func TestOracleFlagsDroppedDelivery(t *testing.T) {
	tr, msg := oracleFixture(t)
	tr.deliver(msg, []core.SubscriptionID{100}) // 102 never arrives
	tr.retireAll()
	if ok, _ := tr.verdict(); ok || tr.missing.Load() != 1 {
		t.Fatalf("dropped delivery not flagged: ok=%v missing=%d", ok, tr.missing.Load())
	}
}

func TestOracleFlagsSpuriousDelivery(t *testing.T) {
	tr, msg := oracleFixture(t)
	tr.deliver(msg, []core.SubscriptionID{100, 101, 102}) // 101 does not match
	if ok, _ := tr.verdict(); ok || tr.spurious.Load() != 1 {
		t.Fatalf("spurious delivery not flagged: ok=%v spurious=%d", ok, tr.spurious.Load())
	}
}

func TestOracleChurnDeliveries(t *testing.T) {
	tr, msg := oracleFixture(t)
	match, miss := fullBox(), fullBox()
	miss[2], miss[3] = 500, 600
	tr.addChurn(7, &match)
	tr.addChurn(8, &miss)
	tr.deliver(msg, []core.SubscriptionID{100, 102, 7})
	if tr.spurious.Load() != 0 {
		t.Fatalf("matching churn delivery flagged: %s", tr.firstError())
	}
	tr.deliver(msg, []core.SubscriptionID{8})
	if tr.spurious.Load() != 1 {
		t.Fatal("non-matching churn delivery not flagged")
	}
}

func TestOracleFlagsDuplicateOnAtMostOnceDeployment(t *testing.T) {
	tr, msg := oracleFixture(t)
	tr.deliver(msg, []core.SubscriptionID{100, 102})
	tr.deliver(msg, []core.SubscriptionID{100})
	if ok, _ := tr.verdict(); ok || tr.duplicates.Load() != 1 {
		t.Fatalf("duplicate not flagged: ok=%v duplicates=%d", ok, tr.duplicates.Load())
	}
	tr.dupesLegal = true
	if ok, why := tr.verdict(); !ok {
		t.Fatalf("duplicate rejected on an at-least-once deployment: %s", why)
	}
}
