// Wire-level cost of the forward hop, measured in-process with
// testing.Benchmark: the encode paths the batching and telemetry experiments
// exercise end to end, isolated from the cluster around them.
//
// The Measure* functions are kept out of Batching and TelemetryOverhead on
// purpose: testing.Benchmark waits on the testing package's benchmark lock,
// so calling them from inside a running benchmark deadlocks. Callers outside
// a benchmark (the bluedove-bench command) fill the results' Wire/Sampler
// fields with them.
package experiment

import (
	"fmt"
	"testing"

	"bluedove/internal/core"
	"bluedove/internal/telemetry"
	"bluedove/internal/wire"
)

// wireBatch is the ForwardBatchBody size the encode measurements use.
const wireBatch = 64

// EncodeCost is one encode path's cost, normalised per message.
type EncodeCost struct {
	AllocsPerMsg float64 `json:"allocs_per_msg"`
	NsPerMsg     float64 `json:"ns_per_msg"`
}

func encodeCost(r testing.BenchmarkResult) EncodeCost {
	return EncodeCost{AllocsPerMsg: float64(r.AllocsPerOp()), NsPerMsg: float64(r.NsPerOp())}
}

// BatchWireCost compares one ForwardBody frame per message (the pre-batching
// dispatcher forward path) with one pooled ForwardBatchBody frame per
// wireBatch messages.
type BatchWireCost struct {
	Batch     int        `json:"batch"`
	Unbatched EncodeCost `json:"unbatched"`
	Batched   EncodeCost `json:"batched"`
	// AllocReduction is unbatched / batched allocations per message (the
	// unbatched count itself when the batched path allocates nothing).
	AllocReduction float64 `json:"alloc_reduction"`
}

// TraceWireCost is the pooled batch encode cost with no trace context vs
// every message carrying a fully stamped one.
type TraceWireCost struct {
	Batch              int        `json:"batch"`
	TraceOverheadBytes int        `json:"trace_overhead_bytes"`
	Untraced           EncodeCost `json:"untraced"`
	Traced             EncodeCost `json:"traced"`
}

// SamplerCost is the per-publication sampling decision cost. Disabled (rate
// 0) is what telemetry adds to every publish when tracing is off.
type SamplerCost struct {
	DisabledNsPerOp float64 `json:"disabled_ns_per_op"`
	EnabledNsPerOp  float64 `json:"enabled_ns_per_op"`
}

// forwardMsgs builds the wireBatch messages the encode measurements cycle
// through; traced attaches a trace context stamped up to the forward hop.
func forwardMsgs(traced bool) []*core.Message {
	msgs := make([]*core.Message, wireBatch)
	for i := range msgs {
		msgs[i] = &core.Message{
			ID:          core.MessageID(i + 1),
			Attrs:       []float64{float64(i), 500, 500, 500},
			Payload:     []byte("0123456789abcdef"),
			PublishedAt: int64(i),
		}
		if traced {
			tr := &core.TraceCtx{ID: core.TraceID(i + 1), Dispatcher: 1, Matcher: 2, Dim: i % 4}
			for h := core.HopPublish; h <= core.HopForward; h++ {
				tr.Stamp(h, int64(i+1)+int64(h))
			}
			msgs[i].Trace = tr
		}
	}
	return msgs
}

// pooledBatchEncode measures the batched forward path per message: each op
// appends one message, and every wireBatch of them is encoded as one
// ForwardBatchBody into a pooled buffer.
func pooledBatchEncode(msgs []*core.Message) EncodeCost {
	var entries []wire.ForwardEntry
	return encodeCost(testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			entries = append(entries, wire.ForwardEntry{Dim: 0, Msg: msgs[i%wireBatch]})
			if len(entries) == wireBatch {
				body := wire.ForwardBatchBody{Entries: entries}
				buf := wire.GetBuf()
				buf.B = body.AppendTo(buf.B)
				wire.PutBuf(buf)
				entries = entries[:0]
			}
		}
	}))
}

// MeasureBatchWire measures the unbatched vs pooled batched forward encode.
// It must not be called from inside a running benchmark.
func MeasureBatchWire() BatchWireCost {
	msgs := forwardMsgs(false)
	w := BatchWireCost{
		Batch: wireBatch,
		Unbatched: encodeCost(testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				body := wire.ForwardBody{Dim: 0, Msg: msgs[i%wireBatch]}
				buf := body.Encode()
				_ = buf
			}
		})),
		Batched: pooledBatchEncode(msgs),
	}
	w.AllocReduction = w.Unbatched.AllocsPerMsg
	if w.Batched.AllocsPerMsg > 0 {
		w.AllocReduction /= w.Batched.AllocsPerMsg
	}
	return w
}

// MeasureTraceWire measures the pooled batch encode without and with a
// stamped trace context. It must not be called from inside a running
// benchmark.
func MeasureTraceWire() TraceWireCost {
	return TraceWireCost{
		Batch:              wireBatch,
		TraceOverheadBytes: wire.TraceOverhead,
		Untraced:           pooledBatchEncode(forwardMsgs(false)),
		Traced:             pooledBatchEncode(forwardMsgs(true)),
	}
}

// MeasureSampler measures the sampling decision at rate 0 and rate 1. It
// must not be called from inside a running benchmark.
func MeasureSampler() SamplerCost {
	bench := func(rate float64) float64 {
		s := telemetry.NewSampler(rate)
		return float64(testing.Benchmark(func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				if s.Sample() {
					n++
				}
			}
			_ = n
		}).NsPerOp())
	}
	return SamplerCost{DisabledNsPerOp: bench(0), EnabledNsPerOp: bench(1)}
}

// Table renders the batching encode comparison.
func (w BatchWireCost) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Forward-hop encode cost (wire level, batch=%d)", w.Batch),
		Header: []string{"mode", "allocs/msg", "ns/msg"},
	}
	t.AddRow("ForwardBody per message", w.Unbatched.AllocsPerMsg, w.Unbatched.NsPerMsg)
	t.AddRow("pooled ForwardBatchBody", w.Batched.AllocsPerMsg, w.Batched.NsPerMsg)
	return t
}

// Table renders the traced vs untraced encode comparison.
func (w TraceWireCost) Table() *Table {
	t := &Table{
		Title:  fmt.Sprintf("Forward-hop encode cost with tracing (wire level, batch=%d)", w.Batch),
		Header: []string{"mode", "allocs/msg", "ns/msg"},
	}
	t.AddRow("untraced", w.Untraced.AllocsPerMsg, w.Untraced.NsPerMsg)
	t.AddRow("traced", w.Traced.AllocsPerMsg, w.Traced.NsPerMsg)
	return t
}

// Table renders the sampler decision cost.
func (s SamplerCost) Table() *Table {
	t := &Table{Title: "Sampler decision cost", Header: []string{"mode", "ns/op"}}
	t.AddRow("rate 0 (disabled)", s.DisabledNsPerOp)
	t.AddRow("rate 1 (enabled)", s.EnabledNsPerOp)
	return t
}
