package main

import (
	"math/rand"
	"slices"

	"bluedove/internal/core"
	"bluedove/internal/index"
	"bluedove/internal/workload"
)

// The attribute space every workload uses: the paper's 4 dimensions of
// extent 1000.
const (
	dims   = 4
	extent = 1000.0
	// poolSize is the number of distinct publications a run cycles through;
	// each one's expected delivery set is computed once, before the cluster
	// starts.
	poolSize = 8192
	// churnPoolSize is the number of distinct churn subscriptions a run
	// cycles through.
	churnPoolSize = 4096
)

// box is a subscription as the oracle sees it: one half-open range
// [lo, hi) per dimension, stored lo0, hi0, lo1, hi1, ...
type box [2 * dims]float64

// contains reports whether every attribute falls inside the box. It is the
// benchmark's own matching rule, independent of the system under test.
func (b *box) contains(attrs []float64) bool {
	if len(attrs) != dims {
		return false
	}
	for d := 0; d < dims; d++ {
		if v := attrs[d]; v < b[2*d] || v >= b[2*d+1] {
			return false
		}
	}
	return true
}

// ranges converts the box to the predicate list Client.Subscribe takes.
func (b *box) ranges() []core.Range {
	r := make([]core.Range, dims)
	for d := range r {
		r[d] = core.Range{Low: b[2*d], High: b[2*d+1]}
	}
	return r
}

func boxOf(s *core.Subscription) box {
	var b box
	for d, r := range s.Predicates {
		b[2*d], b[2*d+1] = r.Low, r.High
	}
	return b
}

// spec is one benchmark workload: the deployment's options that differ from
// the defaults, the load shape, and the input generator.
type spec struct {
	Name string `json:"name"`
	Why  string `json:"why"`

	// Cluster options that differ from the defaults.
	Index       index.Kind `json:"-"`
	Covering    bool       `json:"covering"`
	MatchShards int        `json:"match_shards"`
	// Durable journals every node and forwards at least once
	// (Persistent); duplicate callbacks are then legal.
	Durable bool `json:"durable"`

	Stable     int     `json:"stable_subscriptions"`
	ChurnLive  int     `json:"churn_live"`
	ChurnRate  float64 `json:"churn_per_s"`
	OpenRate   float64 `json:"open_loop_rate"`
	Window     int     `json:"closed_loop_window"`
	SkewedMsgs bool    `json:"hot_spot_publications"`

	// stable generates the stable subscriptions in subscription order;
	// templates is how many leading entries must be installed before the
	// rest (covers before their riders). churn draws one churn
	// subscription.
	stable    func(rng *rand.Rand, seed int64) (subs []box, templates int)
	churn     func(rng *rand.Rand, g *workload.Generator) box
	messageGn func(seed int64) *workload.Generator
}

func paperGen(seed int64, skewedMsgDims int) *workload.Generator {
	cfg := workload.Default(core.UniformSpace(dims, extent))
	cfg.Seed = seed
	cfg.SkewedMsgDims = skewedMsgDims
	return workload.New(cfg)
}

func paperChurn(_ *rand.Rand, g *workload.Generator) box { return boxOf(g.Subscription()) }

// specs lists the workloads; BENCHMARK.json names the same set.
var specs = []*spec{
	{
		Name:        "match-heavy",
		Index:       index.KindBucket,
		Why:         "10k templated subscriptions with covering and 2 shards: index stab+verify and fan-out dominate",
		Covering:    true,
		MatchShards: 2,
		Stable:      10000,
		ChurnLive:   100,
		ChurnRate:   20,
		OpenRate:    2000,
		Window:      256,
		SkewedMsgs:  true,
		// 500 paper-generator templates, each followed by 19 riders strictly
		// inside it (every side shrunk by less than 2% of its length): many
		// subscribers sharing a few interests.
		stable: func(rng *rand.Rand, seed int64) ([]box, int) {
			const templates, riders = 500, 19
			g := paperGen(seed, 0)
			out := make([]box, 0, templates*(riders+1))
			for i := 0; i < templates; i++ {
				out = append(out, boxOf(g.Subscription()))
			}
			for i := 0; i < templates; i++ {
				t := out[i]
				for r := 0; r < riders; r++ {
					var b box
					for d := 0; d < dims; d++ {
						lo, hi := t[2*d], t[2*d+1]
						shrink := 0.02 * (hi - lo)
						b[2*d] = lo + shrink*(0.001+0.998*rng.Float64())
						b[2*d+1] = hi - shrink*(0.001+0.998*rng.Float64())
					}
					out = append(out, b)
				}
			}
			return out, templates
		},
		churn:     paperChurn,
		messageGn: func(seed int64) *workload.Generator { return paperGen(seed, dims) },
	},
	{
		Name:      "frame-bound",
		Why:       "8 wide subscriptions, uniform publications: per-publication frames and transport dominate while the index does almost nothing",
		Stable:    8,
		ChurnLive: 8,
		ChurnRate: 20,
		OpenRate:  5000,
		Window:    256,
		// Dimension 0 is [62.5i, 62.5i+500); the other dimensions are full.
		stable: func(*rand.Rand, int64) ([]box, int) {
			out := make([]box, 8)
			for i := range out {
				out[i] = fullBox()
				out[i][0], out[i][1] = 62.5*float64(i), 62.5*float64(i)+500
			}
			return out, 0
		},
		churn: func(rng *rand.Rand, _ *workload.Generator) box {
			b := fullBox()
			b[0] = rng.Float64() * 500
			b[1] = b[0] + 500
			return b
		},
		messageGn: func(seed int64) *workload.Generator { return paperGen(seed, 0) },
	},
	{
		Name:       "durable-churn",
		Why:        "journal on every node (fsync interval), at-least-once forwarding, 100/s churn: the durable path. The journal costs ~9% of capacity; fsync-always gains show only per layer",
		Durable:    true,
		Stable:     2000,
		ChurnLive:  100,
		ChurnRate:  100,
		OpenRate:   1000,
		Window:     256,
		SkewedMsgs: true,
		stable: func(_ *rand.Rand, seed int64) ([]box, int) {
			g := paperGen(seed, 0)
			out := make([]box, 2000)
			for i := range out {
				out[i] = boxOf(g.Subscription())
			}
			return out, 0
		},
		churn:     paperChurn,
		messageGn: func(seed int64) *workload.Generator { return paperGen(seed, dims) },
	},
}

func fullBox() box {
	var b box
	for d := 0; d < dims; d++ {
		b[2*d], b[2*d+1] = 0, extent
	}
	return b
}

func specByName(name string) *spec {
	for _, s := range specs {
		if s.Name == name {
			return s
		}
	}
	return nil
}

// inputs is everything a run feeds the cluster, generated from the seed
// before the cluster starts.
type inputs struct {
	stable    []box
	templates int
	churn     []box
	// pool holds the publications' attribute vectors; publication seq
	// carries pool[seq%len(pool)].
	pool [][]float64
	// expect[i] lists, ascending, the stable subscriptions (indexes into
	// stable) that pool[i] must be delivered to.
	expect [][]int32
	// maxExpect is the largest expected set.
	maxExpect int
}

// generate builds a workload's inputs from the seed. The same seed gives
// the same inputs.
func generate(w *spec, seed int64) *inputs {
	rng := rand.New(rand.NewSource(seed))
	in := &inputs{}
	in.stable, in.templates = w.stable(rng, seed)
	cg := paperGen(seed+1, 0)
	in.churn = make([]box, churnPoolSize)
	for i := range in.churn {
		in.churn[i] = w.churn(rng, cg)
	}
	mg := w.messageGn(seed + 2)
	in.pool = make([][]float64, poolSize)
	for i := range in.pool {
		in.pool[i] = mg.Message().Attrs
	}
	in.expect = expectedSets(in.stable, in.pool)
	for _, e := range in.expect {
		in.maxExpect = max(in.maxExpect, len(e))
	}
	return in
}

// expectedSets is the delivery oracle: a brute-force scan of every
// subscription for every publication. It deliberately shares no code with
// the system's index.
func expectedSets(subs []box, pool [][]float64) [][]int32 {
	out := make([][]int32, len(pool))
	for i, attrs := range pool {
		var e []int32
		for j := range subs {
			if subs[j].contains(attrs) {
				e = append(e, int32(j))
			}
		}
		out[i] = slices.Clip(e)
	}
	return out
}
