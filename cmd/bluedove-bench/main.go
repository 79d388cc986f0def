// Command bluedove-bench regenerates the paper's evaluation figures and
// tables on the discrete-event simulator and prints them in the same form
// the paper reports (see EXPERIMENTS.md for the comparison). It also runs
// the real-stack experiments, one per flag, each optionally written as a
// JSON report.
//
//	bluedove-bench -fig 6a            # one figure at the default scale
//	bluedove-bench -fig all           # the whole evaluation
//	bluedove-bench -fig 7 -scale paper  # full 40k-subscription workload
//	bluedove-bench -chaos -out BENCH_chaos.json  # one real-stack experiment
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"bluedove/internal/experiment"
)

// benchArgs are the flags a real-stack experiment may read.
type benchArgs struct {
	seed     int64
	matchDur time.Duration
}

// benchExperiment is one real-stack experiment, selected by -<flag>.
type benchExperiment struct {
	flag string
	help string
	// run executes the experiment, prints its tables and returns its own
	// result type, which -out serialises as the report's "result".
	run func(benchArgs) (any, error)
	// gate, when set, is a hard pass/fail check on the result: an error
	// exits non-zero before any report is written.
	gate func(result any, seed int64) error
}

// experiments is every real-stack experiment; the first one selected runs.
var experiments = []benchExperiment{
	{flag: "batching",
		help: "run the forward-path batching comparison on the real in-process cluster instead of a figure",
		run: func(benchArgs) (any, error) {
			r, err := experiment.Batching(experiment.BatchingOpts{})
			if err != nil {
				return nil, err
			}
			r.Wire = experiment.MeasureBatchWire()
			fmt.Println(r.Table())
			fmt.Println(r.Wire.Table())
			return r, nil
		}},
	{flag: "chaos",
		help: "run the chaos failover experiment (matcher killed mid-burst) on the real in-process cluster",
		run: func(a benchArgs) (any, error) {
			r, err := experiment.Chaos(experiment.ChaosOpts{Seed: a.seed})
			if err != nil {
				return nil, err
			}
			fmt.Println(r.Table())
			if !r.ZeroLoss {
				fmt.Fprintf(os.Stderr, "[acked-loss detail]\n%s\n", r.LossDetail)
			}
			return r, nil
		}},
	{flag: "telemetry",
		help: "run the tracing-overhead comparison (telemetry off / sampled 0 / 0.01 / 1.0) on the real in-process cluster",
		run: func(benchArgs) (any, error) {
			r, err := experiment.TelemetryOverhead(experiment.BatchingOpts{})
			if err != nil {
				return nil, err
			}
			r.Wire, r.Sampler = experiment.MeasureTraceWire(), experiment.MeasureSampler()
			fmt.Println(r.Table())
			fmt.Println(r.Wire.Table())
			fmt.Println(r.Sampler.Table())
			return r, nil
		}},
	{flag: "durability",
		help: "run the durability-cost comparison (journal off / fsync never / interval / always) plus the recovery-time curve on the real in-process cluster",
		run: func(benchArgs) (any, error) {
			r, err := experiment.Durability(experiment.DurabilityOpts{})
			if err != nil {
				return nil, err
			}
			fmt.Println(r.Table())
			fmt.Println(r.RecoveryTable())
			return r, nil
		}},
	{flag: "overload",
		help: "run the overload-control comparison (one matcher throttled, layer off vs busy-NACK re-routing on) on the real in-process cluster",
		run: func(a benchArgs) (any, error) {
			r, err := experiment.Overload(experiment.OverloadOpts{Seed: a.seed})
			if err != nil {
				return nil, err
			}
			fmt.Println(r.Table())
			return r, nil
		}},
	{flag: "match",
		help: "run the single-matcher match-path benchmark (covering × match workers 1..NumCPU across all index kinds) on the real matching stage",
		run: func(a benchArgs) (any, error) {
			r, err := experiment.Match(a.matchDur)
			if err != nil {
				return nil, err
			}
			fmt.Println(r.Table())
			return r, nil
		}},
	{flag: "elasticity",
		help: "run the autoscale experiment: a σ-skewed ramp on the virtual clock (2→N→2 matchers, per-phase p99) plus a chaos-audited controller drain/split on the real in-process cluster",
		run: func(a benchArgs) (any, error) {
			r, err := experiment.Elasticity(a.seed)
			if err != nil {
				return nil, err
			}
			fmt.Println(r.Table())
			if !r.ChaosZeroLoss {
				fmt.Fprintf(os.Stderr, "[acked-loss detail]\n%s\n", r.ChaosLossDetail)
			}
			return r, nil
		}},
	{flag: "edge",
		help: "run the edge-tier benchmark (100k multiplexed sessions on one edge: backpressure + reconnect storm, drop-oldest staleness, disconnect loss accounting) on the real edge server",
		run: func(a benchArgs) (any, error) {
			r, err := experiment.EdgeTier(experiment.EdgeOpts{Seed: a.seed})
			if err != nil {
				return nil, err
			}
			fmt.Println(r.Table())
			return r, nil
		},
		gate: edgeGate},
	{flag: "federation",
		help: "run the federation benchmark (two real clusters joined by border dispatchers: summary suppression, intra- vs cross-cluster latency, zero acked loss across an inter-cluster link flap)",
		run: func(a benchArgs) (any, error) {
			r, err := experiment.FederationTier(experiment.FederationOpts{Seed: a.seed})
			if err != nil {
				return nil, err
			}
			fmt.Println(r.Table())
			return r, nil
		},
		gate: federationGate},
	{flag: "diskfault",
		help: "run the disk-fault certification (journaled full stack — edge, elastic, federation — under combined disk+network chaos: zero acked loss with FailStop, exact drop accounting with DegradeToMemory)",
		run: func(a benchArgs) (any, error) {
			r, err := experiment.DiskFault(experiment.DiskFaultOpts{Seed: a.seed})
			if err != nil {
				return nil, err
			}
			fmt.Println(r.Table())
			return r, nil
		},
		gate: diskFaultGate},
}

var (
	fig       = flag.String("fig", "all", "figure to regenerate: 5|6a|6b|7|8|9|10|11a|11b|11c|overhead|all")
	scale     = flag.String("scale", "small", "workload scale: tiny|small|paper")
	chaosSeed = flag.Int64("chaos-seed", 1, "with -chaos/-overload/-elasticity/-edge/-federation/-diskfault: fault-injection seed")
	matchDur  = flag.Duration("match-duration", time.Second, "with -match: measured time per grid cell")
	out       = flag.String("out", "", `with any experiment flag: write the JSON report {"header": ..., "result": ...} to this file (e.g. BENCH_match.json)`)
	selected  = experimentFlags()
)

// experimentFlags registers one boolean flag per experiment.
func experimentFlags() map[string]*bool {
	sel := make(map[string]*bool, len(experiments))
	for _, e := range experiments {
		sel[e.flag] = flag.Bool(e.flag, false, e.help)
	}
	return sel
}

func main() {
	flag.Parse()
	for _, e := range experiments {
		if *selected[e.flag] {
			runExperiment(e, benchArgs{seed: *chaosSeed, matchDur: *matchDur}, *out)
			return
		}
	}
	runFigures(*fig, *scale)
}

// runExperiment runs e, applies its gate, and writes the report when out is
// non-empty. Gated experiments print their seed first so a failure can be
// replayed.
func runExperiment(e benchExperiment, a benchArgs, out string) {
	if e.gate != nil {
		fmt.Fprintf(os.Stderr, "[%s: seed %d (re-run with -chaos-seed %d)]\n", e.flag, a.seed, a.seed)
	}
	start := time.Now()
	r, err := e.run(a)
	if err != nil {
		log.Fatalf("%s: %v", e.flag, err)
	}
	fmt.Fprintf(os.Stderr, "[%s: %v]\n", e.flag, time.Since(start).Round(time.Millisecond))
	if e.gate != nil {
		if err := e.gate(r, a.seed); err != nil {
			log.Fatal(err)
		}
	}
	if out == "" {
		return
	}
	if err := writeReport(out, r); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "[wrote %s]\n", out)
}

func runFigures(fig, scale string) {
	var sc experiment.Scale
	switch scale {
	case "tiny":
		sc = experiment.ScaleTiny()
	case "small":
		sc = experiment.ScaleSmall()
	case "paper":
		sc = experiment.ScalePaper()
	default:
		log.Fatalf("unknown scale %q", scale)
	}

	runners := map[string]func(experiment.Scale) fmt.Stringer{
		"5":        func(s experiment.Scale) fmt.Stringer { return experiment.Fig5(s).Table() },
		"6a":       func(s experiment.Scale) fmt.Stringer { return experiment.Fig6a(s).Table() },
		"6b":       func(s experiment.Scale) fmt.Stringer { return experiment.Fig6b(s).Table() },
		"7":        func(s experiment.Scale) fmt.Stringer { return experiment.Fig7(s).Table() },
		"8":        func(s experiment.Scale) fmt.Stringer { return experiment.Fig8(s).Table() },
		"9":        func(s experiment.Scale) fmt.Stringer { return experiment.Fig9(s).Table() },
		"10":       func(s experiment.Scale) fmt.Stringer { return experiment.Fig10(s).Table() },
		"11a":      func(s experiment.Scale) fmt.Stringer { return experiment.Fig11a(s).Table() },
		"11b":      func(s experiment.Scale) fmt.Stringer { return experiment.Fig11b(s).Table() },
		"11c":      func(s experiment.Scale) fmt.Stringer { return experiment.Fig11c(s).Table() },
		"overhead": func(s experiment.Scale) fmt.Stringer { return experiment.Overhead(s).Table() },
	}
	order := []string{"5", "6a", "6b", "overhead", "7", "8", "9", "10", "11a", "11b", "11c"}

	run := func(name string) {
		r, ok := runners[name]
		if !ok {
			log.Fatalf("unknown figure %q", name)
		}
		start := time.Now()
		out := r(sc)
		fmt.Println(out)
		fmt.Fprintf(os.Stderr, "[fig %s: %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if fig == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	run(fig)
}
