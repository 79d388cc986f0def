// Command perfbench is the repository's end-to-end and per-layer benchmark.
// It boots a BlueDove cluster (4 matchers, 2 dispatchers) over TCP loopback
// inside its own process, drives one seeded workload through the public
// client API, checks every delivery against a brute-force oracle, and
// prints the metrics as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (setup_s,
// capacity_msgs_per_s, p50_ms, subscribe_p50_ms); with -trace 1 a traced
// deployment gives the per-layer ones. Run it through run.sh, which
// builds it from the checkout first:
//
//	bash perfbench/run.sh --workload frame-bound --seed 1 --seconds 30 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"bluedove/internal/cluster"
)

// commit is set at build time by run.sh when the checkout is a git
// repository.
var commit = "unknown"

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int64   `json:"attempted"`
	Failed    int64   `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

type config struct {
	workload *spec
	seed     int64
	seconds  float64
	root     string
	setups   int // deployments per end-to-end run
}

// deploymentsPerRun is how many times an end-to-end run sets the cluster up
// and measures it; every end-to-end metric is a median over them.
const deploymentsPerRun = 5

// split divides measured time between the closed loop (40%) and the open
// loop (60%).
func split(total time.Duration) (capacity, open time.Duration) {
	return total * 2 / 5, total - total*2/5
}

// measured is the run's measured time.
func (c *config) measured() time.Duration { return time.Duration(c.seconds * float64(time.Second)) }

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	fl := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fl.String("workload", "", "workload name")
	seed := fl.Int64("seed", 1, "input seed")
	seconds := fl.Float64("seconds", 20, "measured seconds per run")
	trace := fl.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	root := fl.String("root", ".", "checkout root; scratch files go under its .bench_build")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w := specByName(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q; want one of %s)\n", *name, workloadNames())
		return 2
	}
	cfg := &config{workload: w, seed: *seed, seconds: *seconds, root: *root, setups: deploymentsPerRun}
	printHeader(stdout, cfg, *trace)

	var res *result
	var err error
	if *trace == 1 {
		res, err = runLayers(cfg)
	} else {
		res, err = runEndToEnd(cfg)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

func workloadNames() string {
	var n []string
	for _, s := range specs {
		n = append(n, s.Name)
	}
	return strings.Join(n, ", ")
}

// printHeader records what the run ran on and with which configuration.
func printHeader(w io.Writer, cfg *config, trace int) {
	h := map[string]any{
		"num_cpu":    runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS + "/" + runtime.GOARCH,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      trace,
		"commit":     commit,
		"workload":   cfg.workload,
		"deployment": deploymentConfig(clusterOptions(cfg.workload, "<data dir>", trace == 1)),
	}
	b, err := json.Marshal(map[string]any{"header": h})
	if err != nil {
		b = []byte(fmt.Sprintf(`{"header_error": %q}`, err))
	}
	fmt.Fprintln(w, string(b))
}

// deploymentConfig lists the cluster options the benchmark sets.
func deploymentConfig(o cluster.Options) map[string]any {
	return map[string]any{
		"matchers": o.Matchers, "dispatchers": o.Dispatchers, "tcp": o.TCP,
		"gossip_interval": o.GossipInterval.String(), "report_interval": o.ReportInterval.String(),
		"covering": o.Covering, "match_shards": o.MatchShards, "index": o.IndexKind.String(),
		"data_dir": o.DataDir, "fsync": o.Fsync.String(), "persistent": o.Persistent,
		"telemetry": o.Telemetry, "trace_sample_rate": o.TraceSampleRate,
	}
}

// runEndToEnd sets the cluster up cfg.setups times and measures each
// deployment for an equal share of the run: capacity in a closed loop, then
// latency in an open loop, with subscription churn throughout. setup_s and
// subscribe_p50_ms are medians over the deployments; capacity and p50 are
// medians over the 0.5 s windows of every deployment. On a shared machine
// the scheduler stalls the whole process for milliseconds at a time; the
// medians keep a stalled window or deployment from deciding the result.
func runEndToEnd(cfg *config) (*result, error) {
	w := cfg.workload
	in := generate(w, cfg.seed)
	dir, err := workDir(cfg.root)
	if err != nil {
		return nil, err
	}
	total := &result{Correct: true, Metrics: metrics{}}
	var setups, caps, p50s, subP50s []float64
	for i := 0; i < cfg.setups; i++ {
		d, took, err := start(w, in, dir, false)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		rates, open, subs, placeErr := measure(d, cfg.measured()/time.Duration(cfg.setups), false)
		d.close()
		total.add(d.result(nil, placeErr))
		setups = append(setups, took.Seconds())
		caps = append(caps, rates...)
		p50s = append(p50s, open.windowP50s...)
		subP50s = append(subP50s, median(subs))
		if !total.Correct {
			break
		}
	}
	m := total.Metrics
	m.set("setup_s", "s", median(setups))
	m.set("capacity_msgs_per_s", "msgs/s", median(caps))
	m.set("p50_ms", "ms", median(p50s))
	m.set("subscribe_p50_ms", "ms", median(subP50s))
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: setup_s %.3f, subscribe_p50_ms %.3f per deployment; capacity %.0f, p50_ms %.3f per window\n",
		w.Name, cfg.seed, setups, subP50s, caps, p50s)
	return total, nil
}

// measure runs the closed loop, then the open loop, for dur in all, with
// subscription churn throughout, and checks the placements at the end. It
// returns the closed loop's window rates, the open loop's results and the
// churn Subscribe round trips (ms) taken during the open loop.
func measure(d *deployment, dur time.Duration, traced bool) ([]float64, *openResult, []float64, error) {
	capDur, openDur := split(dur)
	ch := d.startChurn()
	rates := d.capacity(warmUp, capDur)
	ch.record.Store(true)
	open := d.openLoop(openDur, traced)
	placeErr := d.finish(ch)
	subs := make([]float64, len(ch.rtts))
	for i, t := range ch.rtts {
		subs[i] = float64(t.Nanoseconds()) / 1e6
	}
	return rates, open, subs, placeErr
}

// warmUp is how long the closed loop runs before its rate is sampled.
const warmUp = 250 * time.Millisecond

// runLayers measures the per-layer metrics: an untraced deployment gives
// the closed-loop capacity the tracing overhead is judged against; a
// traced one (every publication sampled) gives capacity, hop stamps and
// counter deltas over its open loop; the index, wire and store drives
// call those packages directly.
func runLayers(cfg *config) (*result, error) {
	w := cfg.workload
	in := generate(w, cfg.seed)
	dir, err := workDir(cfg.root)
	if err != nil {
		return nil, err
	}

	plain, _, err := start(w, in, dir, false)
	if err != nil {
		return nil, fmt.Errorf("untraced set-up: %w", err)
	}
	plainRates, plainOpen, _, placeErr := measure(plain, cfg.measured(), false)
	plainRate := median(plainRates)
	plain.close()
	if placeErr != nil {
		return plain.result(metrics{}, placeErr), nil
	}

	d, _, err := start(w, in, dir, true)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	capDur, openDur := split(cfg.measured())
	ch := d.startChurn()
	tracedRate := median(d.capacity(warmUp, capDur))
	before := d.readCounters()
	open := d.openLoop(openDur, true)
	delta := d.readCounters().minus(before)
	collapse := d.collapseRatio()
	placeErr = d.finish(ch)

	m := metrics{}
	m.setDist("client.publish_call_us", "us", open.callUs)
	m.setDist("client.gen_late_ms", "ms", open.genLate)
	dupes := d.tr.duplicates.Load() + d.tr.late.Load()
	for _, c := range append(d.subs[:], d.churnCl) {
		dupes += c.SuppressedDuplicates()
	}
	m.set("client.duplicates", "count", float64(dupes))
	traceMetrics(m, open)
	counterMetrics(m, delta)
	m.set("index.collapse_ratio", "ratio", collapse)
	m.set("traced.capacity_msgs_per_s", "msgs/s", tracedRate)
	m.set("telemetry.trace_overhead", "ratio", ratio(plainRate, tracedRate))
	// The open-loop tail varies too much from run to run to carry an
	// end-to-end bound, so it is reported here, from the untraced run.
	m.setDist("untraced.latency_ms", "ms", plainOpen.latencies)
	// The cluster is shut down before the out-of-cluster drives, so its
	// gossip, reports and allocations do not share their CPU time or their
	// allocation count.
	d.close()

	indexDrive(m, w, in)
	wireDrive(m, in)
	if err := storeDrive(m, in, dir); err != nil {
		return nil, fmt.Errorf("store drive: %w", err)
	}
	res := d.result(m, placeErr)
	res.add(plain.result(nil, nil))
	return res, nil
}

// result assembles one deployment's verdict from the oracle and the
// operation counts.
func (d *deployment) result(m metrics, placeErr error) *result {
	ok, why := d.tr.verdict()
	if placeErr != nil {
		ok, why = false, placeErr.Error()
	}
	if !ok {
		fmt.Fprintln(os.Stderr, "perfbench: INCORRECT:", why)
	}
	return &result{Correct: ok, Attempted: d.attempted.Load(), Failed: d.failed.Load(), Metrics: m}
}

// add folds another deployment's verdict and counts into r.
func (r *result) add(o *result) {
	r.Correct = r.Correct && o.Correct
	r.Attempted += o.Attempted
	r.Failed += o.Failed
}
