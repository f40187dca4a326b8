// Command benchmark is the repository's end-to-end benchmark. It runs one
// named workload for a fixed wall-clock window, checks every decoded frame,
// and prints each metric by name with its unit; the last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the run
// records spans around calls into each layer and reports per-layer metrics
// instead (see README.md for the workloads, the metrics and the layer map).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"time"
)

// metricDef describes one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
}

// endToEnd lists the metrics a -trace 0 run reports, in print order.
var endToEnd = []metricDef{
	{"realtime_factor", "x", "higher"},
	{"capture_ms_p50", "ms", "lower"},
	{"capture_ms_p90", "ms", "lower"},
	{"frame_loss_frac", "fraction", "lower"},
	{"goodput_kbps", "kbps", "higher"},
	{"alloc_mb_per_capture_s", "MB/capture_s", "lower"},
	{"setup_s", "s", "lower"},
	{"peak_retained_mb", "MB", "lower"},
	{"frame_lag_ms_p50", "ms", "lower"},
	{"frames_per_s", "1/s", "higher"},
}

// perLayer lists the metrics a -trace 1 run reports, in print order.
var perLayer = []metricDef{
	{"iq.read_ns_per_sample", "ns/sample", "lower"},
	{"edgedetect.ns_per_sample", "ns/sample", "lower"},
	{"edgedetect.alloc_bytes_per_sample", "B/sample", "lower"},
	{"edgedetect.edges_per_capture", "count", "higher"},
	{"edgedetect.kept_frac", "fraction", "higher"},
	{"edgedetect.claimed_frac", "fraction", "higher"},
	{"streams.register_ms", "ms", "lower"},
	{"streams.streams_per_capture", "count", "higher"},
	{"streams.walk_ns_per_slot", "ns/slot", "lower"},
	{"streams.clean_slot_frac", "fraction", "higher"},
	{"collide.separate_ms", "ms", "lower"},
	{"collide.groups_per_capture", "count", "lower"},
	{"collide.blind_ok_frac", "fraction", "higher"},
	{"viterbi.ns_per_slot", "ns/slot", "lower"},
	{"decoder.first_pass_ms", "ms", "lower"},
	{"decoder.sic_ms", "ms", "lower"},
	{"decoder.sic_residual_ms", "ms", "lower"},
	{"decoder.sic_dirty_frac", "fraction", "lower"},
	{"decoder.sic_recovered_per_pass", "count", "higher"},
	{"gate.push_ms_per_capture", "ms", "lower"},
	{"gate.end_ms", "ms", "lower"},
	{"gate.throttle_frac", "fraction", "lower"},
	{"gate.sink_errors", "count", "lower"},
	{"reader.synth_ms_per_capture", "ms", "lower"},
	{"trace.overhead_ms", "ms", "lower"},
}

// options are the command-line settings of one run.
type options struct {
	Workload string
	Seed     int64
	Seconds  float64
	Trace    bool
	// TraceOut is the file the traced run writes its spans to.
	TraceOut string
	// Quality overrides the workload's scored-capture count (0 keeps
	// the workload's own); the self-test uses it to run at a tiny size.
	Quality int
	// corrupt flips one payload bit of one decoded frame before the
	// correctness check sees it; the self-test uses it to prove the
	// check trips.
	corrupt bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the JSON object printed as the last line of output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Diag holds the ungated values (see quality.metrics).
	Diag map[string]metric `json:"-"`
}

func main() {
	var o options
	var trace int
	flag.StringVar(&o.Workload, "workload", "", "workload name: "+workloadNames())
	flag.Int64Var(&o.Seed, "seed", 1, "workload seed; the same seed gives the same captures")
	flag.Float64Var(&o.Seconds, "seconds", 30, "measurement window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 records layer spans and reports per-layer metrics")
	flag.StringVar(&o.TraceOut, "trace-out", "", "span output file for -trace 1 (default .bench_build/trace/<workload>-<seed>.jsonl)")
	flag.Parse()
	o.Trace = trace == 1
	if o.Trace && o.TraceOut == "" {
		o.TraceOut = fmt.Sprintf(".bench_build/trace/%s-%d.jsonl", o.Workload, o.Seed)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	defs := endToEnd
	if o.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := rep.Metrics[d.Name]
		fmt.Printf("%-36s %14.6g %-12s (%s is better)\n", d.Name, m.Value, m.Unit, d.Better)
	}
	for _, name := range sortedKeys(rep.Diag) {
		m := rep.Diag[name]
		fmt.Printf("%-36s %14.6g %-12s (not gated)\n", name, m.Value, m.Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// run executes one workload and assembles its report.
func run(o options) (*report, error) {
	w, ok := workloads[o.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (want one of %s)", o.Workload, workloadNames())
	}
	if o.Seconds <= 0 {
		return nil, fmt.Errorf("-seconds must be positive")
	}
	if o.Quality > 0 {
		w.quality = o.Quality
	}
	if o.Trace {
		// The traced run reports no quality metrics, so it decodes each
		// capture once and only what fits in the window; every capture
		// is still checked.
		w.quality = 0
		w.repeats = 1
	}
	var out *outcome
	var err error
	if w.readers > 0 {
		out, err = runGateway(w, o)
	} else {
		out, err = runSingle(w, o)
	}
	if err != nil {
		return nil, err
	}
	defs, values := endToEnd, out.endToEnd
	if o.Trace {
		defs, values = perLayer, out.perLayer
	}
	rep := &report{
		Attempted: out.attempted,
		Failed:    out.failed,
		Correct:   out.failed == 0 && out.attempted > 0,
		Metrics:   map[string]metric{},
		Diag:      out.diag,
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return nil, fmt.Errorf("workload %s did not produce metric %s", o.Workload, d.Name)
		}
		rep.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	for _, msg := range out.failures {
		fmt.Fprintln(os.Stderr, "benchmark: check failed:", msg)
	}
	fmt.Printf("workload %s seed %d: %d captures timed, %d scored, %d attempted, %d failed\n",
		o.Workload, o.Seed, out.timed, out.scored, out.attempted, out.failed)
	return rep, nil
}

// outcome is what a workload loop hands back to run.
type outcome struct {
	attempted, failed int
	timed, scored     int
	failures          []string
	endToEnd          map[string]float64
	perLayer          map[string]float64
	// diag holds values printed for reading but not gated.
	diag map[string]metric
}

func newOutcome() *outcome {
	return &outcome{endToEnd: map[string]float64{}, perLayer: map[string]float64{}, diag: map[string]metric{}}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fail records one failed operation; the first few messages are kept for
// the log.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	if len(o.failures) < 10 {
		o.failures = append(o.failures, fmt.Sprintf(format, args...))
	}
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(float64(len(s))*p)) - 1
	return s[min(max(k, 0), len(s)-1)]
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
