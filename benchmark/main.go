// Command refocus-bench is the repository's benchmark. It runs one seeded
// workload against the real program — the serve worker, the cluster
// coordinator, the optimizer and the JTC conv engine, all in this
// process over loopback HTTP where the program speaks HTTP — checks
// every output, and prints the end-to-end metrics (or, with -trace 1,
// the per-layer metrics and a Chrome trace). Every number is host time
// or a count; simulated statistics are outputs, checked and digested,
// never reported as metrics.
//
// Run it from the repository root through the launcher, which builds it:
//
//	bash benchmark/run.sh --workload evaluate-hot --seed 1 --seconds 20 --trace 0
//
// The last stdout line is the result object; the line before it is the
// result record (provenance, output digest, sample counts and the
// workload's metrics under the names the benchmark's design uses).
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupRepeats is how many times a run sets its workload up; setup_s is
// the median, so a one-off first-use cost in the process (registry
// load, plan creation) does not decide it.
const setupRepeats = 5

// traceSpanCap bounds the spans one traced run records.
const traceSpanCap = 60000

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	out      string
}

// env is what every workload is built from.
type env struct {
	seed    int64
	clients int
	scratch string
}

// workload is one seeded load against the program. setup boots the
// program and warms it (timed as setup_s); measure runs the load for at
// least d, checks every output and reports what it saw; layers derives
// the per-layer metrics from the last measurement made with a tracer and
// adds the attribution facts it can show to facts.
type workload interface {
	setup(ctx context.Context, tr *tracer) error
	measure(ctx context.Context, d time.Duration, tr *tracer) (*measurement, error)
	layers(ctx context.Context, tr *tracer, facts map[string]any) (map[string]float64, error)
	// named returns the measurement under the metric names of the
	// benchmark's design (workloads.json), with units and sample counts.
	named(m *measurement) []namedMetric
	digest() string
	close()
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"evaluate-hot", "sweep-cold", "search-evolve", "conv-on-light"}

func newWorkload(name string, e env) (workload, error) {
	switch name {
	case "evaluate-hot":
		return newEvalHot(e), nil
	case "sweep-cold":
		return newSweepCold(e), nil
	case "search-evolve":
		return newSearchEvolve(e), nil
	case "conv-on-light":
		return newConvOnLight(e), nil
	}
	return nil, fmt.Errorf("unknown workload %q (known: %v)", name, workloadNames)
}

// measurement is what one measured window saw.
type measurement struct {
	// Attempted counts operations started; Failed those that errored,
	// were shed or lost, or failed an output check.
	Attempted, Failed int
	// Work counts the work items completed. Rates holds the work done
	// per second over each interval of the window: each 1-s slice for
	// the closed loops of many short operations, each operation for the
	// workloads that run one operation at a time. Their median is the
	// throughput, so a burst of host contention in a few intervals does
	// not decide it.
	Work  float64
	Rates []float64
	// CPU is the process CPU time (program and load generator together)
	// spent in the timed windows.
	CPU time.Duration
	// Latency is each operation's time to its last result; First, where
	// an operation streams, to its first.
	Latency, First samples
	Failures       []string
}

// fail records one failed operation or check.
func (m *measurement) fail(format string, args ...any) {
	m.Failed++
	if len(m.Failures) < 8 {
		m.Failures = append(m.Failures, fmt.Sprintf(format, args...))
	}
}

func (m *measurement) merge(o *measurement) {
	m.Attempted += o.Attempted
	m.Failed += o.Failed
	for _, f := range o.Failures {
		if len(m.Failures) < 8 {
			m.Failures = append(m.Failures, f)
		}
	}
}

func (m *measurement) throughput() float64 { return medianFloat(m.Rates) }

// namedMetric is one metric in the record line.
type namedMetric struct {
	Name    string  `json:"name"`
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// record is the line printed before the result: everything a later A/B
// comparison needs to refuse a mismatched pairing.
type record struct {
	Record       string         `json:"record"`
	Workload     string         `json:"workload"`
	Seed         int64          `json:"seed"`
	Seconds      int            `json:"seconds"`
	Traced       bool           `json:"traced"`
	Provenance   provenance     `json:"provenance"`
	OutputDigest string         `json:"output_digest"`
	Attempted    int            `json:"attempted"`
	Failed       int            `json:"failed"`
	ErrorRate    float64        `json:"error_rate"`
	Failures     []string       `json:"failures,omitempty"`
	Named        []namedMetric  `json:"named,omitempty"`
	Facts        map[string]any `json:"facts,omitempty"`
	TraceFile    string         `json:"trace_file,omitempty"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("refocus-bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: evaluate-hot, sweep-cold, search-evolve or conv-on-light")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed; the same seed gives the same inputs")
	fs.IntVar(&o.seconds, "seconds", 20, "measured seconds")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced run: per-layer metrics and a Chrome trace")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for the run's scratch files (removed at exit) and the trace file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.seconds < 1 || (trace != 0 && trace != 1) {
		fmt.Fprintln(stderr, "refocus-bench: -seconds must be >= 1 and -trace 0 or 1")
		return 2
	}
	o.trace = trace == 1
	if err := bench(context.Background(), o, stdout); err != nil {
		fmt.Fprintln(stderr, "refocus-bench:", err)
		return 1
	}
	return 0
}

// errChecksFailed marks a run that completed but whose outputs failed a
// check; the result is still printed, with correct false.
var errChecksFailed = errors.New("output checks failed")

func bench(ctx context.Context, o options, stdout io.Writer) error {
	prov, err := hostProvenance()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		return fmt.Errorf("output dir: %w", err)
	}
	scratch, err := os.MkdirTemp(o.out, "run-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(scratch)
	e := env{seed: o.seed, clients: runtime.NumCPU(), scratch: scratch}
	w, err := newWorkload(o.workload, e)
	if err != nil {
		return err
	}
	rec := record{
		Record:     "refocus-bench",
		Workload:   o.workload,
		Seed:       o.seed,
		Seconds:    o.seconds,
		Traced:     o.trace,
		Provenance: prov,
	}
	d := time.Duration(o.seconds) * time.Second
	var total measurement
	var values map[string]float64
	var specs []metricSpec
	if o.trace {
		specs = perLayer
		values, err = tracedRun(ctx, o, e, w, d, &total, &rec)
	} else {
		specs = endToEnd
		values, err = untracedRun(ctx, w, d, &total, &rec)
	}
	if err != nil {
		return err
	}
	rec.OutputDigest = w.digest()
	rec.Attempted, rec.Failed, rec.Failures = total.Attempted, total.Failed, total.Failures
	if total.Attempted > 0 {
		rec.ErrorRate = float64(total.Failed) / float64(total.Attempted)
	}
	metrics, err := buildMetrics(specs, values)
	if err != nil {
		return err
	}
	res := result{Correct: total.Failed == 0, Attempted: total.Attempted, Failed: total.Failed, Metrics: metrics}
	if res.Attempted < 1 {
		return errShortRun
	}
	for _, nm := range rec.Named {
		fmt.Fprintf(stdout, "%-34s %14.4f %-9s n=%d\n", nm.Name, nm.Value, nm.Unit, nm.Samples)
	}
	recLine, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	line, err := res.line()
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(recLine))
	fmt.Fprintln(stdout, line)
	if !res.Correct {
		return errChecksFailed
	}
	return nil
}

// untracedRun sets the workload up setupRepeats times (keeping the last
// set-up), measures it once and returns the end-to-end metrics.
func untracedRun(ctx context.Context, w workload, d time.Duration, total *measurement, rec *record) (map[string]float64, error) {
	setups := make([]float64, 0, setupRepeats)
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			w.close()
		}
		// Every set-up starts from a collected heap, so where the garbage
		// of the previous one happens to be collected does not time it.
		runtime.GC()
		start := time.Now()
		if err := w.setup(ctx, nil); err != nil {
			w.close()
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	m, err := w.measure(ctx, d, nil)
	w.close()
	if err != nil {
		return nil, err
	}
	total.merge(m)
	setup := medianFloat(setups)
	mem := peakRSSMB()
	rec.Named = append([]namedMetric{{Name: "setup_s", Value: setup, Unit: "s", Samples: len(setups)}}, w.named(m)...)
	rec.Named = append(rec.Named,
		namedMetric{Name: "error_rate", Value: float64(m.Failed) / float64(max(m.Attempted, 1)), Unit: "fraction", Samples: m.Attempted},
		namedMetric{Name: "mem_peak_mb", Value: mem, Unit: "MB"})
	return map[string]float64{
		"setup_s":          setup,
		"throughput_per_s": m.throughput(),
		"latency_p50_ms":   ms(m.Latency.quantile(0.5)),
		"cpu_ms_per_op":    ms(m.CPU) / float64(max(len(m.Latency), 1)),
		"mem_peak_mb":      mem,
	}, nil
}

// probeSeconds is how long the traced run measures each workload other
// than the one it was asked for, just long enough for its layers.
var probeSeconds = map[string]time.Duration{
	"evaluate-hot":  1500 * time.Millisecond,
	"sweep-cold":    2 * time.Second,
	"search-evolve": 0, // its minimum search count
	"conv-on-light": 0, // one pass over the stack
}

// tracedRun is the traced run. The requested workload runs half its
// time untraced and half traced (their throughput ratio is the tracing
// overhead), then every other workload runs a short traced probe, so
// each layer's metrics come from the traffic of the workload that
// stresses it. Spans are recorded around the benchmark's own calls into
// the program and written as one Chrome trace.
func tracedRun(ctx context.Context, o options, e env, w workload, d time.Duration, total *measurement, rec *record) (map[string]float64, error) {
	tr := newTracer(traceSpanCap)
	half := d / 2
	if err := w.setup(ctx, nil); err != nil {
		w.close()
		return nil, fmt.Errorf("setup: %w", err)
	}
	plain, err := w.measure(ctx, half, nil)
	w.close()
	if err != nil {
		return nil, err
	}
	total.merge(plain)

	values := map[string]float64{}
	facts := map[string]any{}
	for _, name := range workloadNames {
		x, dx := w, probeSeconds[name]
		if name == o.workload {
			dx = half
		} else if x, err = newWorkload(name, e); err != nil {
			return nil, err
		}
		lane := tr.lane(ctx)
		sp := tr.span(lane, "workload."+name)
		if err := x.setup(ctx, tr); err != nil {
			x.close()
			return nil, fmt.Errorf("%s setup: %w", name, err)
		}
		m, err := x.measure(ctx, dx, tr)
		if err != nil {
			x.close()
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		total.merge(m)
		lv, err := x.layers(ctx, tr, facts)
		x.close()
		sp.End()
		if err != nil {
			return nil, fmt.Errorf("%s layers: %w", name, err)
		}
		for k, v := range lv {
			values[k] = v
		}
		if name == o.workload {
			values["obs.trace_overhead_pct"] = (plain.throughput()/m.throughput() - 1) * 100
			rec.Named = w.named(m)
		}
	}
	facts["route_key_exceeds_evaluate_all"] = values["serve.route_key_us"] > values["arch.evaluate_all_us"]
	facts["propose_exceeds_eval"] = values["opt.propose_ms_total"] > values["opt.eval_ms_total"]
	rec.Facts = facts

	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	if err := tr.tr.WriteJSON(f); err != nil {
		f.Close()
		return nil, err
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("trace file: %w", err)
	}
	rec.TraceFile = path
	return values, nil
}

// digestOf hashes a sequence of byte strings into one hex digest.
func digestOf(parts [][]byte) string {
	h := sha256.New()
	for _, p := range parts {
		fmt.Fprintf(h, "%d:", len(p))
		h.Write(p)
	}
	return hex.EncodeToString(h.Sum(nil))
}
