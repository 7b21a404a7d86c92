// Metric tables, the result line, and the statistics behind each number.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// metricSpec names one reported metric and its unit. The two tables
// below are the benchmark's contract with BENCHMARK.json: an untraced
// run prints exactly endToEnd, a traced run exactly perLayer, and the
// tests hold both tables equal to the file.
type metricSpec struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the service or simulator sees.
// Every workload reports every one; what an "operation" and a "work
// item" are differs per workload and is listed in workloads.json. Tail
// and first-result latencies are in the result record instead, for the
// workloads whose sample counts support them.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"mem_peak_mb", "MB"},
}

// perLayer are the traced run's layer metrics, all host time or counts.
var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{"serveclient.roundtrip_overhead_us", "us"},
		{"serve.handler_us", "us"},
		{"serve.route_key_us", "us"},
		{"nn.network_hash_us", "us"},
		{"arch.config_hash_us", "us"},
		{"serve.stage.cache_lookup_us", "us"},
		{"serve.stage.queue_wait_us", "us"},
		{"serve.stage.evaluate_us", "us"},
		{"serve.stage.encode_us", "us"},
		{"serve.attribution_residual_us", "us"},
		{"serve.cache_hit_ratio", "ratio"},
		{"serve.evaluations", "count"},
		{"serve.shed", "count"},
		{"serve.response_bytes", "B"},
		{"go.alloc_bytes_per_request", "B"},
		{"go.gc_per_1k_requests", "count"},
		{"cluster.proxy_overhead_us", "us"},
		{"cluster.ring_successors_ns", "ns"},
		{"cluster.shard_skew", "ratio"},
		{"cluster.hedges_per_1k", "count"},
		{"cluster.failovers_per_1k", "count"},
		{"arch.evaluate_all_us", "us"},
		{"dataflow.network_events_us", "us"},
		{"sim.load_config_us", "us"},
		{"opt.propose_ms_per_gen", "ms"},
		{"opt.propose_ms_total", "ms"},
		{"opt.eval_ms_total", "ms"},
		{"opt.eval_us_per_candidate", "us"},
		{"opt.revisit_ratio", "ratio"},
		{"opt.status_us", "us"},
		{"opt.checkpoint_kb", "KB"},
		{"opt.front_size", "count"},
	}
	for _, l := range convStack {
		specs = append(specs, metricSpec{"jtc.conv2d_ms." + l.Name, "ms"})
	}
	return append(specs,
		metricSpec{"jtc.conv2d_physical_ms", "ms"},
		metricSpec{"jtc.optical_passes", "count"},
		metricSpec{"dsp.rfft_forward_batch_us", "us"},
		metricSpec{"dsp.rfft_inverse_batch_us", "us"},
		metricSpec{"dsp.fft_execute_us", "us"},
		metricSpec{"obs.trace_overhead_pct", "%"},
	)
}()

// metricValue is one printed metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final stdout line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// buildMetrics checks that values holds exactly the specs' names, each
// a finite number, and attaches the units.
func buildMetrics(specs []metricSpec, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		v, ok := values[s.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", s.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is %v", s.Name, v)
		}
		out[s.Name] = metricValue{Value: v, Unit: s.Unit}
	}
	if len(values) != len(specs) {
		for name := range values {
			if _, ok := out[name]; !ok {
				return nil, fmt.Errorf("metric %s is not in the metric table", name)
			}
		}
	}
	return out, nil
}

func (r result) line() (string, error) {
	data, err := json.Marshal(r)
	return string(data), err
}

// samples is a set of per-operation timings.
type samples []time.Duration

// quantile returns the q-quantile by linear interpolation between the
// two nearest ranks (0 for an empty set).
func (s samples) quantile(q float64) time.Duration {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	pos := q * float64(len(c)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return c[lo] + time.Duration(frac*float64(c[hi]-c[lo]))
}

func (s samples) mean() time.Duration {
	if len(s) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range s {
		total += d
	}
	return total / time.Duration(len(s))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// medianFloat returns the median of xs.
func medianFloat(xs []float64) float64 {
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// peakRSSMB is the process's peak resident set (VmHWM) in MB — the
// program under test and the load generator together, since both run in
// this one process. Without /proc it falls back to the Go runtime's
// total reservation.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			fields := strings.Fields(sc.Text())
			if len(fields) >= 2 && fields[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(fields[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// cpuTime is the process's user plus system CPU time so far. Time the
// hypervisor gives another guest (steal) is not in it.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// sliceRates returns the work done per second in each whole 1-s slice
// of the measured window, each operation's work spread evenly over its
// own duration; a window shorter than two slices is one interval.
func sliceRates(ops []opSpan, elapsed time.Duration) []float64 {
	n := int(elapsed / time.Second)
	if n < 2 {
		total := 0.0
		for _, op := range ops {
			total += op.work
		}
		return []float64{total / elapsed.Seconds()}
	}
	rates := make([]float64, n)
	for _, op := range ops {
		first := int(op.from / time.Second)
		if op.to <= op.from {
			if first < n {
				rates[first] += op.work
			}
			continue
		}
		for i := first; i < n && time.Duration(i)*time.Second < op.to; i++ {
			lo := max(op.from, time.Duration(i)*time.Second)
			hi := min(op.to, time.Duration(i+1)*time.Second)
			rates[i] += op.work * float64(hi-lo) / float64(op.to-op.from)
		}
	}
	return rates
}

// opSpan is one operation's work and its interval, as offsets from the
// start of the measured window.
type opSpan struct {
	from, to time.Duration
	work     float64
}

// perCall calls f on items 0..n-1 round-robin, in whole rounds, until at
// least d has passed, and returns the mean time per call.
func perCall(d time.Duration, n int, f func(i int)) time.Duration {
	start := time.Now()
	calls := 0
	for calls == 0 || time.Since(start) < d {
		for i := 0; i < n; i++ {
			f(i)
		}
		calls += n
	}
	return time.Since(start) / time.Duration(calls)
}
