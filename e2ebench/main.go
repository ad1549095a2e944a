// Command e2ebench is the end-to-end benchmark of the repository: three
// seeded workloads run against the program from outside, and one command
// prints every metric by name with its unit, the operations attempted and
// failed, and whether every answer checked out.
//
//	go run . --workload course-explain --seed 1 --seconds 15 --trace 0
//
// Workloads: course-explain and tpch-agg call the public ratest API in
// process; classroom drives a real ratestd over loopback HTTP (--ratestd
// names its binary). With --trace 0 the run reports the end-to-end metrics;
// with --trace 1 it measures an untraced and a traced half window, reports
// the per-layer metrics from the traced half's spans, and prints the
// tracing overhead. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/pool"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is what every workload receives.
type config struct {
	seed    int64
	seconds float64
	trace   bool
	ratestd string // classroom: path of the ratestd binary
	outDir  string // where the traced run writes its spans
}

// setupRepeats is how many times a run sets up; setup_s is their median.
const setupRepeats = 3

// opTimeout bounds one library operation, as ratestd's default per-request
// budget (-default-timeout) bounds a request; an operation that runs out
// counts as failed.
const opTimeout = 10 * time.Second

// window is one timed measurement, cut into slices: one per pass for the
// library workloads, one per second for classroom.
type window struct {
	lat       []time.Duration // latency of each completed operation
	attempted int
	failed    int
	slices    []slice
	ceSizes   map[string]int
}

type slice struct {
	dur, cpu             time.Duration
	attempted, completed int
	lat                  []time.Duration
}

// throughput is the median over slices of operations completed per
// second, so that a transient stall on a shared machine moves a few slices
// rather than the figure.
func (w *window) throughput() float64 {
	var xs []float64
	for _, s := range w.slices {
		xs = append(xs, float64(s.completed)/s.dur.Seconds())
	}
	return median(xs)
}

// tailIndex is the index, in ascending order, of the highest-ranked
// sample with at least ten samples beyond it, and the percentile it stands
// at. With ten samples or fewer it is the median's.
func tailIndex(n int) (int, float64) {
	if n <= 10 {
		return (n - 1) / 2, 50
	}
	return n - 11, 100 * float64(n-10) / float64(n)
}

// percentile is the nearest-rank percentile of sorted durations, in ms.
func percentile(sorted []time.Duration, p float64) float64 {
	i := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	i = max(0, min(i, len(sorted)-1))
	return ms(sorted[i])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// median of xs; 0 for none.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// endToEnd computes the eight end-to-end metrics of a window. The median
// and the tail are over every operation; throughput, CPU per operation and
// the geometric mean are medians over the window's slices.
func endToEnd(w *window, setup []float64, peakRSSMB float64) map[string]metric {
	lat := append([]time.Duration(nil), w.lat...)
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	var cpu, geo []float64
	for _, s := range w.slices {
		if s.attempted == 0 || len(s.lat) == 0 {
			continue
		}
		cpu = append(cpu, ms(s.cpu)/float64(s.attempted))
		logSum := 0.0
		for _, d := range s.lat {
			logSum += math.Log(ms(d))
		}
		geo = append(geo, math.Exp(logSum/float64(len(s.lat))))
	}
	ceSum := 0
	for _, n := range w.ceSizes {
		ceSum += n
	}
	tail, pct := tailIndex(len(lat))
	fmt.Printf("latency: %d samples, tail reported at p%.2f; %d slices\n", len(lat), pct, len(w.slices))
	return map[string]metric{
		"setup_s":            {median(setup), "s"},
		"throughput_per_s":   {w.throughput(), "1/s"},
		"latency_p50_ms":     {percentile(lat, 50), "ms"},
		"latency_tail_ms":    {ms(lat[tail]), "ms"},
		"latency_geomean_ms": {median(geo), "ms"},
		"cpu_ms_per_op":      {median(cpu), "ms"},
		"ce_tuples_mean":     {float64(ceSum) / float64(len(w.ceSizes)), "tuples"},
		"peak_rss_mb":        {peakRSSMB, "MB"},
	}
}

// selfCPU is this process's user+system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procCPU reads a process's user+system CPU time from /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name may hold spaces; fields resume after its ')'.
	f := strings.Fields(string(b[strings.LastIndexByte(string(b), ')')+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	const ticksPerSecond = 100 // USER_HZ on Linux
	return time.Duration(ut+st) * time.Second / ticksPerSecond, nil
}

// peakRSS reads VmHWM of a process ("self" for this one) in MB.
func peakRSS(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			kb, err := strconv.ParseFloat(strings.Fields(line)[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// perLayer lists every per-layer metric with its unit. A traced run prints
// all of them; those a workload does not exercise read 0.
var perLayer = []struct{ name, unit string }{
	{"raparser.parse_ms", "ms"},
	{"engine.plan_ms", "ms"},
	{"engine.raw_eval_ms", "ms"},
	{"engine.prov_eval_ms", "ms"},
	{"engine.join_rows", "rows"},
	{"core.solver_ms", "ms"},
	{"core.self_ms", "ms"},
	{"core.models_tried", "count"},
	{"core.fallback_share", "ratio"},
	{"core.optimal_share", "ratio"},
	{"ratest.render_ms", "ms"},
	{"ratest.alloc_mb_per_op", "MB"},
	{"ratest.gc_cycles_per_op", "count"},
	{"server.grade_ms", "ms"},
	{"server.grade_core_ms", "ms"},
	{"server.revise_edit_ms", "ms"},
	{"server.revise_query_ms", "ms"},
	{"server.session_create_ms", "ms"},
	{"server.client_overhead_ms", "ms"},
	{"server.plan_cache_hit_ratio", "ratio"},
	{"server.instance_cache_hit_ratio", "ratio"},
	{"server.revisions_incremental", "count"},
	{"server.revisions_reprepare", "count"},
	{"server.revisions_fallback", "count"},
	{"core.session_update_ms", "ms"},
	{"core.session_grade_ms", "ms"},
	{"core.session_revise_query_ms", "ms"},
	{"core.session_create_ms", "ms"},
	{"setup.generate_s", "s"},
	{"setup.bank_s", "s"},
	{"setup.warmup_s", "s"},
}

// layerMetrics fills the per-layer metric map from measured values.
func layerMetrics(values map[string]float64) map[string]metric {
	out := map[string]metric{}
	for _, l := range perLayer {
		out[l.name] = metric{values[l.name], l.unit}
	}
	return out
}

// setupTimes holds one set-up's parts, in seconds, and the operations its
// warm-up attempted and failed.
type setupTimes struct {
	total, generate, bank, warmup float64
	attempted, failed             int
}

// medianSetup prints every set-up and returns their totals, the median of
// each part, and the warm-up operations of all of them, which count among
// the run's attempted and failed operations.
func medianSetup(ts []setupTimes) (total []float64, parts map[string]float64, attempted, failed int) {
	var g, b, w []float64
	for i, t := range ts {
		fmt.Printf("set-up %d: %.4f s (generate %.4f, bank %.4f, warm-up %.4f); warm-up ops %d, failed %d\n",
			i+1, t.total, t.generate, t.bank, t.warmup, t.attempted, t.failed)
		total = append(total, t.total)
		g, b, w = append(g, t.generate), append(b, t.bank), append(w, t.warmup)
		attempted, failed = attempted+t.attempted, failed+t.failed
	}
	parts = map[string]float64{"setup.generate_s": median(g), "setup.bank_s": median(b), "setup.warmup_s": median(w)}
	return total, parts, attempted, failed
}

// fingerprint prints the hash of a run's inputs and how many operations
// each group contributes, so two commits can be shown to measure the same
// inputs.
func fingerprint(hash string, groups []string, counts map[string]int) {
	var parts []string
	for _, g := range groups {
		parts = append(parts, fmt.Sprintf("%s=%d", g, counts[g]))
	}
	fmt.Printf("inputs: fingerprint %s; pairs %s\n", hash, strings.Join(parts, " "))
}

func main() {
	workload := flag.String("workload", "", "course-explain, tpch-agg or classroom")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Float64("seconds", 15, "length of the timed window")
	trace := flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	ratestd := flag.String("ratestd", "", "ratestd binary (classroom)")
	outDir := flag.String("out", ".bench_build/traces", "directory for span files")
	flag.Parse()
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, ratestd: *ratestd, outDir: *outDir}
	fmt.Printf("go %s, GOMAXPROCS=%d, NumCPU=%d, worker pool=%d\n",
		runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), pool.DefaultWorkers)

	var res *result
	var err error
	switch *workload {
	case "course-explain":
		res, err = runLibrary(cfg, courseSuite(cfg.seed))
	case "tpch-agg":
		res, err = runLibrary(cfg, tpchSuite(cfg.seed))
	case "classroom":
		res, err = runClassroom(cfg)
	default:
		err = fmt.Errorf("unknown workload %q (want course-explain, tpch-agg or classroom)", *workload)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-34s %14.4f %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
