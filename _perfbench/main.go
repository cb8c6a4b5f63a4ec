// Command perfbench is the repository's benchmark. It runs a named
// workload, or all three in turn, for a fixed time each, checks that every
// run is correct, and prints the metrics BENCHMARK.json declares: the
// end-to-end metrics on an untraced run, or, with -trace 1, the per-layer
// metrics from a run that alternates untraced and traced repeats and then
// times the per-layer drivers. The last line of standard output is one
// JSON object.
//
// Usage, from the repository root:
//
//	python3 _perfbench/run.py --workload scale256 --seed 1 --seconds 30 --trace 0
//
// run.py builds this package and passes the arguments on. WORKLOADS.md
// records why each workload was chosen and which metric each layer moves.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"rollrec/internal/trace"
)

func main() {
	name := flag.String("workload", "all", "workload to run: scale256, traffic8, explore3, or all of them in turn")
	seed := flag.Int64("seed", 1, "input seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 10, "how long to keep repeating each workload")
	traced := flag.Int("trace", 0, "0 reports the end-to-end metrics, 1 the per-layer metrics of a traced run")
	spec := flag.String("spec", "BENCHMARK.json", "benchmark description declaring the metrics and their units")
	traceDir := flag.String("trace-dir", filepath.Join(".bench_build", "perfbench"), "directory the traced run writes its spans to")
	flag.Parse()

	if err := mainErr(*name, *seed, *seconds, *traced, *spec, *traceDir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds, traced int, specPath, traceDir string) error {
	ws := scenarios
	if name != "all" {
		w, err := lookupScenario(name)
		if err != nil {
			return err
		}
		ws = []scenario{w}
	}
	if seconds < 1 {
		return fmt.Errorf("-seconds %d: must be at least 1", seconds)
	}
	if traced != 0 && traced != 1 {
		return fmt.Errorf("-trace %d: must be 0 or 1", traced)
	}
	spec, err := loadSpec(specPath)
	if err != nil {
		return err
	}
	catalog := spec.EndToEnd
	if traced == 1 {
		catalog = spec.PerLayer
	}

	// With every workload in one process, the combined last line prefixes
	// each metric with its workload's name.
	total := result{correct: true}
	combined := map[string]metricValue{}
	for i, w := range ws {
		if i > 0 {
			// Hand the previous workload's heap back to the kernel, so its
			// retained memory does not count in this one's peak_rss_mb.
			debug.FreeOSMemory()
		}
		res, vals, err := runScenario(w, seed, seconds, traced == 1, catalog, traceDir)
		if err != nil {
			return err
		}
		line, err := encodeResult(res, vals)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
		total.correct = total.correct && res.correct
		total.attempted += res.attempted
		total.failed += res.failed
		for k, v := range vals {
			combined[w.name+"."+k] = v
		}
	}
	if len(ws) > 1 {
		line, err := encodeResult(total, combined)
		if err != nil {
			return err
		}
		fmt.Println(string(line))
	}
	return nil
}

// runScenario runs one workload until its deadline, prints its
// human-readable lines, writes a traced run's spans, and returns its
// result with the catalog's metrics.
func runScenario(w scenario, seed int64, seconds int, traced bool, catalog []metricDef, traceDir string) (result, map[string]metricValue, error) {
	b := &bench{w: w, seed: seed, deadline: time.Now().Add(time.Duration(seconds) * time.Second)}
	if traced {
		b.spans = newSpanLog()
	}
	res := b.run(context.Background(), traced)

	fmt.Printf("perfbench %s seed=%d repeats=%d events=%d attempted=%d failed=%d\n",
		w.name, seed, len(b.reps), b.reps[0].o.events, res.attempted, res.failed)
	for i, rp := range b.reps {
		fmt.Printf("repeat %d traced=%v setup_s=%.6f wall_s=%.4f cpu_s=%.4f peak_rss_mb=%.1f\n",
			i, rp.traced != nil, rp.setupS, rp.region.wallS, rp.region.cpuS, rp.peakRSSMB)
	}
	for _, f := range res.failures {
		fmt.Println("FAIL", f)
	}
	if traced {
		path, err := writeTrace(traceDir, b.traceFile())
		if err != nil {
			return res, nil, fmt.Errorf("writing trace: %w", err)
		}
		fmt.Println("trace:", path)
	}
	vals, err := res.catalogValues(catalog)
	return res, vals, err
}

// benchSpec is the part of BENCHMARK.json this program reads.
type benchSpec struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	blob, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading benchmark description: %w", err)
	}
	if err := json.Unmarshal(blob, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(s.EndToEnd) == 0 || len(s.PerLayer) == 0 {
		return s, fmt.Errorf("%s declares no metrics", path)
	}
	return s, nil
}

// minMeasured is the fewest measured repeats a run makes. Repeat 0 comes
// first as a warm-up: it is checked like every repeat and is the
// reference the others must agree with, but its timings are not reported,
// so lazy initialisation and first heap growth stay out of the figures.
const minMeasured = 2

// bench is one invocation: a workload repeated until the deadline.
type bench struct {
	w        scenario
	seed     int64
	deadline time.Time
	spans    *spanLog
	root     int
	reps     []repeat
	drivers  map[string]float64
}

// repeat is one set-up, timed region, check and readout of the workload.
type repeat struct {
	traced *kindTracer // nil for untraced repeats
	// setupS is the mean host time of one set-up.
	setupS float64
	newS   []float64
	region timedRegion
	checkS float64
	// peakRSSMB is the resident-set high-water mark of this repeat's
	// set-ups and run.
	peakRSSMB float64
	o         outcome
	// disagrees describes how this repeat differs from repeat 0; it is
	// empty when the two agree.
	disagrees string
}

// run repeats the workload until the deadline, with at least minMeasured
// measured repeats after the warm-up. A traced invocation alternates
// untraced and traced measured repeats, always in pairs, and then times
// the per-layer drivers.
func (b *bench) run(ctx context.Context, traced bool) result {
	b.root = b.spans.begin("bench:"+b.w.name, 0)
	b.reps = append(b.reps, b.repeatOnce(ctx, nil, traced))
	for m := 0; m < minMeasured || time.Now().Before(b.deadline) || (traced && m%2 == 1); m++ {
		var kt *kindTracer
		if traced && m%2 == 1 {
			kt = newKindTracer()
		}
		b.reps = append(b.reps, b.repeatOnce(ctx, kt, traced))
	}
	if traced {
		id := b.spans.begin("drivers", b.root)
		b.drivers = runDrivers(b.reps[0].o.shape, b.spans, id)
		b.spans.end(id)
	}
	b.spans.end(b.root)
	return b.result(traced)
}

func (b *bench) repeatOnce(ctx context.Context, kt *kindTracer, watchHeap bool) repeat {
	rp := repeat{traced: kt}
	var tr trace.Tracer
	if kt != nil {
		tr = kt
	}
	parent := b.spans.begin(fmt.Sprintf("repeat:%d", len(b.reps)), b.root)
	defer b.spans.end(parent)

	runtime.GC()
	if err := resetPeakRSS(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: peak_rss_mb covers the whole process:", err)
	}
	// The set-ups run back to back, as the explorer builds its branches:
	// one sample is their mean, so collections are charged as they fall.
	var r run
	id := b.spans.begin("setup", parent)
	reg := timeRegion(func() {
		for i := 0; i < b.w.setups; i++ {
			r = b.w.setup(b.seed, tr)
			rp.newS = append(rp.newS, r.newSeconds())
		}
	}, false)
	b.spans.end(id)
	rp.setupS = reg.wallS / float64(b.w.setups)

	id = b.spans.begin("run", parent)
	rp.region = timeRegion(func() { r.exec(ctx) }, watchHeap)
	rp.peakRSSMB = peakRSSMB()
	b.spans.end(id)

	id = b.spans.begin("check", parent)
	start := time.Now()
	rp.o = r.check()
	rp.checkS = time.Since(start).Seconds()
	b.spans.end(id)

	id = b.spans.begin("readout", parent)
	r.readout(&rp.o)
	b.spans.end(id)

	if len(b.reps) > 0 && rp.o.fingerprint != b.reps[0].o.fingerprint {
		rp.disagrees = fmt.Sprintf("repeat %d (traced=%v) disagrees with repeat 0 on events or digests (%d vs %d events)",
			len(b.reps), kt != nil, rp.o.events, b.reps[0].o.events)
	}
	return rp
}

// result is what one invocation reports.
type result struct {
	correct           bool
	attempted, failed int
	// failures lists each distinct failed check with its count.
	failures []string
	metrics  map[string]float64
}

// The operations of an invocation are those of one pass over the workload,
// each counted once: repeat 0's checked runs or branches, plus one more
// operation, that every later repeat agrees with repeat 0. The later
// repeats re-execute the same operations for timing, so attempted and
// failed depend only on the workload and seed, not on how many repeats
// fitted into the run.
func (b *bench) result(traced bool) result {
	res := result{correct: true, metrics: map[string]float64{}}
	ref := b.reps[0].o
	res.attempted = ref.ops + 1
	res.failed = ref.failed
	count := map[string]int{}
	failedBy := map[string]int{}
	for _, f := range ref.failures {
		count[f]++
	}
	for k, v := range ref.failedBy {
		failedBy[k] = v
	}
	var untraced, tracedReps []repeat
	for i, rp := range b.reps {
		if rp.disagrees != "" {
			count["repeat_agree: "+rp.disagrees]++
			if failedBy["repeat_agree"] == 0 {
				failedBy["repeat_agree"] = 1
				res.failed++
			}
		}
		switch {
		case i == 0:
		case rp.traced != nil:
			tracedReps = append(tracedReps, rp)
		default:
			untraced = append(untraced, rp)
		}
	}
	for f, n := range count {
		res.failures = append(res.failures, fmt.Sprintf("%s (x%d)", f, n))
	}
	sort.Strings(res.failures)
	if failedBy["repeat_agree"] > 0 {
		res.correct = false
	}

	m := res.metrics
	var setups, walls, rss []float64
	for _, rp := range b.reps[1:] {
		setups = append(setups, rp.setupS)
		rss = append(rss, rp.peakRSSMB)
	}
	for _, rp := range untraced {
		walls = append(walls, rp.region.wallS)
	}
	if !traced {
		m["wall_s"] = median(walls)
		m["setup_s"] = median(setups)
		m["peak_rss_mb"] = median(rss)
		return res
	}

	for k, v := range b.reps[0].o.vals {
		m[k] = v
	}
	for k, v := range b.drivers {
		m[k] = v
	}
	for k, n := range failedBy {
		m["check.failed_"+k] = float64(n)
	}
	m["failed_share"] = ratio(int64(res.failed), int64(res.attempted))
	b.runtimeMetrics(m, untraced)

	var tracedWalls []float64
	for _, rp := range tracedReps {
		tracedWalls = append(tracedWalls, rp.region.wallS)
	}
	if w := median(walls); w > 0 {
		m["trace.overhead_share"] = median(tracedWalls)/w - 1
	}
	kt := tracedReps[0].traced
	for _, k := range eventKinds {
		m["trace.events_"+metricName(k)] = float64(kt.count[k])
	}
	for _, k := range spanKinds {
		m["trace.vtime_ms_"+metricName(k)] = nsToMs(kt.vtime[k])
	}
	return res
}

// runtimeMetrics adds the Go runtime and harness-layer accounting of the
// untraced repeats.
func (b *bench) runtimeMetrics(m map[string]float64, reps []repeat) {
	var gc, cpu, newS, checkS []float64
	var allocBytes, allocs uint64
	var events int64
	ops := 0
	peakHeap := 0.0
	spec := map[string][]float64{}
	for _, rp := range reps {
		gc = append(gc, rp.region.gcShare)
		cpu = append(cpu, rp.region.cpuS)
		newS = append(newS, rp.newS...)
		checkS = append(checkS, rp.checkS)
		allocBytes += rp.region.allocBytes
		allocs += rp.region.allocs
		events += rp.o.events
		ops += rp.o.ops
		peakHeap = math.Max(peakHeap, rp.region.peakHeapMB)
		for k, v := range rp.o.specWall {
			spec[k] = append(spec[k], v)
		}
	}
	m["runtime.gc_cpu_share"] = median(gc)
	m["runtime.cpu_s"] = median(cpu)
	m["runtime.peak_heap_mb"] = peakHeap
	m["runtime.alloc_bytes_per_event"] = ratio(int64(allocBytes), events)
	m["runtime.allocs_per_event"] = ratio(int64(allocs), events)
	m["runtime.alloc_bytes_per_op"] = ratio(int64(allocBytes), int64(ops))
	m["runtime.allocs_per_op"] = ratio(int64(allocs), int64(ops))
	m["cluster.new_s"] = median(newS)
	m["cluster.check_s"] = median(checkS)
	if len(spec) > 0 {
		total := 0.0
		for _, s := range exploreSpecs(b.seed) {
			v := median(spec[specName(s)])
			m["explore."+specName(s)+"_s"] = v
			total += v
		}
		if br := b.reps[0].o.vals["explore.branches"]; br > 0 {
			m["explore.branch_ms"] = total / br * 1000
		}
	}
}

// traceFile collects the traced run's host spans and the event totals of
// its first traced repeat.
func (b *bench) traceFile() traceFile {
	f := traceFile{Workload: b.w.name, Seed: b.seed, Spans: b.spans.spans, Events: map[string]kindTotal{}}
	for _, rp := range b.reps {
		if rp.traced == nil {
			continue
		}
		for _, k := range eventKinds {
			f.Events[k] = kindTotal{Count: rp.traced.count[k], VTimeMS: nsToMs(rp.traced.vtime[k])}
		}
		break
	}
	return f
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// catalogValues returns every metric the catalog declares, with its unit.
// A metric the run measured but the catalog does not declare is an error,
// so the program and BENCHMARK.json cannot drift apart.
func (res result) catalogValues(catalog []metricDef) (map[string]metricValue, error) {
	declared := map[string]bool{}
	vals := map[string]metricValue{}
	for _, d := range catalog {
		declared[d.Name] = true
		v := res.metrics[d.Name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not a number", d.Name)
		}
		vals[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	var undeclared []string
	for k := range res.metrics {
		if !declared[k] {
			undeclared = append(undeclared, k)
		}
	}
	if len(undeclared) > 0 {
		sort.Strings(undeclared)
		return nil, errors.New("metrics missing from the benchmark description: " + strings.Join(undeclared, ", "))
	}
	return vals, nil
}

// encodeResult renders a result line: the JSON object the benchmark's
// caller reads from the last line of standard output.
func encodeResult(res result, vals map[string]metricValue) ([]byte, error) {
	return json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.correct, res.attempted, res.failed, vals})
}
