// Command perfbench is the repository benchmark: it assembles the live
// forwarding stack in one process and drives it with a closed loop of one
// caller (HPC ranks block on every POSIX call), checks every result, and
// prints the end-to-end metrics or, with --trace 1, the per-layer ones.
//
//	bash perfbench/run.sh --workload small-8k --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The exit code is non-zero when
// any correctness check fails. See perfbench/README.md for the workloads
// and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

// instance is one assembled workload, ready to run its closed loop.
type instance interface {
	// step runs the next unit of the seeded sequence, recording into ph.
	step(ph *phase)
	digest() digest
	close()
}

// dataInstance is an instance on the forwarding data path.
type dataInstance interface {
	instance
	stack() *dataStack
}

type workload struct {
	name   string
	setups int // set-ups before the timed loop; setup_s is the median of all set-ups
	// interleave adds one set-up, built and closed at once, at the start
	// of every slot of the timed loop, so that the set-ups sample the
	// host's drifting speed over the whole run rather than one instant.
	// Only for a set-up far shorter than a slot.
	interleave bool
	// procs is GOMAXPROCS; run.sh pins the process to one CPU. The data
	// workloads keep a second P: with one, ckpt-1m slowed down two- to
	// fourfold for seconds up to whole runs, in 3 of 9 runs. The control
	// plane makes no syscalls, and a second P there only makes two threads
	// share the CPU, which puts the kernel's time slices into the remap
	// tail.
	procs int
	build func(seed uint64, rec *recorder) (instance, error)
	// update and query name what the workload's updates and queries
	// are, for the workload-specific metric names printed beside the
	// generic ones. A workload without a query name does not count its
	// queries as ops: on the control plane a query is the oracle's read
	// of the arbiter after each event, and ops are the events.
	update, query string
}

// warmup is the untimed run of the op sequence before each timed loop.
const warmup = 500 * time.Millisecond

// opSeries returns the series whose samples count as ops.
func (w *workload) opSeries(ph *phase) []*series {
	if w.query == "" {
		return []*series{ph.updates}
	}
	return []*series{ph.updates, ph.queries}
}

// ops returns the completed ops of a phase.
func (w *workload) ops(ph *phase) int64 {
	var n int64
	for _, s := range w.opSeries(ph) {
		n += s.count()
	}
	return n
}

var workloads = []workload{
	{name: "ckpt-1m", setups: 3, procs: 2, build: newCkpt, update: "write", query: "read"},
	{name: "small-8k", setups: 11, procs: 2, build: newSmall, update: "write", query: "read"},
	{name: "arbitrate-5.3", setups: 1, interleave: true, procs: 1, build: newArbitrate, update: "remap"},
}

// phase accumulates the outcome of one timed closed loop.
type phase struct {
	start             time.Time
	elapsed           time.Duration
	updates, queries  *series
	wrote, read       int64 // payload bytes
	attempted, failed int64
	errs              []string
	// before and after snapshot the data path's counters (data workloads)
	// and the Go runtime's around the timed loop.
	before, after counters
	mem           [2]runtime.MemStats
}

func newPhase(d time.Duration) *phase {
	return &phase{updates: newSeries(d), queries: newSeries(d)}
}

func (p *phase) record(into *series, t, end time.Time, err error) bool {
	if err != nil {
		p.fail(err)
		return false
	}
	p.attempted++
	into.add(since(p.start, t), since(t, end))
	return true
}

func (p *phase) update(t, end time.Time, n int64, err error) {
	if p.record(p.updates, t, end, err) {
		p.wrote += n
	}
}

func (p *phase) query(t, end time.Time, n int64, err error) {
	if p.record(p.queries, t, end, err) {
		p.read += n
	}
}

// fail counts an attempted op that failed or returned wrong data.
func (p *phase) fail(err error) {
	p.attempted++
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

// runPhase warms inst up, then steps it for d and applies the data-path
// oracle when inst has one. rec, when set, records the timed loop only.
// between, when set, runs at the start of every slot of the timed loop.
func runPhase(inst instance, d time.Duration, rec *recorder, between func()) *phase {
	warm := newPhase(warmup)
	warm.start = time.Now()
	for time.Since(warm.start) < warmup {
		inst.step(warm)
	}
	ph := newPhase(d)
	di, isData := inst.(dataInstance)
	if isData {
		ph.before = di.stack().counters()
	}
	runtime.ReadMemStats(&ph.mem[0])
	rec.start()
	ph.start = time.Now()
	for next := time.Duration(0); ; {
		at := time.Since(ph.start)
		if at >= d {
			break
		}
		if between != nil && at >= next {
			between()
			next += slot
		}
		inst.step(ph)
	}
	ph.elapsed = time.Since(ph.start)
	rec.stop()
	runtime.ReadMemStats(&ph.mem[1])
	if warm.failed > 0 {
		ph.failed += warm.failed
		ph.attempted += warm.failed
		ph.errs = append(ph.errs, warm.errs...)
	}
	if isData {
		ph.after = di.stack().counters()
		if err := di.stack().checkConservation(ph.before, ph.after, ph.wrote, ph.read); err != nil {
			ph.fail(err)
		}
	}
	return ph
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload: ckpt-1m, small-8k or arbitrate-5.3")
	seed := flag.Uint64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 10, "length of the measured closed loop")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement")
	out := flag.String("out", ".bench_build/trace", "directory for the span files of traced runs")
	flag.Parse()

	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		os.Exit(2)
	}
	d := time.Duration(*seconds) * time.Second
	runtime.GOMAXPROCS(w.procs)

	var res *result
	var err error
	if *trace == 1 {
		res, err = runTraced(w, *seed, d, *out)
	} else {
		res, err = runUntraced(w, *seed, d)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	names := make([]string, 0, len(res.Metrics))
	for k := range res.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("%-32s %14.4f %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

// report prints a phase's identity and failures and returns the result
// skeleton.
func report(w *workload, seed uint64, inst instance, ph *phase, label string) *result {
	dg := inst.digest()
	fmt.Printf("workload=%s phase=%s seed=%d ops=%d failed=%d seq_digest=%016x (first %d steps)\n",
		w.name, label, seed, ph.attempted, ph.failed, dg.h, dg.n)
	for _, e := range ph.errs {
		fmt.Printf("FAIL: %s\n", e)
	}
	return &result{Correct: ph.failed == 0, Attempted: ph.attempted, Failed: ph.failed, Metrics: map[string]metric{}}
}

// runUntraced measures the end-to-end metrics: w.setups set-ups (the last
// one is kept), then one timed closed loop, interleaved with more set-ups
// when w.interleave is set.
func runUntraced(w *workload, seed uint64, d time.Duration) (*result, error) {
	var setups []float64
	setup := func() (instance, error) {
		t := time.Now()
		inst, err := w.build(seed, nil)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t).Seconds())
		return inst, nil
	}
	var inst instance
	for i := 0; i < w.setups; i++ {
		if inst != nil {
			inst.close()
			inst = nil
		}
		runtime.GC() // each set-up before the loop starts from a collected heap
		var err error
		if inst, err = setup(); err != nil {
			return nil, err
		}
	}
	var between func()
	var betweenErr error
	if w.interleave {
		between = func() {
			extra, err := setup()
			if err != nil {
				betweenErr = err
				return
			}
			extra.close()
		}
	}
	ph := runPhase(inst, d, nil, between)
	inst.close()
	if betweenErr != nil {
		return nil, betweenErr
	}
	res := report(w, seed, inst, ph, "untraced")

	m := res.Metrics
	m["setup_s"] = metric{median(setups), "s"}
	m["update_p50_us"] = metric{ph.updates.windowedQuantile(0.50), "us"}
	m["update_p99_us"] = metric{ph.updates.windowedQuantile(0.99), "us"}
	m["query_p50_us"] = metric{ph.queries.windowedQuantile(0.50), "us"}
	m["query_p99_us"] = metric{ph.queries.windowedQuantile(0.99), "us"}
	m["ops_per_s"] = metric{windowedRate(ph.elapsed, w.opSeries(ph)...), "1/s"}
	rss, err := peakRSSMiB()
	if err != nil {
		return nil, fmt.Errorf("peak RSS: %w", err)
	}
	m["max_rss_MiB"] = metric{rss, "MiB"}
	for _, a := range []struct{ kind, generic string }{{w.update, "update"}, {w.query, "query"}} {
		if a.kind == "" {
			continue
		}
		for _, pct := range []string{"_p50_us", "_p99_us"} {
			fmt.Printf("%-32s %14.4f us (= %s)\n", a.kind+pct, m[a.generic+pct].Value, a.generic+pct)
		}
	}
	up, q := ph.updates.all(), ph.queries.all()
	secs := ph.elapsed.Seconds()
	fmt.Printf("whole run: update p50 %.1f p99 %.1f us (n=%d), query p50 %.1f p99 %.1f us (n=%d), %.1f ops/s\n",
		up.quantile(0.5), up.quantile(0.99), up.n, q.quantile(0.5), q.quantile(0.99), q.n, float64(w.ops(ph))/secs)
	if p50s := ph.updates.windowQuantiles(0.5); len(p50s) > 0 {
		sort.Float64s(p50s)
		fmt.Printf("update p50 over %d windows: best %.1f median %.1f worst %.1f us\n",
			len(p50s), p50s[0], median(p50s), p50s[len(p50s)-1])
	}
	sort.Float64s(setups)
	fmt.Printf("set-ups: n=%d min %.6f median %.6f max %.6f s\n", len(setups), setups[0], median(setups), setups[len(setups)-1])
	fmt.Printf("%-32s %14.4f MB/s\n", "throughput_MBps", float64(ph.wrote+ph.read)/secs/1e6)
	fmt.Printf("%-32s %14.4f ratio\n", "failed_ratio", float64(ph.failed)/float64(max(ph.attempted, 1)))
	return res, nil
}
