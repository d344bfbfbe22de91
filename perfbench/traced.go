package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"time"

	"repro/internal/policy"
	"repro/internal/rpc"
)

// runTraced measures the per-layer metrics. The first half of d runs the
// workload untraced (the base of trace.overhead_pct and the source of the
// runtime counters); the second half runs it again from the same seed
// with every layer boundary wrapped.
func runTraced(w *workload, seed uint64, d time.Duration, outDir string) (*result, error) {
	half := d / 2
	base, err := w.build(seed, nil)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	plain := runPhase(base, half, nil, nil)
	base.close()
	report(w, seed, base, plain, "untraced")
	runtime.GC()

	rec := newRecorder(dataIONs)
	inst, err := w.build(seed, rec)
	if err != nil {
		return nil, fmt.Errorf("traced set-up: %w", err)
	}
	ph := runPhase(inst, half, rec, nil)
	inst.close()
	res := report(w, seed, inst, ph, "traced")
	if plain.failed > 0 {
		res.Correct = false
		res.Failed += plain.failed
	}
	res.Attempted += plain.attempted
	if err := rec.write(outDir, w.name); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}

	m := res.Metrics
	for _, k := range perLayerNames {
		m[k.name] = metric{0, k.unit}
	}
	set := func(name string, v float64) { m[name] = metric{v, m[name].Unit} }

	// Runtime counters over the untraced loop.
	plainOps := float64(max(w.ops(plain), 1))
	set("runtime.allocs_per_op", float64(plain.mem[1].Mallocs-plain.mem[0].Mallocs)/plainOps)
	set("runtime.alloc_bytes_per_op", float64(plain.mem[1].TotalAlloc-plain.mem[0].TotalAlloc)/plainOps)
	set("runtime.gc_per_kop", 1000*float64(plain.mem[1].NumGC-plain.mem[0].NumGC)/plainOps)

	// Both halves are read from their best windows, as the end-to-end
	// metrics are, so that the host's drift between them cancels.
	if plainP50 := plain.updates.windowedQuantile(0.5); plainP50 > 0 {
		set("trace.overhead_pct", 100*(ph.updates.windowedQuantile(0.5)/plainP50-1))
	}
	ops := float64(max(w.ops(ph), 1))
	if arb, ok := inst.(*arbitrate); ok {
		if err := arbitrationLayers(set, rec, arb); err != nil {
			return nil, err
		}
	} else {
		dataLayers(set, rec, ph, ops)
	}

	for _, size := range []struct {
		label string
		n     int
	}{{"8k", 8 << 10}, {"512k", 512 << 10}} {
		enc, dec, err := rpcCodec(size.n)
		if err != nil {
			return nil, fmt.Errorf("rpc codec %s: %w", size.label, err)
		}
		set("rpc.encode_us."+size.label, enc)
		set("rpc.decode_us."+size.label, dec)
	}
	return res, nil
}

// dataLayers fills the data-path metrics of a traced loop.
func dataLayers(set func(string, float64), rec *recorder, ph *phase, ops float64) {
	b, a := ph.before, ph.after
	reqs := float64((a.ion.Writes + a.ion.Reads) - (b.ion.Writes + b.ion.Reads))
	meta := float64(a.ion.MetaOps - b.ion.MetaOps)
	set("fwd.spans_per_op", (float64(a.fwd.ForwardedOps-b.fwd.ForwardedOps)-meta)/ops)
	set("ion.requests_per_op", reqs/ops)
	if reqs > 0 {
		set("ion.dispatches_per_request", float64(a.ion.Dispatches-b.ion.Dispatches)/reqs)
	}

	set("tcp.calls_per_op", float64(rec.tcpReads.Load()+rec.tcpWrites.Load())/ops)
	_, tcpTotal := rec.layerDurations(layerTCP)
	set("tcp.write_us_per_op", us(tcpTotal)/ops)
	if payload := ph.wrote + ph.read; payload > 0 {
		set("tcp.wire_bytes_per_payload_byte", float64(rec.tcpReadBytes.Load()+rec.tcpWriteBytes.Load())/float64(payload))
	}

	wait, _ := rec.layerDurations(layerAgios)
	set("agios.wait_us_p50", us(sortedQuantile(wait, 0.5)))
	set("agios.wait_us_p99", us(sortedQuantile(wait, 0.99)))
	if n := rec.requests.Load(); n > 0 {
		set("agios.sched_ns_per_req", float64(rec.schedNs.Load())/float64(n))
		set("agios.merged_ratio", float64(rec.merged.Load())/float64(n))
	}

	pw, pwTotal := rec.layerDurations(layerPFSW)
	pr, prTotal := rec.layerDurations(layerPFSR)
	if len(pw) > 0 {
		set("pfs.write_us_per_call", us(pwTotal)/float64(len(pw)))
	}
	if len(pr) > 0 {
		set("pfs.read_us_per_call", us(prTotal)/float64(len(pr)))
	}
	set("pfs.busy_share", float64(pwTotal+prTotal)/float64(ph.elapsed))

	// Self times of the ops around the median: their parts sum to the
	// mean duration of those ops, which is the op p50 to within the band.
	parts := rec.partitionOps()
	sort.Slice(parts, func(i, j int) bool { return parts[i].dur < parts[j].dur })
	lo, hi := len(parts)*45/100, len(parts)*55/100+1
	if hi > len(parts) {
		hi = len(parts)
	}
	var sum partition
	for _, p := range parts[lo:hi] {
		sum.dur += p.dur
		sum.pfs += p.pfs
		sum.agios += p.agios
		sum.tcp += p.tcp
		sum.rest += p.rest
	}
	if n := float64(hi - lo); n > 0 {
		set("trace.op_p50_us", us(parts[len(parts)/2].dur))
		set("trace.band_mean_us", us(sum.dur)/n)
		set("pfs.self_us_per_op", us(sum.pfs)/n)
		set("agios.self_us_per_op", us(sum.agios)/n)
		set("tcp.self_us_per_op", us(sum.tcp)/n)
		set("fwd.remainder_us_per_op", us(sum.rest)/n)
	}
}

// arbitrationLayers fills the control-plane metrics of a traced loop.
func arbitrationLayers(set func(string, float64), rec *recorder, w *arbitrate) error {
	solve, _ := rec.layerDurations(layerSolve)
	set("policy.solve_us_p50", us(sortedQuantile(solve, 0.5)))
	set("policy.solve_us_p99", us(sortedQuantile(solve, 0.99)))

	rec.mu.Lock()
	solveOf := map[int64]int64{}
	for _, s := range rec.spans {
		if s.layer == layerSolve {
			solveOf[s.op] += s.end - s.start
		}
	}
	rec.mu.Unlock()
	self := make([]int64, 0, len(w.events))
	apply := make([]int64, 0, len(w.events))
	remap := make([]int64, 0, len(w.events))
	for _, e := range w.events {
		self = append(self, e.call-solveOf[e.op])
		apply = append(apply, e.apply)
		remap = append(remap, e.call+e.apply)
	}
	for _, xs := range [][]int64{self, apply, remap} {
		sortInt64s(xs)
	}
	set("arbiter.self_us_p50", us(sortedQuantile(self, 0.5)))
	set("mapping.apply_us_p50", us(sortedQuantile(apply, 0.5)))
	set("mapping.apply_us_p99", us(sortedQuantile(apply, 0.99)))
	set("trace.op_p50_us", us(sortedQuantile(remap, 0.5)))

	p50, p99, err := replayMCKP(rec.inputs)
	if err != nil {
		return fmt.Errorf("mckp replay: %w", err)
	}
	set("mckp.replay_us_p50", p50)
	set("mckp.replay_us_p99", p99)
	return nil
}

// replayMCKP times policy.MCKP.Allocate alone on the inputs the arbiter
// gave it, without the arbiter or the bus. Each input was solved once
// already, so an error here means the policy is not deterministic.
func replayMCKP(inputs []policyInput) (p50, p99 float64, err error) {
	if len(inputs) == 0 {
		return 0, 0, nil
	}
	var ds []int64
	start := time.Now()
	for pass := 0; pass < 5 && (pass < 1 || time.Since(start) < 300*time.Millisecond); pass++ {
		for _, in := range inputs {
			t := time.Now()
			if _, err := (policy.MCKP{}).Allocate(in.apps, in.available); err != nil {
				return 0, 0, err
			}
			ds = append(ds, int64(time.Since(t)))
		}
	}
	sortInt64s(ds)
	return us(sortedQuantile(ds, 0.5)), us(sortedQuantile(ds, 0.99)), nil
}

// rpcCodec times rpc.WriteMessage and rpc.ReadMessage of one n-byte write
// frame over an in-memory buffer and returns the median µs of each.
func rpcCodec(n int) (enc, dec float64, err error) {
	m := &rpc.Message{Op: rpc.OpWrite, Path: "/ckpt/rank00.chk", Offset: 1 << 20, Data: make([]byte, n), Trace: 7}
	var buf bytes.Buffer
	if err := rpc.WriteMessage(&buf, m); err != nil {
		return 0, 0, err
	}
	frame := append([]byte(nil), buf.Bytes()...)
	iters := 2000
	if n > 64<<10 {
		iters = 300
	}
	encs := make([]int64, 0, iters)
	decs := make([]int64, 0, iters)
	r := bytes.NewReader(frame)
	for i := 0; i < iters; i++ {
		buf.Reset()
		t := time.Now()
		err := rpc.WriteMessage(&buf, m)
		encs = append(encs, int64(time.Since(t)))
		if err != nil {
			return 0, 0, err
		}
		r.Reset(frame)
		t = time.Now()
		got, err := rpc.ReadMessage(r)
		decs = append(decs, int64(time.Since(t)))
		if err != nil {
			return 0, 0, err
		}
		if len(got.Data) != n {
			return 0, 0, fmt.Errorf("decoded %d payload bytes, encoded %d", len(got.Data), n)
		}
		got.Release()
	}
	sortInt64s(encs)
	sortInt64s(decs)
	return us(sortedQuantile(encs, 0.5)), us(sortedQuantile(decs, 0.5)), nil
}

// perLayerNames lists every per-layer metric; a workload whose layers do
// no work reports 0 for them.
var perLayerNames = []struct{ name, unit string }{
	{"fwd.spans_per_op", "count"},
	{"fwd.remainder_us_per_op", "us"},
	{"rpc.encode_us.8k", "us"},
	{"rpc.decode_us.8k", "us"},
	{"rpc.encode_us.512k", "us"},
	{"rpc.decode_us.512k", "us"},
	{"tcp.calls_per_op", "count"},
	{"tcp.write_us_per_op", "us"},
	{"tcp.wire_bytes_per_payload_byte", "ratio"},
	{"tcp.self_us_per_op", "us"},
	{"ion.requests_per_op", "count"},
	{"ion.dispatches_per_request", "count"},
	{"agios.wait_us_p50", "us"},
	{"agios.wait_us_p99", "us"},
	{"agios.sched_ns_per_req", "ns"},
	{"agios.merged_ratio", "ratio"},
	{"agios.self_us_per_op", "us"},
	{"pfs.write_us_per_call", "us"},
	{"pfs.read_us_per_call", "us"},
	{"pfs.busy_share", "ratio"},
	{"pfs.self_us_per_op", "us"},
	{"runtime.allocs_per_op", "count"},
	{"runtime.alloc_bytes_per_op", "B"},
	{"runtime.gc_per_kop", "count"},
	{"policy.solve_us_p50", "us"},
	{"policy.solve_us_p99", "us"},
	{"mckp.replay_us_p50", "us"},
	{"mckp.replay_us_p99", "us"},
	{"arbiter.self_us_p50", "us"},
	{"mapping.apply_us_p50", "us"},
	{"mapping.apply_us_p99", "us"},
	{"trace.op_p50_us", "us"},
	{"trace.band_mean_us", "us"},
	{"trace.overhead_pct", "%"},
}
