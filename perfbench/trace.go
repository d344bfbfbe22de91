package main

import (
	"bufio"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/agios"
	"repro/internal/ion"
	"repro/internal/policy"
)

// Span layers. The data-path partition attributes each instant of an op
// to the first of pfs, agios, tcp whose span covers it, and the rest to
// the op itself (the fwd client, the rpc client, loopback and handoffs).
const (
	layerOp     = "op"
	layerAgios  = "agios.wait"
	layerPFSW   = "pfs.write"
	layerPFSR   = "pfs.read"
	layerTCP    = "tcp.write"
	layerSolve  = "policy.solve"
	layerArbSvc = "arbiter"
	layerApply  = "mapping.apply"
)

// span is one timed interval at a layer boundary. op is the id of the
// op span the interval belongs to; parent is the span that caused it.
type span struct {
	id, parent, op int64
	layer          string
	start, end     int64 // ns since the recorder's t0
}

// recorder collects the spans and boundary counters of a traced run.
// Its methods are safe on a nil recorder, which records nothing, so the
// workloads call them unconditionally.
type recorder struct {
	t0     time.Time
	on     atomic.Bool  // recording only during the timed phase
	nextID atomic.Int64 // span ids
	cur    atomic.Int64 // id of the op span in flight (one caller)

	mu    sync.Mutex
	spans []span

	tcpReads, tcpWrites         atomic.Int64
	tcpReadBytes, tcpWriteBytes atomic.Int64
	schedNs, requests, merged   atomic.Int64

	// lastPop holds, per ION, the agios span of the request its
	// dispatcher popped last: the parent of the pfs call that follows.
	lastPop []atomic.Int64

	// inputs keeps the policy inputs seen, for the isolated replay.
	inputs []policyInput
}

type policyInput struct {
	apps      []policy.Application
	available int
}

const maxReplayInputs = 4096

func newRecorder(ions int) *recorder {
	return &recorder{t0: time.Now(), spans: make([]span, 0, 1<<16), lastPop: make([]atomic.Int64, ions)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// start begins recording: spans and counters before it are dropped.
func (r *recorder) start() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = r.spans[:0]
	r.mu.Unlock()
	for _, c := range []*atomic.Int64{&r.tcpReads, &r.tcpWrites, &r.tcpReadBytes, &r.tcpWriteBytes, &r.schedNs, &r.requests, &r.merged} {
		c.Store(0)
	}
	r.on.Store(true)
}

func (r *recorder) stop() {
	if r != nil {
		r.on.Store(false)
	}
}

func (r *recorder) active() bool { return r != nil && r.on.Load() }

// beginOp opens an op span and makes it the parent of everything the
// layers record until the next beginOp.
func (r *recorder) beginOp() int64 {
	if !r.active() {
		return 0
	}
	id := r.nextID.Add(1)
	r.cur.Store(id)
	return id
}

// add records a finished span and returns its id.
func (r *recorder) add(layer string, parent, op int64, start, end int64) int64 {
	if !r.active() {
		return 0
	}
	id := r.nextID.Add(1)
	r.mu.Lock()
	r.spans = append(r.spans, span{id: id, parent: parent, op: op, layer: layer, start: start, end: end})
	r.mu.Unlock()
	return id
}

// endOp closes the op span opened by beginOp.
func (r *recorder) endOp(id int64, start, end time.Time) {
	if !r.active() || id == 0 {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, span{id: id, op: id, layer: layerOp, start: since(r.t0, start), end: since(r.t0, end)})
	r.mu.Unlock()
}

// maxWrittenSpans caps the span file: the first spans of the timed loop
// are written, and every span still counts in the metrics.
const maxWrittenSpans = 200000

// write saves the spans as tab-separated lines to dir/name.tsv.
func (r *recorder) write(dir, name string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, name+".tsv"))
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "id\tparent\top\tlayer\tstart_ns\tend_ns")
	r.mu.Lock()
	for _, s := range r.spans[:min(len(r.spans), maxWrittenSpans)] {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%d\t%d\n", s.id, s.parent, s.op, s.layer, s.start, s.end)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// --- layer wrappers, built only from the interfaces the program takes ---

// tracedScheduler wraps an agios.Scheduler. The queue calls it under its
// own lock, so Push and Pop never run concurrently for one ION.
type tracedScheduler struct {
	agios.Scheduler
	rec *recorder
	ion int
}

func (s *tracedScheduler) Push(q *agios.Request) {
	t := time.Now()
	s.Scheduler.Push(q)
	if s.rec.active() {
		s.rec.schedNs.Add(int64(time.Since(t)))
		s.rec.requests.Add(1)
	}
}

func (s *tracedScheduler) Pop() (*agios.Request, bool) {
	t := time.Now()
	q, ok := s.Scheduler.Pop()
	end := time.Now()
	if !s.rec.active() {
		return q, ok
	}
	s.rec.schedNs.Add(int64(end.Sub(t)))
	if !ok {
		return q, ok
	}
	if len(q.Children) > 0 {
		s.rec.merged.Add(int64(len(q.Children)))
	}
	// Arrival is stamped by the queue just before Push; the span runs
	// until the dispatcher holds the request.
	op := s.rec.cur.Load()
	id := s.rec.add(layerAgios, op, op, since(s.rec.t0, q.Arrival), since(s.rec.t0, end))
	s.rec.lastPop[s.ion].Store(id)
	return q, ok
}

// tracedBackend wraps an ion.Backend (the PFS as an ION sees it).
type tracedBackend struct {
	ion.Backend
	rec *recorder
	ion int
}

func (b *tracedBackend) WriteAs(writer, path string, off int64, p []byte) (int, error) {
	t := b.rec.now()
	n, err := b.Backend.WriteAs(writer, path, off, p)
	b.rec.add(layerPFSW, b.rec.lastPop[b.ion].Load(), b.rec.cur.Load(), t, b.rec.now())
	return n, err
}

func (b *tracedBackend) Read(path string, off int64, p []byte) (int, error) {
	t := b.rec.now()
	n, err := b.Backend.Read(path, off, p)
	b.rec.add(layerPFSR, b.rec.lastPop[b.ion].Load(), b.rec.cur.Load(), t, b.rec.now())
	return n, err
}

// tracedListener wraps each accepted daemon connection. The wrapper hides
// the connection's vectored write, so a frame the program sends with one
// writev reaches the socket as one write per segment while tracing: the
// tcp counters count calls at the net.Conn boundary.
type tracedListener struct {
	net.Listener
	rec *recorder
}

func (l *tracedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &tracedConn{Conn: c, rec: l.rec}, nil
}

type tracedConn struct {
	net.Conn
	rec *recorder
}

// Read is counted but not timed: the daemon's read of the next request
// blocks while the caller is idle.
func (c *tracedConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.rec.active() {
		c.rec.tcpReads.Add(1)
		c.rec.tcpReadBytes.Add(int64(n))
	}
	return n, err
}

func (c *tracedConn) Write(p []byte) (int, error) {
	op := c.rec.cur.Load()
	t := c.rec.now()
	n, err := c.Conn.Write(p)
	if c.rec.active() {
		c.rec.tcpWrites.Add(1)
		c.rec.tcpWriteBytes.Add(int64(n))
		c.rec.add(layerTCP, op, op, t, c.rec.now())
	}
	return n, err
}

// tracedPolicy wraps the arbiter's policy: it times each solve and keeps
// the inputs for the isolated replay.
type tracedPolicy struct {
	policy.Policy
	rec *recorder
}

func (p *tracedPolicy) Allocate(apps []policy.Application, available int) (policy.Allocation, error) {
	t := p.rec.now()
	alloc, err := p.Policy.Allocate(apps, available)
	end := p.rec.now()
	if p.rec.active() {
		op := p.rec.cur.Load()
		p.rec.add(layerSolve, op, op, t, end)
		p.rec.mu.Lock()
		if len(p.rec.inputs) < maxReplayInputs {
			p.rec.inputs = append(p.rec.inputs, policyInput{apps: append([]policy.Application(nil), apps...), available: available})
		}
		p.rec.mu.Unlock()
	}
	return alloc, err
}

// --- analysis ---

// partition is the data-path attribution of one op: each instant of the
// op goes to the first layer (pfs, agios, tcp) with a span covering it,
// or to the remainder. The parts sum to the op's duration.
type partition struct {
	dur, pfs, agios, tcp, rest int64
}

// partitionOps attributes every op span of the recording.
func (r *recorder) partitionOps() []partition {
	r.mu.Lock()
	defer r.mu.Unlock()
	spans := r.spans
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].op != spans[j].op {
			return spans[i].op < spans[j].op
		}
		return spans[i].layer == layerOp && spans[j].layer != layerOp
	})
	var out []partition
	for i := 0; i < len(spans); {
		j := i
		for j < len(spans) && spans[j].op == spans[i].op {
			j++
		}
		if spans[i].layer == layerOp && spans[i].op != 0 {
			out = append(out, attribute(spans[i], spans[i+1:j]))
		}
		i = j
	}
	return out
}

func attribute(op span, children []span) partition {
	p := partition{dur: op.end - op.start}
	cuts := []int64{op.start, op.end}
	for _, c := range children {
		if c.start > op.start && c.start < op.end {
			cuts = append(cuts, c.start)
		}
		if c.end > op.start && c.end < op.end {
			cuts = append(cuts, c.end)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })
	for k := 0; k+1 < len(cuts); k++ {
		a, b := cuts[k], cuts[k+1]
		if b == a {
			continue
		}
		best := 0 // 0 rest, 1 tcp, 2 agios, 3 pfs
		for _, c := range children {
			if c.start <= a && c.end >= b {
				if rank := layerRank(c.layer); rank > best {
					best = rank
				}
			}
		}
		switch best {
		case 3:
			p.pfs += b - a
		case 2:
			p.agios += b - a
		case 1:
			p.tcp += b - a
		default:
			p.rest += b - a
		}
	}
	return p
}

func layerRank(layer string) int {
	switch layer {
	case layerPFSW, layerPFSR:
		return 3
	case layerAgios:
		return 2
	case layerTCP:
		return 1
	}
	return 0
}

// layerDurations returns the sorted durations and the total of every span
// of one layer.
func (r *recorder) layerDurations(layer string) (sorted []int64, total int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, s := range r.spans {
		if s.layer == layer {
			sorted = append(sorted, s.end-s.start)
			total += s.end - s.start
		}
	}
	sortInt64s(sorted)
	return sorted, total
}
