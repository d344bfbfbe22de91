package main

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"net"
	"time"

	"repro/internal/agios"
	"repro/internal/fwd"
	"repro/internal/ion"
	"repro/internal/pfs"
)

const (
	dataIONs = 2
	poolSize = 1 // connections per ION: with 2 IONs, at most 2 TCP connections
)

// dataStack is the forwarding data path: one fwd client over dataIONs
// AGIOS-scheduled daemons on loopback, all over one shared PFS store. All
// opt-in defenses keep their zero-value defaults.
type dataStack struct {
	store   *pfs.Store
	daemons []*ion.Daemon
	client  *fwd.Client
}

// newDataStack assembles the stack; a non-nil rec wraps the scheduler,
// backend and listener of every daemon.
func newDataStack(app string, rec *recorder) (*dataStack, error) {
	st := &dataStack{store: pfs.NewStore(pfs.Config{})}
	addrs := make([]string, 0, dataIONs)
	for i := 0; i < dataIONs; i++ {
		sched, err := agios.NewByName("AIOLI")
		if err != nil {
			st.close()
			return nil, err
		}
		var backend ion.Backend = st.store
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			st.close()
			return nil, fmt.Errorf("listen: %w", err)
		}
		if rec != nil {
			sched = &tracedScheduler{Scheduler: sched, rec: rec, ion: i}
			backend = &tracedBackend{Backend: backend, rec: rec, ion: i}
			ln = &tracedListener{Listener: ln, rec: rec}
		}
		d := ion.New(ion.Config{ID: fmt.Sprintf("ion%d", i), Scheduler: sched}, backend)
		addr, err := d.StartOn(ln)
		if err != nil {
			st.close()
			return nil, fmt.Errorf("start ion%d: %w", i, err)
		}
		st.daemons = append(st.daemons, d)
		addrs = append(addrs, addr)
	}
	c, err := fwd.NewClient(fwd.Config{AppID: app, Direct: st.store, PoolSize: poolSize})
	if err != nil {
		st.close()
		return nil, err
	}
	c.SetIONs(addrs)
	st.client = c
	return st, nil
}

func (st *dataStack) close() {
	if st.client != nil {
		st.client.Close()
	}
	for _, d := range st.daemons {
		d.Close()
	}
}

// counters is a snapshot of every layer's own byte and op counters.
type counters struct {
	fwd fwd.Stats
	ion ion.Stats // summed over the daemons
	pfs pfs.Metrics
}

func (st *dataStack) counters() counters {
	c := counters{fwd: st.client.Stats(), pfs: st.store.Metrics()}
	for _, d := range st.daemons {
		s := d.Stats()
		c.ion.Writes += s.Writes
		c.ion.Reads += s.Reads
		c.ion.MetaOps += s.MetaOps
		c.ion.BytesIn += s.BytesIn
		c.ion.BytesOut += s.BytesOut
		c.ion.Dispatches += s.Dispatches
	}
	return c
}

// checkConservation is the data-path oracle over a timed phase: every
// payload byte the client sent is the byte the daemons took in and the
// PFS wrote (likewise for reads), and nothing fell back to the direct
// PFS path.
func (st *dataStack) checkConservation(before, after counters, wrote, read int64) error {
	out := after.fwd.BytesOut - before.fwd.BytesOut
	in := after.ion.BytesIn - before.ion.BytesIn
	pw := after.pfs.BytesWritten - before.pfs.BytesWritten
	if out != wrote || in != wrote || pw != wrote {
		return fmt.Errorf("write bytes not conserved: issued %d, fwd out %d, ion in %d, pfs written %d", wrote, out, in, pw)
	}
	fin := after.fwd.BytesIn - before.fwd.BytesIn
	iout := after.ion.BytesOut - before.ion.BytesOut
	pr := after.pfs.BytesRead - before.pfs.BytesRead
	if fin != read || iout != read || pr != read {
		return fmt.Errorf("read bytes not conserved: issued %d, fwd in %d, ion out %d, pfs read %d", read, fin, iout, pr)
	}
	if s := after.fwd; s.DirectOps != 0 || s.FailoverOps != 0 || s.DegradedOps != 0 {
		return fmt.Errorf("ops left the forwarding path: direct %d, failover %d, degraded %d", s.DirectOps, s.FailoverOps, s.DegradedOps)
	}
	return nil
}

// tape is seeded filler that block contents are cut from, so a block's
// expected bytes are a slice of it and cost nothing to produce.
func newTape(seed uint64, n int) []byte {
	r := rand.New(rand.NewPCG(seed, 0x7a7e))
	b := make([]byte, n)
	for i := 0; i+8 <= n; i += 8 {
		v := r.Uint64()
		for k := 0; k < 8; k++ {
			b[i+k] = byte(v >> (8 * k))
		}
	}
	return b
}

// cut returns the size-byte window of tape for a (unit, generation) pair.
func cut(tape []byte, size int, unit, gen uint64) []byte {
	h := (unit+1)*0x9e3779b97f4a7c15 ^ (gen+1)*0xc2b2ae3d27d4eb4f
	h ^= h >> 29
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 32
	off := int(h % uint64(len(tape)-size))
	return tape[off : off+size]
}

// digest folds the first digestOps op descriptors of a run into a
// fingerprint printed with the op count: the same seed gives the same one.
type digest struct {
	h, n uint64
}

const digestOps = 64

func (d *digest) add(vals ...uint64) {
	if d.n >= digestOps {
		return
	}
	d.n++
	if d.h == 0 {
		d.h = 0xcbf29ce484222325
	}
	for _, v := range vals {
		d.h = (d.h ^ v) * 0x100000001b3
	}
}

// --- ckpt-1m: file-per-process checkpoint/restart ---

const (
	ckptFiles    = 64
	ckptFileSize = 8 << 20
	ckptIO       = 1 << 20
	ckptBlocks   = ckptFileSize / ckptIO
)

type ckpt struct {
	st   *dataStack
	rec  *recorder
	rng  *rand.Rand
	tape []byte
	gen  [ckptFiles]uint64
	next int
	buf  []byte
	dig  digest
}

func ckptPath(f int) string { return fmt.Sprintf("/ckpt/rank%02d.chk", f) }

func newCkpt(seed uint64, rec *recorder) (instance, error) {
	st, err := newDataStack("ckpt", rec)
	if err != nil {
		return nil, err
	}
	w := &ckpt{
		st:   st,
		rec:  rec,
		rng:  rand.New(rand.NewPCG(seed, 1)),
		tape: newTape(seed, 2*ckptIO),
		buf:  make([]byte, ckptIO),
	}
	for f := 0; f < ckptFiles; f++ {
		if err := w.writeFile(f, nil); err != nil {
			st.close()
			return nil, fmt.Errorf("populate: %w", err)
		}
	}
	w.next = w.rng.IntN(ckptFiles)
	return w, nil
}

func (w *ckpt) close() { w.st.close() }

func (w *ckpt) stack() *dataStack { return w.st }

func (w *ckpt) digest() digest { return w.dig }

// writeFile re-creates file f as its next generation, appended in ckptIO
// writes. ph, when set, times each write.
func (w *ckpt) writeFile(f int, ph *phase) error {
	w.gen[f]++
	path := ckptPath(f)
	if err := w.st.client.Create(path); err != nil {
		err = fmt.Errorf("create %s: %w", path, err)
		if ph != nil {
			ph.fail(err)
		}
		return err
	}
	for k := 0; k < ckptBlocks; k++ {
		p := cut(w.tape, ckptIO, uint64(f*ckptBlocks+k), w.gen[f])
		t := time.Now()
		id := w.rec.beginOp()
		n, err := w.st.client.Write(path, int64(k*ckptIO), p)
		end := time.Now()
		w.rec.endOp(id, t, end)
		if err == nil && n != len(p) {
			err = fmt.Errorf("short write %d of %d", n, len(p))
		}
		if ph != nil {
			ph.update(t, end, int64(n), err)
		}
		if err != nil {
			return fmt.Errorf("write %s@%d: %w", path, k*ckptIO, err)
		}
	}
	return nil
}

// step runs one checkpoint/restart cycle: rewrite the next file, then
// read back a seeded-random other file and verify every block.
func (w *ckpt) step(ph *phase) {
	f := w.next
	w.next = (w.next + 1) % ckptFiles
	r := (f + 1 + w.rng.IntN(ckptFiles-1)) % ckptFiles
	w.dig.add(uint64(f), uint64(r))
	if err := w.writeFile(f, ph); err != nil {
		return // counted by ph
	}
	path := ckptPath(r)
	for k := 0; k < ckptBlocks; k++ {
		t := time.Now()
		id := w.rec.beginOp()
		n, err := w.st.client.Read(path, int64(k*ckptIO), w.buf)
		end := time.Now()
		w.rec.endOp(id, t, end)
		if err == nil && !bytes.Equal(w.buf[:n], cut(w.tape, ckptIO, uint64(r*ckptBlocks+k), w.gen[r])) {
			err = fmt.Errorf("read %s@%d: content differs from generation %d", path, k*ckptIO, w.gen[r])
		}
		ph.query(t, end, int64(n), err)
	}
}

// --- small-8k: small random overwrites and reads in one cached file ---

const (
	smallPath     = "/small/data"
	smallFileSize = 4 << 20
	smallIO       = 8 << 10
	smallBlocks   = smallFileSize / smallIO
	smallWrites   = 0.7
	smallFill     = 512 << 10
)

type small struct {
	st   *dataStack
	rec  *recorder
	rng  *rand.Rand
	tape []byte
	gen  [smallBlocks]uint64 // shadow: last-written generation per block
	buf  []byte
	dig  digest
}

func newSmall(seed uint64, rec *recorder) (instance, error) {
	st, err := newDataStack("small", rec)
	if err != nil {
		return nil, err
	}
	w := &small{
		st:   st,
		rec:  rec,
		rng:  rand.New(rand.NewPCG(seed, 2)),
		tape: newTape(seed, 1<<20),
		buf:  make([]byte, smallIO),
	}
	if err := st.client.Create(smallPath); err != nil {
		st.close()
		return nil, err
	}
	// One pass of 512 KiB appends (one chunk each) fills the file.
	fill := make([]byte, 0, smallFileSize)
	for b := 0; b < smallBlocks; b++ {
		w.gen[b] = 1
		fill = append(fill, cut(w.tape, smallIO, uint64(b), 1)...)
	}
	for off := 0; off < smallFileSize; off += smallFill {
		if n, err := st.client.Write(smallPath, int64(off), fill[off:off+smallFill]); err != nil || n != smallFill {
			st.close()
			return nil, fmt.Errorf("populate @%d: wrote %d: %v", off, n, err)
		}
	}
	return w, nil
}

func (w *small) close() { w.st.close() }

func (w *small) stack() *dataStack { return w.st }

func (w *small) digest() digest { return w.dig }

// step issues one seeded op: an overwrite or a verified read of a
// random 8 KiB-aligned block.
func (w *small) step(ph *phase) {
	isWrite := w.rng.Float64() < smallWrites
	b := w.rng.IntN(smallBlocks)
	kind := uint64(0)
	if isWrite {
		kind = 1
	}
	w.dig.add(kind, uint64(b))
	off := int64(b * smallIO)
	if isWrite {
		w.gen[b]++
		p := cut(w.tape, smallIO, uint64(b), w.gen[b])
		t := time.Now()
		id := w.rec.beginOp()
		n, err := w.st.client.Write(smallPath, off, p)
		end := time.Now()
		w.rec.endOp(id, t, end)
		if err == nil && n != len(p) {
			err = fmt.Errorf("short write %d of %d", n, len(p))
		}
		ph.update(t, end, int64(n), err)
		return
	}
	t := time.Now()
	id := w.rec.beginOp()
	n, err := w.st.client.Read(smallPath, off, w.buf)
	end := time.Now()
	w.rec.endOp(id, t, end)
	if err == nil && !bytes.Equal(w.buf[:n], cut(w.tape, smallIO, uint64(b), w.gen[b])) {
		err = fmt.Errorf("read block %d: content differs from generation %d", b, w.gen[b])
	}
	ph.query(t, end, int64(n), err)
}
