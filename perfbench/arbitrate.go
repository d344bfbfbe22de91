package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync"
	"time"

	"repro/internal/arbiter"
	"repro/internal/fwd"
	"repro/internal/livestack"
	"repro/internal/mapping"
	"repro/internal/pfs"
	"repro/internal/policy"
)

const (
	arbIONs   = 12
	arbWindow = 6 // most jobs running at once
)

// event is one control-plane event as the traced run splits it: the
// arbiter call (solve included) and the wait until the last client has
// applied the published map.
type event struct {
	op          int64 // the event's op span
	call, apply int64 // ns
}

// arbitrate replays the §5.3 FIFO job sequence as JobStarted/JobFinished
// events through an MCKP arbiter. Every job owns a bus-subscribed fwd
// client that never issues I/O (rpc.Dial is lazy, so no socket opens).
type arbitrate struct {
	rec     *recorder
	rng     *rand.Rand
	bus     *mapping.Bus
	arb     *arbiter.Arbiter
	jobs    []livestack.LiveJob
	clients []*fwd.Client
	cancels []func()
	loops   sync.WaitGroup
	applied chan struct{} // one token per map a client has applied
	running []int         // indices into jobs, in start order
	next    int           // next job in FIFO order
	events  []event
	dig     digest
}

func newArbitrate(seed uint64, rec *recorder) (instance, error) {
	jobs, err := livestack.PaperLiveQueue()
	if err != nil {
		return nil, err
	}
	pool := make([]string, arbIONs)
	for i := range pool {
		pool[i] = fmt.Sprintf("127.0.0.1:%d", 47000+i)
	}
	var pol policy.Policy = policy.MCKP{}
	if rec != nil {
		pol = &tracedPolicy{Policy: pol, rec: rec}
	}
	bus := mapping.NewBus()
	arb, err := arbiter.New(pol, pool, bus)
	if err != nil {
		return nil, err
	}
	w := &arbitrate{
		rec:  rec,
		rng:  rand.New(rand.NewPCG(seed, 3)),
		bus:  bus,
		arb:  arb,
		jobs: jobs,
		// Sized for every client to apply a few maps ahead of the reader,
		// like the bus's own subscription buffer.
		applied: make(chan struct{}, 4*len(jobs)),
	}
	direct := pfs.NewStore(pfs.Config{})
	for _, j := range jobs {
		c, err := fwd.NewClient(fwd.Config{AppID: j.ID, Direct: direct, PoolSize: poolSize})
		if err != nil {
			w.close()
			return nil, err
		}
		ch, unsubscribe := bus.Subscribe()
		w.clients = append(w.clients, c)
		w.cancels = append(w.cancels, unsubscribe)
		// The client's mapping loop, as fwd.Client.Watch runs it, plus a
		// token per applied map so the benchmark can block until every
		// client has applied rather than poll.
		w.loops.Add(1)
		go func() {
			defer w.loops.Done()
			for m := range ch {
				c.ApplyMap(m)
				w.applied <- struct{}{}
			}
		}()
	}
	// Each subscription starts with the bus's version-0 map queued.
	w.awaitApplied(1)
	return w, nil
}

func (w *arbitrate) close() {
	for _, cancel := range w.cancels {
		cancel()
	}
	// Every token is read before the next event, so no loop is blocked
	// on the buffer: closing the subscriptions ends them all.
	w.loops.Wait()
	for _, c := range w.clients {
		c.Close()
	}
}

func (w *arbitrate) digest() digest { return w.dig }

// awaitApplied blocks until every client has applied n more maps.
func (w *arbitrate) awaitApplied(n int) {
	for i := 0; i < n*len(w.clients); i++ {
		<-w.applied
	}
}

// step applies one seeded event of the sliding job window, times it until
// every client has applied the new map, then checks every client against
// the arbiter's allocation.
func (w *arbitrate) step(ph *phase) {
	start := len(w.running) == 0 ||
		(len(w.running) < arbWindow && w.rng.IntN(2) == 0)
	var job int
	if start {
		for slices.Contains(w.running, w.next) {
			w.next = (w.next + 1) % len(w.jobs)
		}
		job = w.next
		w.next = (w.next + 1) % len(w.jobs)
	} else {
		job = w.running[w.rng.IntN(len(w.running))]
	}
	kind := uint64(0)
	if start {
		kind = 1
	}
	w.dig.add(kind, uint64(job))

	v0 := w.bus.Version()
	t := time.Now()
	id := w.rec.beginOp()
	var err error
	if start {
		_, err = w.arb.JobStarted(w.jobs[job].App)
	} else {
		err = w.arb.JobFinished(w.jobs[job].ID)
	}
	called := time.Now()
	if err == nil {
		w.awaitApplied(int(w.bus.Version() - v0))
	}
	end := time.Now()
	w.rec.endOp(id, t, end)
	if w.rec.active() {
		w.rec.add(layerArbSvc, id, id, since(w.rec.t0, t), since(w.rec.t0, called))
		w.rec.add(layerApply, id, id, since(w.rec.t0, called), since(w.rec.t0, end))
		w.events = append(w.events, event{op: id, call: int64(called.Sub(t)), apply: int64(end.Sub(called))})
	}
	if err == nil {
		if start {
			w.running = append(w.running, job)
		} else {
			w.running = slices.DeleteFunc(w.running, func(j int) bool { return j == job })
		}
	}
	ph.update(t, end, 0, err)
	if err != nil {
		return
	}

	qt := time.Now()
	cur := w.arb.Current()
	qend := time.Now()
	ph.query(qt, qend, 0, w.check(cur))
}

// check is the control-plane oracle: every client holds exactly its
// job's allocation, every running job has at least one ION, nothing else
// holds one, and the allocations fit the pool.
func (w *arbitrate) check(cur map[string][]string) error {
	total := 0
	for i, j := range w.jobs {
		want := cur[j.ID]
		got := w.clients[i].IONs()
		if !slices.Equal(got, want) {
			return fmt.Errorf("client %s holds %v, arbiter assigned %v", j.ID, got, want)
		}
		if slices.Contains(w.running, i) != (len(want) > 0) {
			return fmt.Errorf("job %s: running=%v but holds %d IONs", j.ID, slices.Contains(w.running, i), len(want))
		}
		total += len(want)
	}
	if total > arbIONs {
		return fmt.Errorf("allocations total %d IONs, pool has %d", total, arbIONs)
	}
	return nil
}
