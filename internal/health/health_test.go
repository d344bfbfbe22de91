package health

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/nodestate"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

func pingServer(t *testing.T) (*rpc.Server, string) {
	t.Helper()
	srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		return &rpc.Message{Op: req.Op}
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	return srv, addr
}

// collector records one flag's events thread-safely.
type collector struct {
	flag nodestate.Flag
	mu   sync.Mutex
	evs  []Event
}

func (c *collector) add(e Event) {
	if e.Flag != c.flag {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.evs = append(c.evs, e)
}

func (c *collector) all() []Event {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]Event(nil), c.evs...)
}

func TestProbeDetectsDownAndRecovery(t *testing.T) {
	srvA, addrA := pingServer(t)
	srvB, addrB := pingServer(t)
	defer srvB.Close()

	col := &collector{flag: nodestate.Down}
	reg := telemetry.New()
	p, err := New(Config{
		Addrs:         []string{addrA, addrB},
		Interval:      time.Second, // driven manually via ProbeOnce
		Timeout:       100 * time.Millisecond,
		FailThreshold: 2,
		RiseThreshold: 2,
		OnChange:      col.add,
		Telemetry:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	p.ProbeOnce()
	if p.Has(addrA, nodestate.Down) || p.Has(addrB, nodestate.Down) {
		t.Fatal("both nodes should be up")
	}
	if len(col.all()) != 0 {
		t.Fatalf("no transitions expected yet: %v", col.all())
	}

	srvA.Close()
	p.ProbeOnce() // failure 1 of 2: debounced, still up
	if p.Has(addrA, nodestate.Down) {
		t.Fatal("one failed ping must not mark a node down (FailThreshold=2)")
	}
	p.ProbeOnce() // failure 2 of 2: down
	if !p.Has(addrA, nodestate.Down) {
		t.Fatal("node should be down after FailThreshold failures")
	}
	trs := col.all()
	if len(trs) != 1 || !trs[0].On || trs[0].Addr != addrA {
		t.Fatalf("want one down transition for %s, got %v", addrA, trs)
	}
	if got := reg.Counter("health_transitions_down_total").Value(); got != 1 {
		t.Fatalf("health_transitions_down_total = %d, want 1", got)
	}
	if got := reg.Gauge("health_ions_up").Value(); got != 1 {
		t.Fatalf("health_ions_up = %d, want 1", got)
	}
	if down := p.With(nodestate.Down); len(down) != 1 || down[0] != addrA {
		t.Fatalf("Down() = %v", down)
	}

	// Restart on the same address; RiseThreshold=2 debounces recovery.
	srvA2, err2 := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		return &rpc.Message{Op: req.Op}
	}), error(nil)
	if _, err2 = srvA2.Listen(addrA); err2 != nil {
		t.Fatalf("rebind %s: %v", addrA, err2)
	}
	defer srvA2.Close()
	p.ProbeOnce()
	if !p.Has(addrA, nodestate.Down) {
		t.Fatal("one good ping must not mark a node up (RiseThreshold=2)")
	}
	p.ProbeOnce()
	if p.Has(addrA, nodestate.Down) {
		t.Fatal("node should be back up after RiseThreshold successes")
	}
	trs = col.all()
	if len(trs) != 2 || trs[1].On {
		t.Fatalf("want a final up transition, got %v", trs)
	}
	if got := reg.Counter("health_transitions_up_total").Value(); got != 1 {
		t.Fatalf("health_transitions_up_total = %d, want 1", got)
	}
	if got := reg.Gauge("health_ions_up").Value(); got != 2 {
		t.Fatalf("health_ions_up = %d, want 2", got)
	}
}

func TestStartStopLoop(t *testing.T) {
	srv, addr := pingServer(t)
	defer srv.Close()
	reg := telemetry.New()
	p, err := New(Config{
		Addrs:     []string{addr},
		Interval:  2 * time.Millisecond,
		Timeout:   50 * time.Millisecond,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	probes := reg.Counter("health_probes_total")
	deadline := time.Now().Add(2 * time.Second)
	for probes.Value() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("probe loop never ran")
		}
		time.Sleep(time.Millisecond)
	}
	p.Stop()
	// Stop is idempotent and Stop-after-Stop must not hang.
	p.Stop()
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty address set should fail")
	}
	if _, err := New(Config{Addrs: []string{"a:1", "a:1"}}); err == nil {
		t.Fatal("duplicate addresses should fail")
	}
}

func TestStopWithoutStart(t *testing.T) {
	srv, addr := pingServer(t)
	defer srv.Close()
	p, err := New(Config{Addrs: []string{addr}})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		p.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop without Start hung")
	}
}

// TestProbeEventOrderIsDeterministic: when several nodes change in one
// sweep, the arbiter must see them in the same order every run — each
// event triggers its own re-solve and publish, so a random order would
// make the sequence of published mappings random too. Three nodes fail
// and a fourth overloads in one sweep: liveness events come first, by
// address, then the overload event.
func TestProbeEventOrderIsDeterministic(t *testing.T) {
	var dead []string
	for i := 0; i < 3; i++ {
		srv, addr := pingServer(t)
		srv.Close() // refuses connections from here on
		dead = append(dead, addr)
	}
	ls := &loadServer{}
	ls.depth.Store(100)
	_, hot := ls.start(t)
	sorted := append([]string(nil), dead...)
	sort.Strings(sorted)
	var want []Event
	for _, addr := range sorted {
		want = append(want, Event{Addr: addr, Flag: nodestate.Down, On: true})
	}
	want = append(want, Event{Addr: hot, Flag: nodestate.Overloaded, On: true})

	for run := 0; run < 50; run++ {
		var got []Event
		p, err := New(Config{
			Addrs:              append([]string{hot}, dead...),
			Interval:           time.Second, // driven manually
			Timeout:            100 * time.Millisecond,
			FailThreshold:      1,
			OverloadQueueDepth: 10,
			OverloadThreshold:  1,
			OnChange:           func(e Event) { got = append(got, e) },
		})
		if err != nil {
			t.Fatal(err)
		}
		p.ProbeOnce()
		p.Stop()
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("run %d: events\n  %v\nwant\n  %v", run, got, want)
		}
	}
}
