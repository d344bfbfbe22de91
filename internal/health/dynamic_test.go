package health

// Dynamic-membership tests: the Add/Remove hooks the autoscaler drives,
// the pessimistic start posture of freshly provisioned nodes, and the
// Load() demand signal.

import (
	"testing"
	"time"

	"repro/internal/nodestate"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

func TestAddStartsPessimisticAndRises(t *testing.T) {
	srvA, addrA := pingServer(t)
	defer srvA.Close()
	srvB, addrB := pingServer(t)
	defer srvB.Close()

	col := &collector{flag: nodestate.Down}
	reg := telemetry.New()
	p, err := New(Config{
		Addrs:         []string{addrA},
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

	if err := p.Add(addrB, false); err != nil {
		t.Fatalf("Add: %v", err)
	}
	if !p.Has(addrB, nodestate.Down) {
		t.Fatal("pessimistically added node reported up before any ping")
	}
	if got := reg.Gauge("health_ions_up").Value(); got != 1 {
		t.Fatalf("health_ions_up = %d, want 1 (new node not yet risen)", got)
	}

	p.ProbeOnce() // rise 1 of 2
	if !p.Has(addrB, nodestate.Down) {
		t.Fatal("node rose before RiseThreshold")
	}
	p.ProbeOnce() // rise 2 of 2
	if p.Has(addrB, nodestate.Down) {
		t.Fatal("node did not rise after RiseThreshold successful pings")
	}
	trs := col.all()
	if len(trs) != 1 || trs[0].Addr != addrB || trs[0].On {
		t.Fatalf("transitions = %v, want one up for %s", trs, addrB)
	}
	if got := reg.Gauge("health_ions_up").Value(); got != 2 {
		t.Fatalf("health_ions_up = %d, want 2", got)
	}

	if err := p.Add(addrB, false); err == nil {
		t.Fatal("duplicate Add must fail")
	}
}

func TestRemoveStopsProbingAndSettlesGauges(t *testing.T) {
	srvA, addrA := pingServer(t)
	defer srvA.Close()
	srvB, addrB := pingServer(t)

	reg := telemetry.New()
	p, err := New(Config{
		Addrs:     []string{addrA, addrB},
		Interval:  time.Second,
		Timeout:   100 * time.Millisecond,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	p.Remove(addrB)
	srvB.Close() // a dead removed node must not produce transitions
	if !p.Has(addrB, nodestate.Down) {
		t.Fatal("removed node still reported up")
	}
	if got := reg.Gauge("health_ions_up").Value(); got != 1 {
		t.Fatalf("health_ions_up = %d, want 1", got)
	}
	for i := 0; i < 5; i++ {
		p.ProbeOnce()
	}
	if got := reg.Counter("health_transitions_down_total").Value(); got != 0 {
		t.Fatalf("removed node produced %d down transitions", got)
	}
	if _, ok := p.Load()[addrB]; ok {
		t.Fatal("removed node still present in Load()")
	}
	p.Remove(addrB) // unknown: no-op
	p.Remove("nobody:1")
}

func TestLoadReportsSampledQueueDepth(t *testing.T) {
	// A ping handler that reports a queue depth of 7 in the Size field,
	// the way ion daemons do.
	srv := rpc.NewServer(func(req *rpc.Message) *rpc.Message {
		return &rpc.Message{Op: req.Op, Size: 7}
	})
	addr, err := srv.Listen("")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	p, err := New(Config{
		Addrs:    []string{addr},
		Interval: time.Second,
		Timeout:  100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	if got := p.Load()[addr]; got != 0 {
		t.Fatalf("depth before any sweep = %d, want 0", got)
	}
	p.ProbeOnce()
	if got := p.Load()[addr]; got != 7 {
		t.Fatalf("depth = %d, want 7", got)
	}
}
