package health

// Fail-slow (gray-failure) detection tests: the peer-relative scorer
// marks a node degraded when its median latency stands out against its
// peers, debounced over sweeps with hysteresis on recovery — and the
// whole latency plane is strictly opt-in.

import (
	"sync"
	"testing"
	"time"

	"repro/internal/latency"
	"repro/internal/nodestate"
	"repro/internal/telemetry"
)

// seedSketch loads n synthetic samples for addr. Real probe RTTs keep
// trickling into the same rings during the test (microseconds against a
// loopback server), but 60 seeded samples dominate the 64-slot window,
// so medians stay where the test puts them for the few sweeps it runs.
func seedSketch(sk *latency.Sketch, addr string, d time.Duration, n int) {
	for i := 0; i < n; i++ {
		sk.Observe(addr, d)
	}
}

func TestDegradedDetectionAndRecovery(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		ls := &loadServer{}
		_, addr := ls.start(t)
		addrs = append(addrs, addr)
	}
	sk := latency.NewSketch(0)
	col := &collector{flag: nodestate.Degraded}
	reg := telemetry.New()
	p, err := New(Config{
		Addrs:        addrs,
		Interval:     time.Second, // driven manually
		Timeout:      100 * time.Millisecond,
		SlowFactor:   4,
		SlowWindow:   2,
		SlowRecovery: 3,
		Latency:      sk,
		OnChange:     col.add,
		Telemetry:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	// Two healthy peers at ~10ms, one node at 200ms: 20× the peer
	// median, far past the 4× factor and the 1ms default floor.
	seedSketch(sk, addrs[0], 10*time.Millisecond, 60)
	seedSketch(sk, addrs[1], 10*time.Millisecond, 60)
	seedSketch(sk, addrs[2], 200*time.Millisecond, 60)

	p.ProbeOnce()
	if p.Has(addrs[2], nodestate.Degraded) {
		t.Fatal("one slow sweep must not mark degraded (SlowWindow=2)")
	}
	p.ProbeOnce()
	if !p.Has(addrs[2], nodestate.Degraded) {
		t.Fatal("two slow sweeps should mark degraded")
	}
	if p.Has(addrs[0], nodestate.Degraded) || p.Has(addrs[1], nodestate.Degraded) {
		t.Fatal("healthy peers misread as degraded")
	}
	if dgs := col.all(); len(dgs) != 1 || !dgs[0].On || dgs[0].Addr != addrs[2] {
		t.Fatalf("unexpected degradation transitions: %+v", dgs)
	}
	if got := reg.Counter("health_degraded_transitions_total").Value(); got != 1 {
		t.Fatalf("health_degraded_transitions_total = %d, want 1", got)
	}
	if got := reg.Gauge("health_degraded_ions").Value(); got != 1 {
		t.Fatalf("health_degraded_ions = %d, want 1", got)
	}
	if dl := p.With(nodestate.Degraded); len(dl) != 1 || dl[0] != addrs[2] {
		t.Fatalf("Degraded() = %v", dl)
	}
	// Degraded is not down and not overloaded: the other planes are
	// untouched — the node answers pings and reports an empty queue.
	if p.Has(addrs[2], nodestate.Down) {
		t.Fatal("degraded node must remain up")
	}
	if p.Has(addrs[2], nodestate.Overloaded) {
		t.Fatal("degraded node misread as overloaded")
	}

	// The fault lifts: the node's latency falls back in line with its
	// peers. Recovery needs SlowRecovery=3 clean sweeps (hysteresis).
	sk.Forget(addrs[2])
	seedSketch(sk, addrs[2], 10*time.Millisecond, 60)
	p.ProbeOnce()
	p.ProbeOnce()
	if !p.Has(addrs[2], nodestate.Degraded) {
		t.Fatal("two clean sweeps must not restore (SlowRecovery=3)")
	}
	p.ProbeOnce()
	if p.Has(addrs[2], nodestate.Degraded) {
		t.Fatal("three clean sweeps should restore")
	}
	if dgs := col.all(); len(dgs) != 2 || dgs[1].On {
		t.Fatalf("restore transition missing: %+v", dgs)
	}
	if got := reg.Counter("health_degraded_recovered_total").Value(); got != 1 {
		t.Fatalf("health_degraded_recovered_total = %d, want 1", got)
	}
	if got := reg.Gauge("health_degraded_ions").Value(); got != 0 {
		t.Fatalf("health_degraded_ions = %d, want 0 after restore", got)
	}
}

// TestDegradedNeedsPeerQuorum pins that peer-relative scoring refuses
// to judge with fewer than two peers: on a two-node pool the slow node
// has one peer, and "you differ from your only peer" cannot say which
// of the two is the outlier.
func TestDegradedNeedsPeerQuorum(t *testing.T) {
	var addrs []string
	for i := 0; i < 2; i++ {
		ls := &loadServer{}
		_, addr := ls.start(t)
		addrs = append(addrs, addr)
	}
	sk := latency.NewSketch(0)
	p, err := New(Config{
		Addrs:      addrs,
		Interval:   time.Second,
		Timeout:    100 * time.Millisecond,
		SlowFactor: 2,
		SlowWindow: 1,
		Latency:    sk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	seedSketch(sk, addrs[0], 5*time.Millisecond, 60)
	seedSketch(sk, addrs[1], 500*time.Millisecond, 60)
	for i := 0; i < 4; i++ {
		p.ProbeOnce()
	}
	if p.Has(addrs[0], nodestate.Degraded) || p.Has(addrs[1], nodestate.Degraded) {
		t.Fatal("scorer judged without a peer quorum")
	}
}

// TestSlowMinLatencyFloor pins the jitter guard: a node 25× its peers
// is still not degraded while its median sits under the floor —
// microsecond-level spread on an idle loopback stack is noise, not a
// gray failure.
func TestSlowMinLatencyFloor(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		ls := &loadServer{}
		_, addr := ls.start(t)
		addrs = append(addrs, addr)
	}
	sk := latency.NewSketch(0)
	p, err := New(Config{
		Addrs:          addrs,
		Interval:       time.Second,
		Timeout:        100 * time.Millisecond,
		SlowFactor:     4,
		SlowWindow:     1,
		SlowMinLatency: time.Millisecond, // the default, stated explicitly
		Latency:        sk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	seedSketch(sk, addrs[0], 2*time.Microsecond, 60)
	seedSketch(sk, addrs[1], 2*time.Microsecond, 60)
	seedSketch(sk, addrs[2], 50*time.Microsecond, 60)
	for i := 0; i < 3; i++ {
		p.ProbeOnce()
	}
	if p.Has(addrs[2], nodestate.Degraded) {
		t.Fatal("sub-floor median must never degrade")
	}
}

// TestSlowScorerInactiveWithoutFactor pins the opt-in contract: with no
// SlowFactor the prober registers no health_degraded_* series and fires
// no degradations, even when a sketch full of damning samples is handed
// to it.
func TestSlowScorerInactiveWithoutFactor(t *testing.T) {
	var addrs []string
	for i := 0; i < 3; i++ {
		ls := &loadServer{}
		_, addr := ls.start(t)
		addrs = append(addrs, addr)
	}
	sk := latency.NewSketch(0)
	seedSketch(sk, addrs[2], time.Minute, 60) // absurdly slow — must be ignored
	seedSketch(sk, addrs[0], time.Millisecond, 60)
	seedSketch(sk, addrs[1], time.Millisecond, 60)
	col := &collector{flag: nodestate.Degraded}
	reg := telemetry.New()
	p, err := New(Config{
		Addrs:     addrs,
		Interval:  time.Second,
		Timeout:   100 * time.Millisecond,
		Latency:   sk, // sketch without factor: plane stays off
		OnChange:  col.add,
		Telemetry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()
	for i := 0; i < 4; i++ {
		p.ProbeOnce()
	}
	if p.Has(addrs[2], nodestate.Degraded) || len(col.all()) != 0 {
		t.Fatal("scorer ran without a SlowFactor")
	}
	snap := reg.Snapshot()
	for name := range snap.Counters {
		if name == "health_degraded_transitions_total" || name == "health_degraded_recovered_total" {
			t.Fatalf("series %s registered without a SlowFactor", name)
		}
	}
	if _, ok := snap.Gauges["health_degraded_ions"]; ok {
		t.Fatal("health_degraded_ions registered without a SlowFactor")
	}
}

// TestLoadAges pins the satellite fix: Load snapshots now carry an age,
// so a consumer (the elastic scaler) can tell a fresh sample from a
// stale one instead of reading a wedged node's last depth — or a
// never-sampled node's zero — as current truth.
func TestLoadAges(t *testing.T) {
	ls := &loadServer{}
	_, addr := ls.start(t)
	now := time.Unix(1000, 0)
	var clockMu sync.Mutex
	clock := func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	advance := func(d time.Duration) {
		clockMu.Lock()
		now = now.Add(d)
		clockMu.Unlock()
	}
	p, err := New(Config{
		Addrs:    []string{addr},
		Interval: time.Second,
		Timeout:  100 * time.Millisecond,
		Now:      clock,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Stop()

	// Before any sweep the node has no sample: Load reports the zero
	// value but LoadAges omits it — absence is the staleness signal.
	if ages := p.LoadAges(); len(ages) != 0 {
		t.Fatalf("LoadAges before any sweep = %v, want empty", ages)
	}
	ls.depth.Store(7)
	p.ProbeOnce()
	if ages := p.LoadAges(); len(ages) != 1 || ages[addr] != 0 {
		t.Fatalf("LoadAges right after a sweep = %v, want {%s: 0}", ages, addr)
	}
	advance(42 * time.Second)
	if ages := p.LoadAges(); ages[addr] != 42*time.Second {
		t.Fatalf("LoadAges after 42s = %v", ages)
	}
	// A busy sweep proves liveness but carries no load sample: the age
	// keeps growing instead of resetting on a sample-free sweep.
	ls.shedding.Store(true)
	p.ProbeOnce()
	advance(8 * time.Second)
	if ages := p.LoadAges(); ages[addr] != 50*time.Second {
		t.Fatalf("LoadAges after busy sweep = %v, want 50s", ages)
	}
	ls.shedding.Store(false)
	p.ProbeOnce()
	if ages := p.LoadAges(); ages[addr] != 0 {
		t.Fatalf("LoadAges after fresh loaded sweep = %v, want 0", ages)
	}
}
