package livestack

// Elastic chaos scenario: the acceptance test of the capacity plane. A
// stack starts at the pool floor (2 IONs) with every backend slowed so
// queue depth is a real, observable demand signal. A burst of 32 writers
// across 4 applications pushes sustained depth over the scale-up
// watermark and the pool must breathe out to its ceiling (12 IONs) —
// through a nemesis provisioner that fails some spawns. When the burst
// ends the signal collapses and the pool must breathe back in to the
// floor through graceful drains — while the nemesis kills a draining ION
// mid-flight (the drain must abort into MarkDown, never decommission a
// corpse it still counts, and the warm-restarted node must drain cleanly
// later). Properties asserted at the end:
//
//   - byte conservation — every acked write of all 4 apps is on the PFS
//     and readable through the clients, bit-exact, across every remap,
//     spawn, drain, kill, and decommission;
//   - the pool actually breathed 2→12→2: scale-up and scale-down counts
//     are within the flap budget (no thrash), and re-arbitration stayed
//     bounded;
//   - the chaos was real: ≥1 drain aborted by a mid-drain kill, ≥1
//     provisioning failure injected and counted;
//   - the scaler's counters balance: drains started = drains completed +
//     drains aborted, arbiter adds/removes mirror scaler ups/downs, and
//     every terminal gauge is back at rest.
//
// `make elastic` runs this twice under the race detector.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/elastic"
	"repro/internal/fwd"
	"repro/internal/ion"
	"repro/internal/nodestate"
	"repro/internal/pfs"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// flakyProvisioner is the nemesis seam: it fails chosen Provision calls
// (deterministically, by call number) and passes the rest through to the
// livestack-backed provisioner.
type flakyProvisioner struct {
	inner elastic.Provisioner
	calls atomic.Int64
	fails atomic.Int64
}

func (p *flakyProvisioner) Provision() (string, error) {
	n := p.calls.Add(1)
	if n == 2 || n == 5 {
		p.fails.Add(1)
		return "", fmt.Errorf("nemesis: provisioning outage (call %d)", n)
	}
	return p.inner.Provision()
}

func (p *flakyProvisioner) Decommission(addr string) error { return p.inner.Decommission(addr) }

// slowFS and slowBackend inject a test-controlled write latency. The
// burst runs with service time far above the client-side cost of issuing
// an op, so queues are deep and service-bound — then the test drops the
// delay to zero the instant the burst ends, so demand collapses as a
// cliff rather than a decaying tail. (Under a slow tail the stragglers
// concentrate on the shrinking pool and make regrowth the CORRECT
// scaling decision; this scenario is probing the breathe, so the
// workload must vanish unambiguously.) The direct-to-PFS path gets the
// same latency: an unallocated app otherwise writes at in-memory line
// rate — a PFS no machine offers — and on a small CI box its spinning
// writers starve the queue signal everything else depends on.
type slowFS struct {
	pfs.FileSystem
	delay *atomic.Int64 // nanoseconds
}

func (f *slowFS) sleep() {
	if d := time.Duration(f.delay.Load()); d > 0 {
		time.Sleep(d)
	}
}

func (f *slowFS) Write(path string, off int64, p []byte) (int, error) {
	f.sleep()
	return f.FileSystem.Write(path, off, p)
}

type slowBackend struct {
	slowFS
	inner ion.Backend
}

func (b *slowBackend) WriteAs(writer, path string, off int64, p []byte) (int, error) {
	b.sleep()
	return b.inner.WriteAs(writer, path, off, p)
}

// waitGauge polls a gauge until it reaches want or the deadline passes.
// On timeout it dumps the capacity plane's whole state — the elastic and
// arbiter series plus the live pool — so a hung breathe is diagnosable
// from the failure log alone.
func waitGauge(t *testing.T, st *Stack, name string, want int64, timeout time.Duration, why string) {
	t.Helper()
	reg := st.Telemetry
	deadline := time.Now().Add(timeout)
	for {
		if v := reg.Gauge(name).Value(); v == want {
			return
		}
		if time.Now().After(deadline) {
			var dump strings.Builder
			for _, s := range []string{
				"elastic_pool_size", "elastic_provisioning", "elastic_draining",
			} {
				fmt.Fprintf(&dump, "  %s = %d\n", s, reg.Gauge(s).Value())
			}
			for _, s := range []string{
				"elastic_scale_ups_total", "elastic_scale_downs_total",
				"elastic_drains_started_total", "elastic_drains_aborted_total",
				"elastic_drains_forced_total", "elastic_drains_refused_total",
				"elastic_provisions_started_total", "elastic_provision_failures_total",
				"elastic_provision_rollbacks_total", "elastic_provision_breaker_opens_total",
				"arbiter_ions_added_total", "arbiter_ions_removed_total",
				"arbiter_solves_total",
			} {
				fmt.Fprintf(&dump, "  %s = %d\n", s, reg.Counter(s).Value())
			}
			fmt.Fprintf(&dump, "  arbiter pool = %v\n", st.Arbiter.Pool())
			fmt.Fprintf(&dump, "  arbiter draining = %v\n", st.Arbiter.With(nodestate.Draining))
			fmt.Fprintf(&dump, "  scaler members = %v\n", st.Scaler.Members())
			fmt.Fprintf(&dump, "  health load = %v\n", st.Health.Load())
			t.Fatalf("%s: %s = %d, want %d (waited %v)\ncapacity plane at timeout:\n%s",
				why, name, reg.Gauge(name).Value(), want, timeout, dump.String())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestElasticPoolBreathesUnderChaos(t *testing.T) {
	const (
		minPool = 2
		maxPool = 12
		// ION assignment is exclusive per app (the paper's arbitration
		// model), so the app count must fit the pool floor.
		appsN         = 2
		writersPerApp = 24
		segsPer       = 24
		segSize       = 8192
	)
	var flaky *flakyProvisioner
	var writeDelay atomic.Int64
	writeDelay.Store(int64(50 * time.Millisecond))
	st, err := Start(Config{
		IONs:        minPool,
		Scheduler:   "FIFO",
		ChunkSize:   segSize,
		Dispatchers: 1,
		// One request rides per pooled connection, so the pool must fit
		// the writer parallelism — otherwise demand queues invisibly on
		// the client side and the prober's depth samples (the scaler's
		// whole signal) read near zero however hard the burst pushes.
		PoolSize:  writersPerApp,
		Telemetry: telemetry.New(),
		RPC: rpc.Options{
			CallTimeout:      10 * time.Second,
			MaxRetries:       2,
			RetryBackoff:     time.Millisecond,
			RetryBackoffMax:  5 * time.Millisecond,
			BreakerThreshold: 4,
			BreakerCooldown:  100 * time.Millisecond,
		},

		HealthInterval:      10 * time.Millisecond,
		HealthTimeout:       250 * time.Millisecond,
		HealthFailThreshold: 2,
		HealthRiseThreshold: 2,

		// Every backend — initial and spawned alike — is slow, so writes
		// queue and the prober's depth samples carry a real demand signal.
		// The delay must dominate the client-side cost of issuing an op:
		// queues then stay deep (service-bound, ~writers − pool in queue)
		// and the signal cannot trough on scheduler noise mid-burst.
		WrapBackend: func(i int, b ion.Backend) ion.Backend {
			return &slowBackend{slowFS: slowFS{FileSystem: b, delay: &writeDelay}, inner: b}
		},
		WrapDirect: func(fs pfs.FileSystem) pfs.FileSystem {
			return &slowFS{FileSystem: fs, delay: &writeDelay}
		},

		Elastic: &elastic.Config{
			Min: minPool, Max: maxPool,
			UpWatermark:   1.0,
			DownWatermark: 0.2,
			UpSustain:     2,
			DownSustain:   5,
			UpCooldown:    100 * time.Millisecond,
			DownCooldown:  150 * time.Millisecond,
			// Each add re-arbitrates, and the remap stall starves the depth
			// signal for longer than DownSustain — the reversal gate is what
			// keeps the breath-out monotonic (see TestFlipQuietDampsReversal).
			FlipQuiet: 600 * time.Millisecond,
			MaxStep:   2,
			Interval:  20 * time.Millisecond,

			// 6 sweeps × 20ms = 120ms of mandatory quiet per drain: wide
			// enough that the nemesis below reliably lands its kill while
			// the drain is still in flight.
			DrainDeadline: 5 * time.Second,
			QuiesceSweeps: 6,

			RiseTimeout:         5 * time.Second,
			ProvisionBackoff:    25 * time.Millisecond,
			ProvisionBackoffMax: 100 * time.Millisecond,
			BreakerThreshold:    5,
			BreakerCooldown:     250 * time.Millisecond,
			Seed:                42,
		},
		WrapProvisioner: func(inner elastic.Provisioner) elastic.Provisioner {
			flaky = &flakyProvisioner{inner: inner}
			return flaky
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	reg := st.Telemetry

	labels := []string{"IOR-MPI", "BT-C"}
	clients := make([]*fwd.Client, appsN)
	paths := make([]string, appsN)
	for a := 0; a < appsN; a++ {
		id := fmt.Sprintf("app%d", a)
		if _, err := st.Arbiter.JobStarted(appFor(t, labels[a], id)); err != nil {
			t.Fatal(err)
		}
		c, err := st.NewClient(id)
		if err != nil {
			t.Fatal(err)
		}
		// At the pool floor the solver may give the second app nothing —
		// the paper's on-demand model: an unallocated app forwards direct
		// to the PFS until a later re-arbitration hands it nodes. Only the
		// first app is guaranteed an allocation at the floor.
		if a == 0 {
			if err := waitForSomeAllocation(c, 2*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		paths[a] = "/elastic/" + id
		if err := c.Create(paths[a]); err != nil {
			t.Fatal(err)
		}
		clients[a] = c
	}

	// The burst: 8 writers per app rewrite their disjoint regions in
	// round-robin until told to stop, but never stop before one full pass
	// — so the final verification window is always completely acked.
	// Rewrites carry identical bytes (pat is a function of offset alone),
	// so any remap/retry interleaving is idempotent.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for a := 0; a < appsN; a++ {
		for w := 0; w < writersPerApp; w++ {
			wg.Add(1)
			go func(c *fwd.Client, path string, w int) {
				defer wg.Done()
				seg := make([]byte, segSize)
				for iter := 0; ; iter++ {
					if iter >= segsPer {
						select {
						case <-stop:
							return
						default:
						}
					}
					off := int64(w*segsPer+iter%segsPer) * segSize
					fill(off, seg)
					if n, err := c.Write(path, off, seg); err != nil || n != segSize {
						t.Errorf("%s writer %d: n=%d err=%v", path, w, n, err)
						return
					}
				}
			}(clients[a], paths[a], w)
		}
	}

	// Breathe out: sustained depth over the watermark must grow the pool
	// to its ceiling, through the flaky provisioner.
	waitGauge(t, st, "elastic_pool_size", maxPool, 90*time.Second,
		"burst never grew the pool to max")
	t.Logf("at max: ups=%d downs=%d solves=%d",
		reg.Counter("elastic_scale_ups_total").Value(),
		reg.Counter("elastic_scale_downs_total").Value(),
		reg.Counter("arbiter_solves_total").Value())
	writeDelay.Store(0) // the demand cliff: in-flight passes finish fast
	close(stop)
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Breathe in, under fire: the signal collapses and drains begin. The
	// nemesis kills the first draining ION it can catch mid-flight; the
	// drain must abort (never decommission), the node stays a down member.
	killed := map[string]bool{}
	abortSeen := false
	for attempt := 0; attempt < 5 && !abortSeen; attempt++ {
		// Wait for a FRESH drain — one started after this point — so the
		// kill lands early in its 120ms quiesce window. Killing a drain
		// that is already about to decommission proves nothing: the node
		// leaves cleanly before the prober can see the corpse.
		base := reg.Counter("elastic_drains_started_total").Value()
		victim := ""
		vDeadline := time.Now().Add(20 * time.Second)
		for victim == "" && time.Now().Before(vDeadline) {
			if reg.Counter("elastic_drains_started_total").Value() > base {
				for _, a := range st.Arbiter.With(nodestate.Draining) {
					if !killed[a] {
						victim = a
						break
					}
				}
			}
			if victim == "" {
				time.Sleep(200 * time.Microsecond)
			}
		}
		if victim == "" {
			break
		}
		killed[victim] = true
		if d := st.DaemonAt(victim); d != nil {
			d.Close()
		}
		aDeadline := time.Now().Add(3 * time.Second)
		for !abortSeen && time.Now().Before(aDeadline) {
			if reg.Counter("elastic_drains_aborted_total").Value() >= 1 {
				abortSeen = true
			} else {
				time.Sleep(time.Millisecond)
			}
		}
	}
	if !abortSeen {
		t.Fatal("nemesis never caught a drain mid-flight: no drain aborted")
	}

	// Warm-restart every corpse that is still a member so the pool can
	// finish shrinking (a down member can neither drain nor leave).
	for addr := range killed {
		// Let the corpse's own drain resolve first: the abort lands only
		// after the prober marks it down, and a restart is refused while
		// the drain is still in flight.
		rDeadline := time.Now().Add(5 * time.Second)
		for st.Arbiter.Has(addr, nodestate.Draining) && time.Now().Before(rDeadline) {
			time.Sleep(time.Millisecond)
		}
		if !contains(st.Scaler.Members(), addr) {
			continue // its drain completed before the kill landed
		}
		idx := -1
		for i, a := range st.IONAddrs() {
			if a == addr {
				idx = i
				break
			}
		}
		if err := st.RestartION(idx); err != nil {
			t.Fatalf("restart of killed member %s: %v", addr, err)
		}
	}

	waitGauge(t, st, "elastic_pool_size", minPool, 60*time.Second,
		"pool never shrank back to min after the burst")
	waitGauge(t, st, "elastic_draining", 0, 10*time.Second, "drains still pending at rest")
	waitGauge(t, st, "elastic_provisioning", 0, 10*time.Second, "provisions still pending at rest")

	// Freeze the capacity plane before the audit: the verification reads
	// below push real queue depth, and a live scaler would (correctly)
	// start a new breath under the assertions' feet.
	st.Scaler.Stop()
	t.Logf("at rest: ups=%d downs=%d solves=%d",
		reg.Counter("elastic_scale_ups_total").Value(),
		reg.Counter("elastic_scale_downs_total").Value(),
		reg.Counter("arbiter_solves_total").Value())

	// Byte conservation and zero lost acked writes: every writer finished
	// at least one full pass over its region, so every byte of every
	// region was acked — all of it must now be exactly pat, both through
	// the forwarding clients and straight from the PFS.
	const appBytes = writersPerApp * segsPer * segSize
	for a := 0; a < appsN; a++ {
		got := make([]byte, appBytes)
		if n, err := clients[a].Read(paths[a], 0, got); err != nil || n != appBytes {
			t.Fatalf("read %s through client: n=%d err=%v", paths[a], n, err)
		}
		for i := range got {
			if got[i] != pat(int64(i)) {
				t.Fatalf("%s byte %d corrupted: got %d want %d", paths[a], i, got[i], pat(int64(i)))
			}
		}
		direct := make([]byte, appBytes)
		if n, err := st.Store.Read(paths[a], 0, direct); err != nil || n != appBytes {
			t.Fatalf("read %s from store: n=%d err=%v", paths[a], n, err)
		}
		for i := range direct {
			if direct[i] != pat(int64(i)) {
				t.Fatalf("%s byte %d lost on the PFS: got %d want %d", paths[a], i, direct[i], pat(int64(i)))
			}
		}
	}

	// Flap audit: one breath out and one breath in, not a thrash loop.
	// 2→12 is exactly 10 promotions; the demand cliff at burst end leaves
	// no tail that could justify regrowth, so the budget allows only a
	// little slack, not a second cycle.
	ups := reg.Counter("elastic_scale_ups_total").Value()
	downs := reg.Counter("elastic_scale_downs_total").Value()
	const grow = maxPool - minPool
	if ups < grow || ups > grow+2 {
		t.Errorf("elastic_scale_ups_total = %d, want %d (±2 flap budget)", ups, grow)
	}
	// The pool starts and ends at the floor with nothing in flight, so
	// every promotion was matched by exactly one decommission.
	if downs != ups {
		t.Errorf("elastic_scale_downs_total = %d, want exactly the %d ups (pool is back at the floor)", downs, ups)
	}
	if solves := reg.Counter("arbiter_solves_total").Value(); solves > 120 {
		t.Errorf("arbiter_solves_total = %d — re-arbitration is not bounded", solves)
	}

	// The chaos was real and was counted.
	if flaky.fails.Load() < 2 {
		t.Errorf("nemesis injected only %d provisioning failures, want 2", flaky.fails.Load())
	}
	if v := reg.Counter("elastic_provision_failures_total").Value(); v < flaky.fails.Load() {
		t.Errorf("elastic_provision_failures_total = %d, nemesis injected %d", v, flaky.fails.Load())
	}
	if v := reg.Counter("elastic_drains_aborted_total").Value(); v < 1 {
		t.Errorf("elastic_drains_aborted_total = %d, want ≥ 1 (the mid-drain kill)", v)
	}

	// Counter audit: the drain ledger balances and both planes agree.
	started := reg.Counter("elastic_drains_started_total").Value()
	aborted := reg.Counter("elastic_drains_aborted_total").Value()
	if started != downs+aborted {
		t.Errorf("drain ledger imbalance: %d started != %d completed + %d aborted", started, downs, aborted)
	}
	if added := reg.Counter("arbiter_ions_added_total").Value(); added != ups {
		t.Errorf("arbiter_ions_added_total = %d, scaler promoted %d", added, ups)
	}
	if removed := reg.Counter("arbiter_ions_removed_total").Value(); removed != downs {
		t.Errorf("arbiter_ions_removed_total = %d, scaler decommissioned %d", removed, downs)
	}
	if got := len(st.Arbiter.Pool()); got != minPool {
		t.Errorf("arbiter pool has %d IONs at rest, want %d", got, minPool)
	}
	if v := reg.Gauge("arbiter_ions_draining").Value(); v != 0 {
		t.Errorf("arbiter_ions_draining = %d at rest, want 0", v)
	}
}

// TestElasticZeroConfigKeepsStaticPool pins the default-off contract:
// without an Elastic config the stack is the pre-elastic static pool —
// no scaler, no elastic metric series, membership fixed.
func TestElasticZeroConfigKeepsStaticPool(t *testing.T) {
	st := startStack(t, 3)
	if st.Scaler != nil {
		t.Fatal("zero-config stack started a scaler")
	}
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "static")); err != nil {
		t.Fatal(err)
	}
	c, err := st.NewClient("static")
	if err != nil {
		t.Fatal(err)
	}
	if err := waitForSomeAllocation(c, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.Create("/static"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write("/static", 0, []byte("unchanged")); err != nil {
		t.Fatal(err)
	}
	snap := st.Telemetry.Snapshot()
	for name := range snap.Counters {
		if strings.HasPrefix(name, "elastic_") {
			t.Errorf("zero-config stack registered %s", name)
		}
	}
	for name := range snap.Gauges {
		if strings.HasPrefix(name, "elastic_") {
			t.Errorf("zero-config stack registered %s", name)
		}
	}
	if got := len(st.IONAddrs()); got != 3 {
		t.Fatalf("static pool size changed: %d IONs, want 3", got)
	}
}

// TestElasticRequiresHealthProber pins the config cross-check: the scaler
// feeds on prober load samples, so Elastic without HealthInterval is a
// startup error, not a silent no-op.
func TestElasticRequiresHealthProber(t *testing.T) {
	_, err := Start(Config{
		IONs:    2,
		Elastic: &elastic.Config{Min: 2, Max: 4, UpWatermark: 1, DownWatermark: 0.5, Quiesced: func(string) bool { return true }},
	})
	if err == nil || !strings.Contains(err.Error(), "HealthInterval") {
		t.Fatalf("Elastic without HealthInterval: err = %v, want HealthInterval complaint", err)
	}
}

// TestWaitForAllocationDeadlineAndDiagnostics is the regression test for
// the polling-wait bugfix: the wait must respect its deadline (backoff
// never sleeps past it) and the timeout error must carry the mapping the
// client last observed.
func TestWaitForAllocationDeadlineAndDiagnostics(t *testing.T) {
	st := startStack(t, 2)
	c, err := st.NewClient("lonely")
	if err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	err = WaitForAllocation(c, 2, 40*time.Millisecond)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("no allocation was ever published, want a timeout error")
	}
	if !strings.Contains(err.Error(), "last mapping") || !strings.Contains(err.Error(), "0 nodes") {
		t.Errorf("timeout error does not carry the last observed mapping: %v", err)
	}
	if elapsed > time.Second {
		t.Errorf("40ms wait took %v — backoff slept past the deadline", elapsed)
	}

	// The success path is still prompt once a mapping lands.
	if _, err := st.Arbiter.JobStarted(appFor(t, "IOR-MPI", "lonely")); err != nil {
		t.Fatal(err)
	}
	if err := waitForSomeAllocation(c, 2*time.Second); err != nil {
		t.Fatal(err)
	}
}
