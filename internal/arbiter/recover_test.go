package arbiter

import (
	"reflect"
	"sort"
	"testing"

	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/perfmodel"
	"repro/internal/policy"
	"repro/internal/units"
)

// journaledArbiter builds an arbiter over n nodes with a journal in dir.
func journaledArbiter(t *testing.T, dir string, n int) (*Arbiter, *journal.Journal, *mapping.Bus) {
	t.Helper()
	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	bus := mapping.NewBus()
	arb, err := New(policy.MCKP{}, addrs(n), bus)
	if err != nil {
		t.Fatal(err)
	}
	return arb.WithJournal(jn), jn, bus
}

// recoverFrom reopens the journal dir and runs Recover with a fresh bus,
// as a restarted control-plane process would.
func recoverFrom(t *testing.T, dir string, cfg RecoverConfig) (*Arbiter, *mapping.Bus, error) {
	t.Helper()
	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { jn.Close() })
	bus := mapping.NewBus()
	cfg.Journal = jn
	if cfg.Policy == nil {
		cfg.Policy = policy.MCKP{}
	}
	cfg.Bus = bus
	arb, rerr := Recover(cfg)
	return arb, bus, rerr
}

// TestRecoverReplaysJournaledState pins the core warm-restart contract:
// pool membership, marks, running jobs, and allocations all survive a
// crash, and every job keeps the exact nodes it held (no-shrink, stable
// prefix) on the recovery publish.
func TestRecoverReplaysJournaledState(t *testing.T) {
	dir := t.TempDir()
	arb, jn, _ := journaledArbiter(t, dir, 12)

	if _, err := arb.JobStarted(app(t, "IOR-MPI", "ior1")); err != nil {
		t.Fatal(err)
	}
	if _, err := arb.JobStarted(app(t, "HACC", "hacc1")); err != nil {
		t.Fatal(err)
	}
	pool := arb.Pool()
	if err := arb.Set(pool[11], nodestate.Down, true); err != nil {
		t.Fatal(err)
	}
	if err := arb.Set(pool[10], nodestate.Overloaded, true); err != nil {
		t.Fatal(err)
	}
	before := arb.Current()
	jn.Close() // SIGKILL: no graceful teardown, the fsynced journal is all that survives

	rec, bus, err := recoverFrom(t, dir, RecoverConfig{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	gotPool := rec.Pool()
	wantPool := append([]string(nil), pool...)
	sort.Strings(gotPool)
	sort.Strings(wantPool)
	if !reflect.DeepEqual(gotPool, wantPool) {
		t.Fatalf("pool lost in recovery:\n  got  %v\n  want %v", gotPool, wantPool)
	}
	if got := rec.With(nodestate.Down); len(got) != 1 || got[0] != pool[11] {
		t.Fatalf("down marks lost: %v", got)
	}
	if got := rec.With(nodestate.Overloaded); len(got) != 1 || got[0] != pool[10] {
		t.Fatalf("overload marks lost: %v", got)
	}
	after := rec.Current()
	for job, had := range before {
		if len(after[job]) < len(had) {
			t.Fatalf("no-shrink violated for %s: %d -> %d nodes", job, len(had), len(after[job]))
		}
		// Stable prefix: the nodes a job held before the crash are the
		// nodes it holds after (recovery adopts, it does not reshuffle).
		for i, addr := range had {
			if after[job][i] != addr {
				t.Fatalf("%s lost node %s in recovery: %v -> %v", job, addr, had, after[job])
			}
		}
	}
	if m := bus.Current(); len(m.For("ior1")) == 0 {
		t.Fatal("recovery did not republish the mapping")
	}
}

// TestRecoverPrunesDeadIONs: a node the journal believes alive but that
// fails the recovery probe is marked down and stripped from every
// allocation before the first publish.
func TestRecoverPrunesDeadIONs(t *testing.T) {
	dir := t.TempDir()
	arb, jn, _ := journaledArbiter(t, dir, 4)
	if _, err := arb.JobStarted(app(t, "IOR-MPI", "ior1")); err != nil {
		t.Fatal(err)
	}
	victim := arb.Current()["ior1"][0]
	jn.Close()

	rec, bus, err := recoverFrom(t, dir, RecoverConfig{
		Probe: func(addr string) bool { return addr != victim },
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if got := rec.With(nodestate.Down); len(got) != 1 || got[0] != victim {
		t.Fatalf("dead node not marked down: %v", got)
	}
	for job, list := range rec.Current() {
		for _, addr := range list {
			if addr == victim {
				t.Fatalf("%s still routes to the dead node %s", job, victim)
			}
		}
	}
	for _, addr := range bus.Current().For("ior1") {
		if addr == victim {
			t.Fatal("published recovery mapping routes to the dead node")
		}
	}
}

// TestRecoverAbortsDrains: a drain in flight when the arbiter died is
// aborted on recovery — the node returns to the allocatable pool and the
// journal's drain ledger balances (every DrainStart paired with a
// DrainAbort or a RemoveION).
func TestRecoverAbortsDrains(t *testing.T) {
	dir := t.TempDir()
	arb, jn, _ := journaledArbiter(t, dir, 6)
	if _, err := arb.JobStarted(app(t, "IOR-MPI", "ior1")); err != nil {
		t.Fatal(err)
	}
	var victim string
	for _, addr := range arb.Pool() {
		if !journal.Has(arb.Current()["ior1"], addr) {
			victim = addr
			break
		}
	}
	if victim == "" {
		victim = arb.Pool()[0]
	}
	if err := arb.Set(victim, nodestate.Draining, true); err != nil {
		t.Fatal(err)
	}
	jn.Close() // crash mid-drain

	rec, _, err := recoverFrom(t, dir, RecoverConfig{})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if rec.Has(victim, nodestate.Draining) {
		t.Fatal("drain survived the crash; recovery must abort it")
	}
	// Ledger balance, read straight from the on-disk journal.
	_, recs, _, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	starts, ends := 0, 0
	for _, r := range recs {
		switch r.Kind {
		case journal.KindDrainStart:
			starts++
		case journal.KindDrainAbort, journal.KindRemoveION:
			ends++
		}
	}
	if starts == 0 || starts != ends {
		t.Fatalf("drain ledger unbalanced: %d starts, %d ends", starts, ends)
	}
}

// TestRecoverFencesPreCrashEpochs pins the epoch handoff: the fence is
// pushed (PreFence) before the recovery mapping is published, it revokes
// every version the pre-crash arbiter published, and the recovery map
// itself carries the fence.
func TestRecoverFencesPreCrashEpochs(t *testing.T) {
	dir := t.TempDir()
	arb, jn, bus := journaledArbiter(t, dir, 4)
	if _, err := arb.JobStarted(app(t, "IOR-MPI", "ior1")); err != nil {
		t.Fatal(err)
	}
	preCrash := bus.Version()
	if preCrash == 0 {
		t.Fatal("no pre-crash publish")
	}
	jn.Close()

	jn2, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer jn2.Close()
	bus2 := mapping.NewBus()
	var fencedAt uint64
	var publishedBeforeFence bool
	_, err = Recover(RecoverConfig{
		Journal: jn2, Policy: policy.MCKP{}, Bus: bus2,
		PreFence: func(fence uint64) {
			fencedAt = fence
			publishedBeforeFence = bus2.Version() > preCrash
		},
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	if fencedAt <= preCrash {
		t.Fatalf("fence %d does not revoke pre-crash epochs (max %d)", fencedAt, preCrash)
	}
	if publishedBeforeFence {
		t.Fatal("recovery mapping published before the daemons were fenced")
	}
	m := bus2.Current()
	if m.Fence != fencedAt {
		t.Fatalf("recovery map fence = %d, want %d", m.Fence, fencedAt)
	}
	if m.Version < fencedAt {
		t.Fatalf("recovery map version %d below its own fence %d", m.Version, fencedAt)
	}
}

// TestRecoverMidSolveIntent: a JobStarted intent journaled without a
// following publish (the crash hit mid-solve) is honoured — recovery
// solves for the job and assigns it nodes.
func TestRecoverMidSolveIntent(t *testing.T) {
	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	pool := addrs(4)
	st := journal.State{Pool: append([]string(nil), pool...)}
	sort.Strings(st.Pool)
	if err := jn.Snapshot(st); err != nil {
		t.Fatal(err)
	}
	spec := app(t, "IOR-MPI", "ior1")
	if _, err := jn.Append(journal.Record{Kind: journal.KindJobStarted, App: appRecord(spec)}); err != nil {
		t.Fatal(err)
	}
	jn.Close() // crash before the solve's publish

	rec, bus, rerr := recoverFrom(t, dir, RecoverConfig{})
	if rerr != nil {
		t.Fatalf("recover: %v", rerr)
	}
	if got := rec.Current()["ior1"]; len(got) == 0 {
		t.Fatal("mid-solve job not assigned on recovery")
	}
	if got := bus.Current().For("ior1"); len(got) == 0 {
		t.Fatal("mid-solve job missing from the recovery publish")
	}
}

// steepCurves is a CurveSource whose curve strongly rewards exactly 4
// I/O nodes, so an allocation made with it is distinguishable from the
// no-characterization fallback.
type steepCurves struct{}

func (steepCurves) Curve(string) (perfmodel.Curve, bool) {
	return perfmodel.NewCurve(
		perfmodel.Point{IONs: 1, Bandwidth: units.BandwidthFromMBps(100)},
		perfmodel.Point{IONs: 2, Bandwidth: units.BandwidthFromMBps(200)},
		perfmodel.Point{IONs: 4, Bandwidth: units.BandwidthFromMBps(4000)},
	), true
}

// TestHistorySurvivesRecover pins the satellite contract for
// arbiter.History: the characterization curve WithHistory attached at
// submission time is journaled with the job, so a recovered arbiter —
// even one with NO history source — re-solves with the same inputs and
// reproduces the same allocation.
func TestHistorySurvivesRecover(t *testing.T) {
	dir := t.TempDir()
	arb, jn, _ := journaledArbiter(t, dir, 8)
	h := WithHistory{Arbiter: arb, Source: steepCurves{}}

	// Registered with an empty curve: WithHistory completes it before the
	// arbiter (and therefore the journal) sees the job.
	got, err := h.JobStarted(policy.Application{ID: "j1", Nodes: 4, Processes: 16})
	if err != nil {
		t.Fatal(err)
	}
	want := len(got)
	jn.Close()

	rec, _, rerr := recoverFrom(t, dir, RecoverConfig{}) // no Source on purpose
	if rerr != nil {
		t.Fatalf("recover: %v", rerr)
	}
	running := rec.Running()
	if len(running) != 1 || running[0].ID != "j1" {
		t.Fatalf("running set lost: %+v", running)
	}
	if running[0].Curve.Len() == 0 {
		t.Fatal("history-informed curve did not survive recovery")
	}
	if after := rec.Current()["j1"]; len(after) != want {
		t.Fatalf("recovered solve diverged: %d nodes, want %d (curve lost?)", len(after), want)
	}
}
