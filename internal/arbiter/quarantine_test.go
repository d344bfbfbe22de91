package arbiter

// Gray-failure quarantine tests: MarkDegraded excludes a fail-slow node
// from new allocations like a drain (serving but not allocatable),
// bounded by the capacity floor so correlated slowness degrades to
// deprioritization instead of an empty pool.

import (
	"testing"

	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

func TestMarkDegradedQuarantinesAndRestores(t *testing.T) {
	bus := mapping.NewBus()
	reg := telemetry.New()
	arb, err := New(policy.MCKP{}, addrs(12), bus)
	if err != nil {
		t.Fatal(err)
	}
	arb.Instrument(reg).WithQuarantine(2)
	got, err := arb.JobStarted(app(t, "IOR-MPI", "ior1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no initial allocation")
	}
	want := len(got)
	slow := got[0]
	versionBefore := bus.Current().Version

	if err := arb.Set(slow, nodestate.Degraded, true); err != nil {
		t.Fatalf("MarkDegraded: %v", err)
	}
	// The job moved off the slow node but kept its full allocation width
	// (the no-shrink invariant holds through a quarantine).
	if hit := assignedTo(arb.Current(), slow); len(hit) != 0 {
		t.Fatalf("quarantined node still assigned to %v (12-node pool has room)", hit)
	}
	if now := arb.Current()["ior1"]; len(now) != want {
		t.Fatalf("allocation width changed under quarantine: %d → %d", want, len(now))
	}
	if m := bus.Current(); m.Version <= versionBefore {
		t.Fatal("MarkDegraded must publish the re-arbitrated mapping")
	}
	// Quarantine is not down, not overloaded, not draining.
	if down := arb.With(nodestate.Down); len(down) != 0 {
		t.Fatalf("quarantine leaked into the down set: %v", down)
	}
	if ovl := arb.With(nodestate.Overloaded); len(ovl) != 0 {
		t.Fatalf("quarantine leaked into the overloaded set: %v", ovl)
	}
	if dr := arb.With(nodestate.Draining); len(dr) != 0 {
		t.Fatalf("quarantine leaked into the draining set: %v", dr)
	}
	if dg := arb.With(nodestate.Degraded); len(dg) != 1 || dg[0] != slow {
		t.Fatalf("Degraded() = %v, want [%s]", dg, slow)
	}
	if q := arb.Quarantined(); len(q) != 1 || q[0] != slow {
		t.Fatalf("Quarantined() = %v, want [%s]", q, slow)
	}
	if got := reg.Counter("arbiter_quarantine_marked_total").Value(); got != 1 {
		t.Fatalf("arbiter_quarantine_marked_total = %d, want 1", got)
	}
	if got := reg.Gauge("arbiter_quarantine_ions").Value(); got != 1 {
		t.Fatalf("arbiter_quarantine_ions = %d, want 1", got)
	}
	if got := reg.Gauge("arbiter_ions_live").Value(); got != 12 {
		t.Fatalf("arbiter_ions_live = %d, want 12 — quarantine must not shrink the pool", got)
	}

	// Idempotent re-mark.
	if err := arb.Set(slow, nodestate.Degraded, true); err != nil {
		t.Fatalf("second MarkDegraded: %v", err)
	}
	if got := reg.Counter("arbiter_quarantine_marked_total").Value(); got != 1 {
		t.Fatalf("re-mark counted twice: %d", got)
	}

	// Restore re-admits the node to the allocatable pool.
	if err := arb.Set(slow, nodestate.Degraded, false); err != nil {
		t.Fatalf("MarkRestored: %v", err)
	}
	if got := reg.Counter("arbiter_quarantine_restored_total").Value(); got != 1 {
		t.Fatalf("arbiter_quarantine_restored_total = %d, want 1", got)
	}
	if q := arb.Quarantined(); len(q) != 0 {
		t.Fatalf("Quarantined() after restore = %v", q)
	}
	if err := arb.Set(slow, nodestate.Degraded, false); err != nil { // idempotent
		t.Fatalf("second MarkRestored: %v", err)
	}
	if got := reg.Counter("arbiter_quarantine_restored_total").Value(); got != 1 {
		t.Fatalf("re-restore counted twice: %d", got)
	}
}

// TestQuarantineFloorHoldsCapacity pins the correlated-slowness bound:
// with a floor of 2 on a 3-node pool, degrading every node quarantines
// exactly one — the rest stay allocatable (deprioritized), and the app
// keeps its full width.
func TestQuarantineFloorHoldsCapacity(t *testing.T) {
	bus := mapping.NewBus()
	reg := telemetry.New()
	pool := addrs(3)
	arb, err := New(policy.MCKP{}, pool, bus)
	if err != nil {
		t.Fatal(err)
	}
	arb.Instrument(reg).WithQuarantine(2)
	if _, err := arb.JobStarted(app(t, "IOR-MPI", "ior1")); err != nil {
		t.Fatal(err)
	}
	width := len(arb.Current()["ior1"])
	for _, addr := range pool {
		if err := arb.Set(addr, nodestate.Degraded, true); err != nil {
			t.Fatalf("MarkDegraded(%s): %v", addr, err)
		}
	}
	if dg := arb.With(nodestate.Degraded); len(dg) != 3 {
		t.Fatalf("Degraded() = %v, want all 3 marks recorded", dg)
	}
	// Only the first node (stable pool order) is effectively quarantined.
	if q := arb.Quarantined(); len(q) != 1 || q[0] != pool[0] {
		t.Fatalf("Quarantined() = %v, want [%s] (floor 2 on a 3-node pool)", q, pool[0])
	}
	if got := reg.Gauge("arbiter_quarantine_ions").Value(); got != 1 {
		t.Fatalf("arbiter_quarantine_ions = %d, want 1", got)
	}
	if got := reg.Gauge("arbiter_quarantine_floor_held").Value(); got != 2 {
		t.Fatalf("arbiter_quarantine_floor_held = %d, want 2", got)
	}
	// The app still holds its full width on the floor-held nodes.
	if now := arb.Current()["ior1"]; len(now) != width {
		t.Fatalf("allocation width collapsed under correlated slowness: %d → %d", width, len(now))
	}
	if hit := assignedTo(arb.Current(), pool[0]); len(hit) != 0 && width < 3 {
		t.Fatalf("quarantined node %s still assigned: %v", pool[0], hit)
	}
	// New jobs can still start: the floor guarantees allocatable nodes.
	if _, err := arb.JobStarted(app(t, "POSIX-S", "ior2")); err != nil {
		t.Fatalf("JobStarted with every node degraded: %v", err)
	}
}

// TestQuarantineInterplay pins the state lattice against the stronger
// planes: down holds the degraded mark without double-excluding, drain
// wins over a later mark, and a mark on a down node takes effect when
// the node rises.
func TestQuarantineInterplay(t *testing.T) {
	bus := mapping.NewBus()
	arb, err := New(policy.MCKP{}, addrs(4), bus)
	if err != nil {
		t.Fatal(err)
	}
	arb.Instrument(telemetry.New()).WithQuarantine(1)
	pool := arb.Pool()

	// Degrade then down: the mark persists, the down exclusion rules.
	if err := arb.Set(pool[0], nodestate.Degraded, true); err != nil {
		t.Fatal(err)
	}
	if err := arb.Set(pool[0], nodestate.Down, true); err != nil {
		t.Fatal(err)
	}
	if !arb.Has(pool[0], nodestate.Degraded) {
		t.Fatal("down cleared the degraded mark; it must persist")
	}
	if q := arb.Quarantined(); len(q) != 0 {
		t.Fatalf("down node counted as quarantined: %v", q)
	}
	// It rises still degraded: quarantine resumes.
	if err := arb.Set(pool[0], nodestate.Down, false); err != nil {
		t.Fatal(err)
	}
	if q := arb.Quarantined(); len(q) != 1 || q[0] != pool[0] {
		t.Fatalf("Quarantined() after rise = %v, want [%s]", q, pool[0])
	}
	if err := arb.Set(pool[0], nodestate.Degraded, false); err != nil {
		t.Fatal(err)
	}

	// Drain wins: a mark on a draining node is dropped.
	if err := arb.Set(pool[1], nodestate.Draining, true); err != nil {
		t.Fatal(err)
	}
	if err := arb.Set(pool[1], nodestate.Degraded, true); err != nil {
		t.Fatal(err)
	}
	if arb.Has(pool[1], nodestate.Degraded) {
		t.Fatal("degraded mark stuck to a draining node; drain is stronger")
	}

	// Unknown address is refused.
	if err := arb.Set("nope:1", nodestate.Degraded, true); err == nil {
		t.Fatal("MarkDegraded on an unknown node must fail")
	}
	if err := arb.Set("nope:1", nodestate.Degraded, false); err == nil {
		t.Fatal("MarkRestored on an unknown node must fail")
	}

	// RemoveION forgets the mark entirely.
	if err := arb.Set(pool[2], nodestate.Degraded, true); err != nil {
		t.Fatal(err)
	}
	if err := arb.RemoveION(pool[2]); err != nil {
		t.Fatal(err)
	}
	if err := arb.AddION(pool[2]); err != nil {
		t.Fatal(err)
	}
	if arb.Has(pool[2], nodestate.Degraded) {
		t.Fatal("degraded mark survived RemoveION + AddION")
	}
}

// TestQuarantineSeriesAbsentWithoutOptIn pins the lazy-registration
// contract: an arbiter that never calls WithQuarantine exposes no
// arbiter_quarantine_* series.
func TestQuarantineSeriesAbsentWithoutOptIn(t *testing.T) {
	reg := telemetry.New()
	arb, err := New(policy.MCKP{}, addrs(4), mapping.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	arb.Instrument(reg)
	if _, err := arb.JobStarted(app(t, "IOR-MPI", "ior1")); err != nil {
		t.Fatal(err)
	}
	// MarkDegraded still works without the opt-in chain (default floor
	// 1); it just stays un-instrumented.
	if err := arb.Set(arb.Pool()[0], nodestate.Degraded, true); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	for name := range snap.Counters {
		if name == "arbiter_quarantine_marked_total" || name == "arbiter_quarantine_restored_total" {
			t.Fatalf("series %s registered without WithQuarantine", name)
		}
	}
	for name := range snap.Gauges {
		if name == "arbiter_quarantine_ions" || name == "arbiter_quarantine_floor_held" {
			t.Fatalf("gauge %s registered without WithQuarantine", name)
		}
	}
}
