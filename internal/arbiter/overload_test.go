package arbiter

// Overload-steering tests: MarkOverloaded deprioritizes a node without
// removing it — jobs drift off while healthy capacity exists, but a pool
// too small to avoid the hot node still uses it (capacity is never
// destroyed, unlike MarkDown).

import (
	"errors"
	"testing"

	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

func TestMarkOverloadedSteersJobsAway(t *testing.T) {
	bus := mapping.NewBus()
	reg := telemetry.New()
	arb, err := New(policy.MCKP{}, addrs(12), bus)
	if err != nil {
		t.Fatal(err)
	}
	arb.Instrument(reg)
	got, err := arb.JobStarted(app(t, "IOR-MPI", "ior1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 {
		t.Fatal("no initial allocation")
	}
	want := len(got)
	hot := got[0]
	versionBefore := bus.Current().Version

	if err := arb.Set(hot, nodestate.Overloaded, true); err != nil {
		t.Fatalf("MarkOverloaded: %v", err)
	}
	// The job moved off the hot node but kept its full allocation width.
	if hit := assignedTo(arb.Current(), hot); len(hit) != 0 {
		t.Fatalf("overloaded node still assigned to %v (12-node pool has room)", hit)
	}
	if now := arb.Current()["ior1"]; len(now) != want {
		t.Fatalf("allocation width changed under overload: %d → %d", want, len(now))
	}
	if m := bus.Current(); m.Version <= versionBefore {
		t.Fatal("MarkOverloaded must publish the re-arbitrated mapping")
	}
	// Unlike MarkDown, the node is still live and not down.
	if down := arb.With(nodestate.Down); len(down) != 0 {
		t.Fatalf("overload leaked into the down set: %v", down)
	}
	if ovl := arb.With(nodestate.Overloaded); len(ovl) != 1 || ovl[0] != hot {
		t.Fatalf("Overloaded() = %v, want [%s]", ovl, hot)
	}
	if got := reg.Counter("arbiter_marked_overloaded_total").Value(); got != 1 {
		t.Fatalf("arbiter_marked_overloaded_total = %d, want 1", got)
	}
	if got := reg.Gauge("arbiter_ions_overloaded").Value(); got != 1 {
		t.Fatalf("arbiter_ions_overloaded = %d, want 1", got)
	}
	if got := reg.Gauge("arbiter_ions_live").Value(); got != 12 {
		t.Fatalf("arbiter_ions_live = %d, want 12 — overload must not shrink the pool", got)
	}

	// Idempotent re-mark.
	if err := arb.Set(hot, nodestate.Overloaded, true); err != nil {
		t.Fatalf("second MarkOverloaded: %v", err)
	}
	if got := reg.Counter("arbiter_marked_overloaded_total").Value(); got != 1 {
		t.Fatalf("re-mark counted twice: %d", got)
	}

	// Recovery re-admits the node to the preferred set.
	if err := arb.Set(hot, nodestate.Overloaded, false); err != nil {
		t.Fatalf("MarkRecovered: %v", err)
	}
	if got := reg.Counter("arbiter_overload_recovered_total").Value(); got != 1 {
		t.Fatalf("arbiter_overload_recovered_total = %d, want 1", got)
	}
	if got := reg.Gauge("arbiter_ions_overloaded").Value(); got != 0 {
		t.Fatalf("arbiter_ions_overloaded = %d, want 0 after recovery", got)
	}
	if err := arb.Set(hot, nodestate.Overloaded, false); err != nil {
		t.Fatalf("recovering a healthy node must be a no-op: %v", err)
	}
}

func TestOverloadedNodeStillUsedWhenPoolIsTight(t *testing.T) {
	bus := mapping.NewBus()
	arb, err := New(policy.MCKP{}, addrs(2), bus)
	if err != nil {
		t.Fatal(err)
	}
	got, err := arb.JobStarted(app(t, "IOR-MPI", "ior1"))
	if err != nil {
		t.Fatal(err)
	}
	want := len(got)
	if want < 2 {
		t.Skipf("policy allocated %d of 2 nodes; need the full pool to exercise tightness", want)
	}

	// Both nodes are in use; marking one overloaded cannot halve the job.
	if err := arb.Set(got[0], nodestate.Overloaded, true); err != nil {
		t.Fatalf("MarkOverloaded: %v", err)
	}
	now := arb.Current()["ior1"]
	if len(now) != want {
		t.Fatalf("tight pool: allocation width %d → %d; overloaded capacity must remain usable", want, len(now))
	}
	used := false
	for _, a := range now {
		if a == got[0] {
			used = true
		}
	}
	if !used {
		t.Fatal("the overloaded node should still serve when the pool cannot cover the allocation without it")
	}
}

func TestOverloadedNodesComeLastWhenGrowing(t *testing.T) {
	pool := addrs(4)
	bus := mapping.NewBus()
	arb, err := New(policy.MCKP{}, pool, bus)
	if err != nil {
		t.Fatal(err)
	}
	// Mark a node overloaded before any job exists: the first arbitration
	// must already prefer the healthy nodes.
	if err := arb.Set(pool[0], nodestate.Overloaded, true); err != nil {
		t.Fatal(err)
	}
	got, err := arb.JobStarted(app(t, "IOR-MPI", "ior1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) >= len(pool) {
		t.Skipf("job took %d of %d nodes; cannot observe preference", len(got), len(pool))
	}
	for _, a := range got {
		if a == pool[0] {
			t.Fatalf("allocation %v includes the overloaded node although %d healthy nodes sufficed", got, len(got))
		}
	}
}

func TestMarkOverloadedUnknownAddr(t *testing.T) {
	arb, err := New(policy.MCKP{}, addrs(2), mapping.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	if err := arb.Set("10.0.0.99:1", nodestate.Overloaded, true); !errors.Is(err, ErrUnknownION) {
		t.Fatalf("MarkOverloaded(unknown) = %v, want ErrUnknownION", err)
	}
	if err := arb.Set("10.0.0.99:1", nodestate.Overloaded, false); !errors.Is(err, ErrUnknownION) {
		t.Fatalf("MarkRecovered(unknown) = %v, want ErrUnknownION", err)
	}
}
