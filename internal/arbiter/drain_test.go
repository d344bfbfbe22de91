package arbiter

// Elasticity tests: the graceful drain state (exclusion under the
// no-shrink invariant, rollback on infeasibility, interleavings with the
// down and overloaded marks) and dynamic pool membership (AddION /
// RemoveION), plus the idempotency table for every mark transition.

import (
	"errors"
	"testing"

	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

func TestDrainExcludesNodeKeepsAllocationCount(t *testing.T) {
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
	victim := got[0]
	want := len(got)

	if err := arb.Set(victim, nodestate.Draining, true); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	cur := arb.Current()["ior1"]
	if len(cur) != want {
		t.Fatalf("no-shrink violated: %d nodes after drain, want %d", len(cur), want)
	}
	if hit := assignedTo(arb.Current(), victim); len(hit) != 0 {
		t.Fatalf("draining node still assigned to %v", hit)
	}
	for _, addr := range bus.Current().For("ior1") {
		if addr == victim {
			t.Fatalf("published mapping routes to the draining node: %v", bus.Current().For("ior1"))
		}
	}
	if d := arb.With(nodestate.Draining); len(d) != 1 || d[0] != victim {
		t.Fatalf("Draining() = %v, want [%s]", d, victim)
	}
	if !arb.Has(victim, nodestate.Draining) {
		t.Fatal("IsDraining(victim) = false")
	}
	if got := reg.Counter("arbiter_drains_started_total").Value(); got != 1 {
		t.Fatalf("arbiter_drains_started_total = %d, want 1", got)
	}
	if got := reg.Gauge("arbiter_ions_draining").Value(); got != 1 {
		t.Fatalf("arbiter_ions_draining = %d, want 1", got)
	}
	// Unlike down, a draining node still counts as live — it is healthy.
	if got := reg.Gauge("arbiter_ions_live").Value(); got != 12 {
		t.Fatalf("arbiter_ions_live = %d, want 12", got)
	}

	// A new job must not land on the draining node either.
	if _, err := arb.JobStarted(app(t, "HACC", "hacc1")); err != nil {
		t.Fatalf("JobStarted during drain: %v", err)
	}
	if hit := assignedTo(arb.Current(), victim); len(hit) != 0 {
		t.Fatalf("new job placed on draining node: %v", hit)
	}
}

func TestDrainRefusedWhenInfeasible(t *testing.T) {
	bus := mapping.NewBus()
	arb, err := New(policy.MCKP{}, addrs(1), bus)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := arb.JobStarted(app(t, "IOR-MPI", "ior1")); err != nil {
		t.Fatal(err)
	}
	only := arb.Pool()[0]
	before := arb.Current()
	if err := arb.Set(only, nodestate.Draining, true); err == nil {
		t.Fatal("draining the only node with a running job must be refused")
	} else if !errors.Is(err, ErrNoLiveIONs) {
		t.Fatalf("want ErrNoLiveIONs, got %v", err)
	}
	if arb.Has(only, nodestate.Draining) {
		t.Fatal("refused drain left the draining mark set")
	}
	after := arb.Current()
	if len(after["ior1"]) != len(before["ior1"]) {
		t.Fatalf("refused drain changed the mapping: %v → %v", before, after)
	}
}

func TestDrainOfDownNodeRefused(t *testing.T) {
	arb, err := New(policy.MCKP{}, addrs(3), mapping.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	if err := arb.Set(arb.Pool()[0], nodestate.Down, true); err != nil {
		t.Fatal(err)
	}
	if err := arb.Set(arb.Pool()[0], nodestate.Draining, true); !errors.Is(err, ErrIONDown) {
		t.Fatalf("want ErrIONDown, got %v", err)
	}
	if err := arb.Set("nobody:1", nodestate.Draining, true); !errors.Is(err, ErrUnknownION) {
		t.Fatalf("want ErrUnknownION, got %v", err)
	}
}

func TestMarkDownAbortsDrain(t *testing.T) {
	// The ION dies mid-drain: the graceful exit must collapse cleanly
	// into the hard one — draining mark cleared, down mark set, one
	// aborted-drain count, mapping still avoiding the node.
	reg := telemetry.New()
	arb, err := New(policy.MCKP{}, addrs(4), mapping.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	arb.Instrument(reg)
	if _, err := arb.JobStarted(app(t, "IOR-MPI", "ior1")); err != nil {
		t.Fatal(err)
	}
	victim := arb.Pool()[0]
	if err := arb.Set(victim, nodestate.Draining, true); err != nil {
		t.Fatal(err)
	}
	if err := arb.Set(victim, nodestate.Down, true); err != nil {
		t.Fatalf("MarkDown mid-drain: %v", err)
	}
	if arb.Has(victim, nodestate.Draining) {
		t.Fatal("down node still marked draining")
	}
	if down := arb.With(nodestate.Down); len(down) != 1 || down[0] != victim {
		t.Fatalf("Down() = %v, want [%s]", down, victim)
	}
	if got := reg.Counter("arbiter_drains_aborted_total").Value(); got != 1 {
		t.Fatalf("arbiter_drains_aborted_total = %d, want 1", got)
	}
	if got := reg.Gauge("arbiter_ions_draining").Value(); got != 0 {
		t.Fatalf("arbiter_ions_draining = %d, want 0", got)
	}
	// The node can come back as a normal member afterwards.
	if err := arb.Set(victim, nodestate.Down, false); err != nil {
		t.Fatalf("MarkUp after aborted drain: %v", err)
	}
}

func TestMarkOverloadedOnDrainingNodeIsNoOp(t *testing.T) {
	// Drain wins: an overload signal for a node already excluded from
	// every allocation must not flip state or re-arbitrate.
	reg := telemetry.New()
	arb, err := New(policy.MCKP{}, addrs(4), mapping.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	arb.Instrument(reg)
	if _, err := arb.JobStarted(app(t, "IOR-MPI", "ior1")); err != nil {
		t.Fatal(err)
	}
	victim := arb.Pool()[0]
	if err := arb.Set(victim, nodestate.Draining, true); err != nil {
		t.Fatal(err)
	}
	solves := reg.Counter("arbiter_solves_total").Value()
	if err := arb.Set(victim, nodestate.Overloaded, true); err != nil {
		t.Fatalf("MarkOverloaded on draining node: %v", err)
	}
	if got := len(arb.With(nodestate.Overloaded)); got != 0 {
		t.Fatalf("draining node became overloaded: %v", arb.With(nodestate.Overloaded))
	}
	if got := reg.Counter("arbiter_marked_overloaded_total").Value(); got != 0 {
		t.Fatalf("arbiter_marked_overloaded_total = %d, want 0", got)
	}
	if got := reg.Counter("arbiter_solves_total").Value(); got != solves {
		t.Fatalf("MarkOverloaded on draining node re-arbitrated: %d solves, want %d", got, solves)
	}
}

func TestAbortDrainReturnsNodeToPool(t *testing.T) {
	reg := telemetry.New()
	arb, err := New(policy.MCKP{}, addrs(2), mapping.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	arb.Instrument(reg)
	if _, err := arb.JobStarted(app(t, "IOR-MPI", "ior1")); err != nil {
		t.Fatal(err)
	}
	victim := arb.Pool()[0]
	if err := arb.Set(victim, nodestate.Draining, true); err != nil {
		t.Fatal(err)
	}
	if err := arb.Set(victim, nodestate.Draining, false); err != nil {
		t.Fatalf("AbortDrain: %v", err)
	}
	if arb.Has(victim, nodestate.Draining) {
		t.Fatal("node still draining after abort")
	}
	if got := reg.Counter("arbiter_drains_aborted_total").Value(); got != 1 {
		t.Fatalf("arbiter_drains_aborted_total = %d, want 1", got)
	}
	// Aborting a non-draining node is a no-op, not an error.
	if err := arb.Set(victim, nodestate.Draining, false); err != nil {
		t.Fatalf("second AbortDrain: %v", err)
	}
	if got := reg.Counter("arbiter_drains_aborted_total").Value(); got != 1 {
		t.Fatalf("no-op abort counted: %d", got)
	}
}

func TestAddIONGrowsPoolAndSpreads(t *testing.T) {
	reg := telemetry.New()
	arb, err := New(policy.MCKP{}, addrs(1), mapping.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	arb.Instrument(reg)
	got, err := arb.JobStarted(app(t, "IOR-MPI", "ior1"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("initial allocation %v, want 1 node", got)
	}
	for _, addr := range []string{"new0:1", "new1:1", "new2:1"} {
		if err := arb.AddION(addr); err != nil {
			t.Fatalf("AddION(%s): %v", addr, err)
		}
	}
	if got := len(arb.Pool()); got != 4 {
		t.Fatalf("pool = %d, want 4", got)
	}
	if got := reg.Gauge("arbiter_ions_live").Value(); got != 4 {
		t.Fatalf("arbiter_ions_live = %d, want 4", got)
	}
	if got := len(arb.Current()["ior1"]); got <= 1 {
		t.Fatalf("job did not spread onto added capacity: %d nodes", got)
	}
	if err := arb.AddION("new0:1"); err == nil {
		t.Fatal("duplicate AddION must fail")
	}
	if err := arb.AddION(""); err == nil {
		t.Fatal("empty AddION must fail")
	}
}

func TestRemoveIONRefusedWhileAssigned(t *testing.T) {
	arb, err := New(policy.MCKP{}, addrs(2), mapping.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	got, err := arb.JobStarted(app(t, "IOR-MPI", "ior1"))
	if err != nil {
		t.Fatal(err)
	}
	busy := got[0]
	if err := arb.RemoveION(busy); !errors.Is(err, ErrIONAssigned) {
		t.Fatalf("want ErrIONAssigned, got %v", err)
	}
	// After a drain the node routes nothing and removal succeeds.
	if err := arb.Set(busy, nodestate.Draining, true); err != nil {
		t.Fatal(err)
	}
	if err := arb.RemoveION(busy); err != nil {
		t.Fatalf("RemoveION after drain: %v", err)
	}
	if got := len(arb.Pool()); got != 1 {
		t.Fatalf("pool = %d, want 1", got)
	}
	if arb.Has(busy, nodestate.Draining) {
		t.Fatal("removed node still tracked as draining")
	}
	if err := arb.RemoveION(busy); !errors.Is(err, ErrUnknownION) {
		t.Fatalf("second RemoveION: want ErrUnknownION, got %v", err)
	}
}

// TestMarkIdempotencyTable pins that every state transition is idempotent
// on repeated calls for the same address: no second re-arbitration, no
// counter double-count, no gauge drift.
func TestMarkIdempotencyTable(t *testing.T) {
	set := func(f nodestate.Flag, on bool) func(*Arbiter, string) error {
		return func(a *Arbiter, addr string) error { return a.Set(addr, f, on) }
	}
	cases := []struct {
		name    string
		prep    func(a *Arbiter, addr string) error // reach the state once
		again   func(a *Arbiter, addr string) error // repeat the call
		counter string
	}{
		{"MarkDown", set(nodestate.Down, true), set(nodestate.Down, true), "arbiter_marked_down_total"},
		{"MarkUp", func(a *Arbiter, addr string) error {
			if err := a.Set(addr, nodestate.Down, true); err != nil {
				return err
			}
			return a.Set(addr, nodestate.Down, false)
		}, set(nodestate.Down, false), "arbiter_marked_up_total"},
		{"MarkOverloaded", set(nodestate.Overloaded, true), set(nodestate.Overloaded, true), "arbiter_marked_overloaded_total"},
		{"MarkRecovered", func(a *Arbiter, addr string) error {
			if err := a.Set(addr, nodestate.Overloaded, true); err != nil {
				return err
			}
			return a.Set(addr, nodestate.Overloaded, false)
		}, set(nodestate.Overloaded, false), "arbiter_overload_recovered_total"},
		{"Drain", set(nodestate.Draining, true), set(nodestate.Draining, true), "arbiter_drains_started_total"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			reg := telemetry.New()
			bus := mapping.NewBus()
			arb, err := New(policy.MCKP{}, addrs(6), bus)
			if err != nil {
				t.Fatal(err)
			}
			arb.Instrument(reg)
			if _, err := arb.JobStarted(app(t, "IOR-MPI", "ior1")); err != nil {
				t.Fatal(err)
			}
			addr := arb.Pool()[0]
			if err := tc.prep(arb, addr); err != nil {
				t.Fatalf("prep: %v", err)
			}
			count := reg.Counter(tc.counter).Value()
			solves := reg.Counter("arbiter_solves_total").Value()
			version := bus.Current().Version
			gauges := map[string]int64{}
			for _, g := range []string{"arbiter_ions_down", "arbiter_ions_live", "arbiter_ions_overloaded", "arbiter_ions_draining"} {
				gauges[g] = reg.Gauge(g).Value()
			}

			if err := tc.again(arb, addr); err != nil {
				t.Fatalf("repeat: %v", err)
			}
			if got := reg.Counter(tc.counter).Value(); got != count {
				t.Fatalf("%s drifted on repeat: %d → %d", tc.counter, count, got)
			}
			if got := reg.Counter("arbiter_solves_total").Value(); got != solves {
				t.Fatalf("repeated call re-arbitrated: %d solves, want %d", got, solves)
			}
			if got := bus.Current().Version; got != version {
				t.Fatalf("repeated call published: version %d → %d", version, got)
			}
			for g, want := range gauges {
				if got := reg.Gauge(g).Value(); got != want {
					t.Fatalf("gauge %s drifted on repeat: %d → %d", g, want, got)
				}
			}
		})
	}
}
