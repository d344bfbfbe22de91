package elastic

// Deterministic scaler tests: every case drives Tick by hand with an
// injected clock and fake pool/provisioner/health seams, so hysteresis
// windows, cooldowns, backoff, the breaker, and both lifecycles are
// pinned tick by tick with no real time involved.

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/nodestate"
	"repro/internal/telemetry"
)

type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

// fakePool records arbiter calls.
type fakePool struct {
	draining map[string]bool
	assigned map[string]bool // RemoveION refused while set
	drainErr error
	adds     []string
	removes  []string
	aborts   []string
}

func newFakePool() *fakePool {
	return &fakePool{draining: map[string]bool{}, assigned: map[string]bool{}}
}
func (p *fakePool) AddION(addr string) error {
	p.adds = append(p.adds, addr)
	return nil
}
func (p *fakePool) Set(addr string, f nodestate.Flag, on bool) error {
	switch {
	case f != nodestate.Draining:
	case !on:
		delete(p.draining, addr)
		p.aborts = append(p.aborts, addr)
	case p.drainErr != nil:
		return p.drainErr
	default:
		p.draining[addr] = true
	}
	return nil
}
func (p *fakePool) RemoveION(addr string) error {
	if p.assigned[addr] {
		return errors.New("still assigned")
	}
	delete(p.draining, addr)
	p.removes = append(p.removes, addr)
	return nil
}

// fakeHealth is a hand-set liveness/load plane.
type fakeHealth struct {
	up      map[string]bool
	depth   map[string]int64
	age     map[string]time.Duration // sample age override; absent = fresh
	added   map[string]bool          // posture recorded at Add: the seeded up value
	removed []string
}

func newFakeHealth() *fakeHealth {
	return &fakeHealth{
		up: map[string]bool{}, depth: map[string]int64{},
		age: map[string]time.Duration{}, added: map[string]bool{},
	}
}
func (h *fakeHealth) Add(addr string, up bool) error {
	if _, dup := h.up[addr]; dup {
		return errors.New("duplicate")
	}
	h.up[addr] = up
	h.added[addr] = up
	return nil
}
func (h *fakeHealth) Remove(addr string) {
	delete(h.up, addr)
	delete(h.depth, addr)
	h.removed = append(h.removed, addr)
}
func (h *fakeHealth) Has(addr string, f nodestate.Flag) bool {
	return f == nodestate.Down && !h.up[addr]
}
func (h *fakeHealth) Load() map[string]int64 {
	out := map[string]int64{}
	for addr, up := range h.up {
		if up {
			out[addr] = h.depth[addr]
		}
	}
	return out
}
func (h *fakeHealth) LoadAges() map[string]time.Duration {
	out := map[string]time.Duration{}
	for addr, up := range h.up {
		if up {
			out[addr] = h.age[addr] // zero (fresh) unless a test sets it
		}
	}
	return out
}

// fakeProv hands out addresses ion10:1, ion11:1, … and can be told to
// fail the next N calls.
type fakeProv struct {
	next           int
	failNext       int
	provisioned    []string
	decommissioned []string
}

func (p *fakeProv) Provision() (string, error) {
	if p.failNext > 0 {
		p.failNext--
		return "", errors.New("provisioner outage")
	}
	addr := fmt.Sprintf("ion%d:1", 10+p.next)
	p.next++
	p.provisioned = append(p.provisioned, addr)
	return addr, nil
}
func (p *fakeProv) Decommission(addr string) error {
	p.decommissioned = append(p.decommissioned, addr)
	return nil
}

// rig bundles a scaler with its seams, two initial up members, and a
// 100ms tick the tests advance by hand.
type rig struct {
	s      *Scaler
	pool   *fakePool
	prov   *fakeProv
	health *fakeHealth
	clk    *fakeClock
	reg    *telemetry.Registry
}

func (r *rig) tick() {
	r.clk.advance(100 * time.Millisecond)
	r.s.Tick()
}

func (r *rig) counter(name string) int64 { return r.reg.Counter(name).Value() }

func newRig(t *testing.T, mutate func(*Config)) *rig {
	t.Helper()
	clk := &fakeClock{t: time.Unix(1000, 0)}
	pool := newFakePool()
	prov := &fakeProv{}
	health := newFakeHealth()
	reg := telemetry.New()
	quiet := map[string]bool{}
	cfg := Config{
		Min:                 2,
		Max:                 6,
		UpWatermark:         8,
		DownWatermark:       1,
		UpSustain:           3,
		DownSustain:         4,
		UpCooldown:          time.Second,
		DownCooldown:        2 * time.Second,
		MaxStep:             1,
		DrainDeadline:       3 * time.Second,
		QuiesceSweeps:       2,
		RiseTimeout:         time.Second,
		ProvisionBackoff:    200 * time.Millisecond,
		ProvisionBackoffMax: time.Second,
		BreakerThreshold:    3,
		BreakerCooldown:     5 * time.Second,
		Quiesced:            func(addr string) bool { return quiet[addr] },
		Now:                 clk.now,
		Telemetry:           reg,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	initial := []string{"ion0:1", "ion1:1"}
	for _, a := range initial {
		health.up[a] = true
	}
	s, err := New(cfg, pool, prov, health, initial)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{s: s, pool: pool, prov: prov, health: health, clk: clk, reg: reg}
}

// setDepth sets every up member's sampled depth.
func (r *rig) setDepth(d int64) {
	for addr, up := range r.health.up {
		if up {
			r.health.depth[addr] = d
		}
	}
}

func TestConfigValidation(t *testing.T) {
	base := Config{Min: 1, Max: 2, UpWatermark: 8, DownWatermark: 1, Quiesced: func(string) bool { return true }}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"min zero", func(c *Config) { c.Min = 0 }},
		{"max below min", func(c *Config) { c.Max = 0 }},
		{"no hysteresis band", func(c *Config) { c.DownWatermark = c.UpWatermark }},
		{"shrinkable without quiesce", func(c *Config) { c.Quiesced = nil }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base
			tc.mutate(&cfg)
			if _, err := New(cfg, newFakePool(), &fakeProv{}, newFakeHealth(), nil); err == nil {
				t.Fatal("want config error")
			}
		})
	}
	// Min == Max needs no Quiesced: the pool can never shrink.
	cfg := base
	cfg.Max = cfg.Min
	cfg.Quiesced = nil
	if _, err := New(cfg, newFakePool(), &fakeProv{}, newFakeHealth(), nil); err != nil {
		t.Fatalf("fixed-size config rejected: %v", err)
	}
}

func TestScaleUpNeedsSustainedSignalAndFirstRise(t *testing.T) {
	r := newRig(t, nil)
	r.setDepth(20) // far above the up watermark

	r.tick() // streak 1
	r.tick() // streak 2
	if len(r.prov.provisioned) != 0 {
		t.Fatalf("provisioned before UpSustain: %v", r.prov.provisioned)
	}
	r.tick() // streak 3 = UpSustain → provision
	if len(r.prov.provisioned) != 1 {
		t.Fatalf("provisioned = %v, want one node", r.prov.provisioned)
	}
	newAddr := r.prov.provisioned[0]
	if up, ok := r.health.added[newAddr]; !ok || up {
		t.Fatalf("new node must be health-added pessimistically down, got added=%v up=%v", ok, up)
	}
	if len(r.pool.adds) != 0 {
		t.Fatal("node handed to the arbiter before its first health rise")
	}
	if r.counter("elastic_scale_ups_total") != 0 {
		t.Fatal("scale-up counted before the node rose")
	}

	// The daemon rises; the next tick promotes it.
	r.health.up[newAddr] = true
	r.tick()
	if len(r.pool.adds) != 1 || r.pool.adds[0] != newAddr {
		t.Fatalf("arbiter adds = %v, want [%s]", r.pool.adds, newAddr)
	}
	if r.counter("elastic_scale_ups_total") != 1 {
		t.Fatalf("elastic_scale_ups_total = %d, want 1", r.counter("elastic_scale_ups_total"))
	}
	if got := r.reg.Gauge("elastic_pool_size").Value(); got != 3 {
		t.Fatalf("elastic_pool_size = %d, want 3", got)
	}
}

func TestScaleUpCooldownGatesNextGrowth(t *testing.T) {
	r := newRig(t, nil)
	r.setDepth(20)
	r.tick()
	r.tick()
	r.tick() // provision #1 fires; cooldown = 1s starts
	if len(r.prov.provisioned) != 1 {
		t.Fatalf("provisioned = %v, want 1", r.prov.provisioned)
	}
	r.health.up[r.prov.provisioned[0]] = true
	r.setDepth(20)
	// 5 more hot ticks = 500ms: sustain is long since met, but the
	// cooldown must hold the second grow until a full second passed.
	for i := 0; i < 5; i++ {
		r.tick()
		r.setDepth(20)
	}
	if len(r.prov.provisioned) != 1 {
		t.Fatalf("cooldown violated: provisioned %v", r.prov.provisioned)
	}
	for i := 0; i < 6; i++ { // past the 1s mark
		r.tick()
		r.setDepth(20)
	}
	if len(r.prov.provisioned) != 2 {
		t.Fatalf("provisioned = %v, want 2 after cooldown", r.prov.provisioned)
	}
}

// TestFlipQuietDampsReversal pins the reversal gate: after a scale-up,
// the opposite direction is quiet for FlipQuiet (default max of the two
// cooldowns — 2s in the rig), even once DownSustain is long since met.
// A grow is itself evidence of demand, and the remap stall it triggers
// briefly starves the depth signal, so an immediate shrink is a flap.
func TestFlipQuietDampsReversal(t *testing.T) {
	grow := func(r *rig) {
		r.setDepth(20)
		r.tick()
		r.tick()
		r.tick() // provision fires here: the flip clock starts
		if len(r.prov.provisioned) != 1 {
			t.Fatalf("provisioned = %v, want 1", r.prov.provisioned)
		}
		r.health.up[r.prov.provisioned[0]] = true
		r.tick() // promote: pool 3, shrinkable above Min
		if r.counter("elastic_scale_ups_total") != 1 {
			t.Fatalf("ups = %d, want 1", r.counter("elastic_scale_ups_total"))
		}
		r.setDepth(0) // the signal collapses the instant the node lands
	}

	t.Run("gated", func(t *testing.T) {
		r := newRig(t, nil)
		grow(r)
		// Sustain (4 ticks) is met at t=0.8s; the flip gate holds until
		// 2s after the provision decision at t=0.3s.
		for i := 0; i < 18; i++ { // up to t=2.2s
			r.tick()
		}
		if got := r.counter("elastic_drains_started_total"); got != 0 {
			t.Fatalf("drain started %d inside the flip-quiet window", got)
		}
		r.tick()
		r.tick() // past t=2.3s: the gate lifts, the held streak fires
		if got := r.counter("elastic_drains_started_total"); got != 1 {
			t.Fatalf("drains started = %d after flip-quiet, want 1", got)
		}
	})

	t.Run("near-zero quiet shrinks at sustain", func(t *testing.T) {
		r := newRig(t, func(c *Config) { c.FlipQuiet = time.Millisecond })
		grow(r)
		for i := 0; i < 4; i++ { // exactly DownSustain
			r.tick()
		}
		if got := r.counter("elastic_drains_started_total"); got != 1 {
			t.Fatalf("drains started = %d at sustain with no flip gate, want 1", got)
		}
	})
}

func TestHysteresisBandHoldsSteady(t *testing.T) {
	r := newRig(t, nil)
	r.setDepth(4) // between down (1) and up (8)
	for i := 0; i < 50; i++ {
		r.tick()
	}
	if len(r.prov.provisioned) != 0 || len(r.pool.draining) != 0 || len(r.pool.removes) != 0 {
		t.Fatalf("band breached: prov=%v draining=%v removes=%v",
			r.prov.provisioned, r.pool.draining, r.pool.removes)
	}
}

func TestMaxStepClampAndMaxBound(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.MaxStep = 4
		c.Max = 3 // only one above the initial two
	})
	r.setDepth(20)
	r.tick()
	r.tick()
	r.tick()
	if len(r.prov.provisioned) != 1 {
		t.Fatalf("Max bound violated: provisioned %v", r.prov.provisioned)
	}
}

func TestScaleDownDrainsQuiescesAndDecommissions(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Min = 1 })
	quiet := map[string]bool{}
	r.s.cfg.Quiesced = func(addr string) bool { return quiet[addr] }
	r.health.depth["ion0:1"] = 0
	r.health.depth["ion1:1"] = 1

	for i := 0; i < 3; i++ {
		r.tick()
	}
	if len(r.pool.draining) != 0 {
		t.Fatalf("drained before DownSustain: %v", r.pool.draining)
	}
	r.tick() // streak 4 = DownSustain → drain the least-loaded node
	if !r.pool.draining["ion0:1"] {
		t.Fatalf("victim = %v, want the least-depth node ion0:1", r.pool.draining)
	}
	if r.counter("elastic_drains_started_total") != 1 {
		t.Fatal("drain not counted")
	}

	// Not quiet yet: the drain must wait.
	r.tick()
	if len(r.pool.removes) != 0 {
		t.Fatal("removed before quiescence")
	}
	// Quiet for QuiesceSweeps (2) consecutive ticks completes the drain.
	quiet["ion0:1"] = true
	r.tick()
	r.tick()
	if len(r.pool.removes) != 1 || r.pool.removes[0] != "ion0:1" {
		t.Fatalf("removes = %v, want [ion0:1]", r.pool.removes)
	}
	if len(r.prov.decommissioned) != 1 || r.prov.decommissioned[0] != "ion0:1" {
		t.Fatalf("decommissioned = %v, want [ion0:1]", r.prov.decommissioned)
	}
	if len(r.health.removed) != 1 || r.health.removed[0] != "ion0:1" {
		t.Fatalf("health removed = %v, want [ion0:1]", r.health.removed)
	}
	if r.counter("elastic_scale_downs_total") != 1 {
		t.Fatal("scale-down not counted")
	}
	if got := r.reg.Gauge("elastic_pool_size").Value(); got != 1 {
		t.Fatalf("elastic_pool_size = %d, want 1", got)
	}
}

func TestMinFloorBlocksScaleDown(t *testing.T) {
	r := newRig(t, nil) // Min = 2 = initial size
	r.setDepth(0)
	for i := 0; i < 20; i++ {
		r.tick()
	}
	if len(r.pool.draining) != 0 {
		t.Fatalf("pool shrank below Min: %v", r.pool.draining)
	}
}

// An in-flight provision must never cover for a drain: the rise can
// still roll back, and if it does, the drain it "covered" completes and
// the settled pool undershoots Min. Shrink is budgeted against members
// actually here and staying, growth stays optimistic.
func TestInFlightProvisionNeverCoversADrain(t *testing.T) {
	r := newRig(t, nil) // Min = 2 = initial size
	// Sustained demand starts one provision; the newcomer never rises.
	r.setDepth(10)
	for i := 0; i < 3; i++ {
		r.tick()
	}
	if got := len(r.prov.provisioned); got != 1 {
		t.Fatalf("provisions in flight = %d, want 1", got)
	}
	// The signal collapses while the rise is pending. The optimistic
	// size (members + provisioning = 3) is above Min, but only 2 nodes
	// are settled: no drain may start. Keep ticking through the rise
	// deadline so the rollback lands too.
	r.setDepth(0)
	for i := 0; i < 15; i++ {
		r.tick()
	}
	if got := r.counter("elastic_drains_started_total"); got != 0 {
		t.Fatalf("drains started = %d, want 0 (an in-flight provision covered a drain)", got)
	}
	if got := r.counter("elastic_provision_rollbacks_total"); got != 1 {
		t.Fatalf("rollbacks = %d, want 1 (the pending rise must time out)", got)
	}
	if got := len(r.s.Members()); got != 2 {
		t.Fatalf("members = %d, want 2: the pool left its floor", got)
	}
}

func TestDrainAbortsWhenNodeDies(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Min = 1 })
	r.setDepth(0)
	for i := 0; i < 4; i++ {
		r.tick()
	}
	victim := ""
	for addr := range r.pool.draining {
		victim = addr
	}
	if victim == "" {
		t.Fatal("no drain started")
	}
	// The nemesis kills the draining node: the drain must abort, the
	// node must NOT be decommissioned (warm restart may revive it), and
	// it must stay a member.
	r.health.up[victim] = false
	r.tick()
	if r.counter("elastic_drains_aborted_total") != 1 {
		t.Fatal("aborted drain not counted")
	}
	if len(r.prov.decommissioned) != 0 {
		t.Fatalf("dead draining node was decommissioned: %v", r.prov.decommissioned)
	}
	found := false
	for _, m := range r.s.Members() {
		if m == victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("aborted-drain node dropped from members: %v", r.s.Members())
	}
	if len(r.pool.aborts) == 0 {
		t.Fatal("arbiter AbortDrain never called")
	}
}

func TestDrainForcedPastDeadline(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Min = 1 })
	r.s.cfg.Quiesced = func(string) bool { return false } // never quiet
	r.setDepth(0)
	for i := 0; i < 4; i++ {
		r.tick()
	}
	if len(r.pool.draining) != 1 {
		t.Fatalf("draining = %v, want 1", r.pool.draining)
	}
	// DrainDeadline is 3s; 100ms ticks need 30 more to cross it.
	for i := 0; i < 31; i++ {
		r.tick()
	}
	if r.counter("elastic_drains_forced_total") != 1 {
		t.Fatalf("elastic_drains_forced_total = %d, want 1", r.counter("elastic_drains_forced_total"))
	}
	if len(r.pool.removes) != 1 {
		t.Fatalf("forced drain did not complete: removes = %v", r.pool.removes)
	}
}

func TestDrainRefusedByArbiterStopsCleanly(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Min = 1 })
	r.pool.drainErr = errors.New("infeasible")
	r.setDepth(0)
	for i := 0; i < 10; i++ {
		r.tick()
	}
	if r.counter("elastic_drains_refused_total") == 0 {
		t.Fatal("refused drain not counted")
	}
	if len(r.pool.removes) != 0 || len(r.prov.decommissioned) != 0 {
		t.Fatal("refused drain still decommissioned something")
	}
}

func TestProvisionRollbackWhenNodeNeverRises(t *testing.T) {
	r := newRig(t, nil)
	r.setDepth(20)
	r.tick()
	r.tick()
	r.tick() // provision fires; RiseTimeout = 1s
	if len(r.prov.provisioned) != 1 {
		t.Fatalf("provisioned = %v, want 1", r.prov.provisioned)
	}
	dud := r.prov.provisioned[0]
	// The daemon never rises; 11 ticks = 1.1s crosses the deadline.
	for i := 0; i < 11; i++ {
		r.tick()
		r.setDepth(20)
	}
	if r.counter("elastic_provision_rollbacks_total") != 1 {
		t.Fatalf("elastic_provision_rollbacks_total = %d, want 1",
			r.counter("elastic_provision_rollbacks_total"))
	}
	if len(r.prov.decommissioned) != 1 || r.prov.decommissioned[0] != dud {
		t.Fatalf("decommissioned = %v, want [%s]", r.prov.decommissioned, dud)
	}
	if len(r.pool.adds) != 0 {
		t.Fatalf("dud reached the arbiter: %v", r.pool.adds)
	}
	if r.counter("elastic_scale_ups_total") != 0 {
		t.Fatal("rollback counted as a scale-up")
	}
}

func TestProvisionBackoffAndBreaker(t *testing.T) {
	r := newRig(t, nil)
	r.prov.failNext = 1 << 30 // the provisioner is dead
	r.setDepth(20)

	// Walk far enough that, without backoff, dozens of attempts would
	// fire. BreakerThreshold = 3, so at most 3 failures may land before
	// the breaker opens for 5s.
	for i := 0; i < 40; i++ { // 4s
		r.tick()
		r.setDepth(20)
	}
	fails := r.counter("elastic_provision_failures_total")
	if fails != 3 {
		t.Fatalf("elastic_provision_failures_total = %d, want exactly BreakerThreshold (3) before the breaker opens", fails)
	}
	if r.counter("elastic_provision_breaker_opens_total") != 1 {
		t.Fatalf("breaker opens = %d, want 1", r.counter("elastic_provision_breaker_opens_total"))
	}

	// Past the breaker cooldown (5s), a half-open attempt probes the
	// provisioner again — and it succeeds now. Tick until it lands; the
	// cap bounds the wait at 10 virtual seconds.
	r.prov.failNext = 0
	for i := 0; i < 100 && len(r.prov.provisioned) == 0; i++ {
		r.tick()
		r.setDepth(20)
	}
	if len(r.prov.provisioned) != 1 {
		t.Fatalf("provisioned = %v, want one node after the breaker closed", r.prov.provisioned)
	}
	if got := r.counter("elastic_provision_failures_total"); got != 3 {
		t.Fatalf("failures after recovery = %d, want still 3", got)
	}
	// The newcomer rises and promotes: full recovery end to end.
	r.health.up[r.prov.provisioned[0]] = true
	r.tick()
	if r.counter("elastic_scale_ups_total") != 1 {
		t.Fatalf("elastic_scale_ups_total = %d, want 1", r.counter("elastic_scale_ups_total"))
	}
}

func TestForecastVetoBlocksWorthlessGrowth(t *testing.T) {
	r := newRig(t, func(c *Config) {
		// The curves say a third node adds nothing.
		c.MarginalValue = func(k int) float64 {
			if k >= 2 {
				return 0
			}
			return 100
		}
	})
	r.setDepth(20)
	for i := 0; i < 10; i++ {
		r.tick()
	}
	if len(r.prov.provisioned) != 0 {
		t.Fatalf("vetoed growth still provisioned: %v", r.prov.provisioned)
	}
	if r.counter("elastic_forecast_vetoes_total") == 0 {
		t.Fatal("forecast veto not counted")
	}
}

func TestAllMembersDownFreezesScaling(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Min = 1 })
	r.health.up["ion0:1"] = false
	r.health.up["ion1:1"] = false
	for i := 0; i < 20; i++ {
		r.tick()
	}
	if len(r.prov.provisioned) != 0 || len(r.pool.draining) != 0 {
		t.Fatalf("outage treated as demand signal: prov=%v draining=%v",
			r.prov.provisioned, r.pool.draining)
	}
}

func TestCompleteDrainAbortsIfStillAssigned(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Min = 1 })
	quietAll := func(string) bool { return true }
	r.s.cfg.Quiesced = quietAll
	r.setDepth(0)
	for i := 0; i < 4; i++ {
		r.tick()
	}
	victim := ""
	for addr := range r.pool.draining {
		victim = addr
	}
	if victim == "" {
		t.Fatal("no drain started")
	}
	r.pool.assigned[victim] = true // a solve raced the drain
	r.tick()
	r.tick() // quiet twice → completion attempt → RemoveION refused
	if len(r.prov.decommissioned) != 0 {
		t.Fatalf("assigned node decommissioned: %v", r.prov.decommissioned)
	}
	if r.counter("elastic_drains_aborted_total") == 0 {
		t.Fatal("racy completion must abort the drain")
	}
}

func TestStaleSamplesSkipped(t *testing.T) {
	// A node whose load sample predates the staleness bound (3× Interval
	// by default) is dropped from both the demand average and the victim
	// ranking: a frozen depth is evidence of prober trouble, not load.
	r := newRig(t, func(c *Config) { c.Min = 1 })
	// ion1's huge-but-stale depth would otherwise mask the idle trend
	// (avg 50 sits inside the hysteresis band); filtered out, the average
	// is 0 and the only drain candidate is the fresh idle ion0.
	r.health.depth["ion0:1"] = 0
	r.health.depth["ion1:1"] = 100
	r.health.age["ion1:1"] = 10 * time.Second // > the 3s default bound
	for i := 0; i < 4; i++ {                  // DownSustain
		r.tick()
	}
	if !r.pool.draining["ion0:1"] {
		t.Fatalf("fresh idle node not drained; draining=%v", r.pool.draining)
	}
	if r.pool.draining["ion1:1"] {
		t.Fatal("stale-sampled node picked as drain victim")
	}
	if got := r.counter("elastic_stale_samples_skipped_total"); got < 4 {
		t.Fatalf("stale skip counter = %d, want ≥ 4", got)
	}
}

func TestAllSamplesStaleFreezesScaling(t *testing.T) {
	// Every sample stale is a prober blackout, not a demand signal: the
	// scaler must hold position exactly as if all members were down.
	r := newRig(t, func(c *Config) { c.Min = 1 })
	r.setDepth(0) // would otherwise drain after DownSustain
	r.health.age["ion0:1"] = time.Hour
	r.health.age["ion1:1"] = time.Hour
	for i := 0; i < 10; i++ {
		r.tick()
	}
	if len(r.pool.draining) != 0 || len(r.prov.provisioned) != 0 {
		t.Fatalf("scaled on all-stale evidence: draining=%v provisioned=%v",
			r.pool.draining, r.prov.provisioned)
	}
}

func TestStartStopLoop(t *testing.T) {
	r := newRig(t, func(c *Config) { c.Interval = time.Millisecond; c.Now = nil })
	r.s.Start()
	time.Sleep(20 * time.Millisecond)
	r.s.Stop()
	r.s.Stop() // idempotent
}

func TestStopWithoutStart(t *testing.T) {
	r := newRig(t, nil)
	r.s.Stop()
}
