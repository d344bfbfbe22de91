// Package elastic is the capacity plane of the forwarding stack: an
// autoscaler that breathes the I/O-node pool with demand. It watches the
// health prober's per-node queue-depth samples, decides from sustained
// watermark crossings (optionally vetoed by a perfmodel marginal-value
// forecast) whether the pool should grow or shrink, and then walks every
// node through an explicit lifecycle engineered for failure first:
//
//	Provision ─→ provisioning ─(first health rise)─→ member
//	                  │
//	                  └─(rise deadline passes)─→ rolled back, disposed
//
//	member ─(Drain)─→ draining ─(quiesced N sweeps, or deadline)─→ gone
//	                  │
//	                  └─(node dies, or still assigned)─→ drain aborted
//
// Scale-up provisions through a Provisioner seam with jittered
// exponential backoff and a circuit breaker, so a dead provisioner
// degrades the scaler — the pool stops growing — and never the data
// path. Scale-down uses the arbiter's graceful drain: traffic migrates
// off first, decommission happens only after the node has been quiet, so
// no acked write is ever stranded on a vanished daemon.
//
// Anti-flap is structural, not tuned: separate up/down watermarks with a
// mandatory gap, sustained-signal windows (one hot sweep is a burst, not
// a trend), per-direction cooldowns, and a max-step clamp per decision.
// Every transition is clock-injected and deterministic under test.
package elastic

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"

	"repro/internal/nodestate"
	"repro/internal/telemetry"
)

// Provisioner spawns and destroys I/O-node daemons. Provision returns
// the address of a freshly started daemon (not yet trusted — the scaler
// health-checks it before the arbiter may route to it). Decommission
// releases a daemon the scaler is done with; it must be safe to call for
// a daemon that is already dead.
type Provisioner interface {
	Provision() (addr string, err error)
	Decommission(addr string) error
}

// Pool is the arbiter surface the scaler drives (implemented by
// *arbiter.Arbiter).
type Pool interface {
	AddION(addr string) error
	RemoveION(addr string) error
	// Set with nodestate.Draining starts (on) or aborts a drain.
	Set(addr string, f nodestate.Flag, on bool) error
}

// Health is the liveness surface the scaler reads and grows (implemented
// by *health.Prober). Load reports the last sampled queue depth per node
// that is currently up; LoadAges reports how old each of those samples is
// (nodes never sampled are absent), so the scaler can refuse to act on
// evidence from before a probe blackout.
type Health interface {
	Add(addr string, up bool) error
	Remove(addr string)
	// Has reports a node's debounced flags; an unknown address must
	// read as down.
	Has(addr string, f nodestate.Flag) bool
	Load() map[string]int64
	LoadAges() map[string]time.Duration
}

// Config parameterizes a Scaler.
type Config struct {
	// Min and Max bound the target pool size (members plus in-flight
	// provisions, minus drains). Min ≥ 1 and Max ≥ Min are required.
	Min, Max int

	// UpWatermark: average queue depth across up, non-draining members at
	// or above this for UpSustain consecutive ticks asks for growth.
	// DownWatermark: average at or below this for DownSustain consecutive
	// ticks asks for shrink. UpWatermark > DownWatermark is required —
	// the gap between them is the hysteresis band that kills flapping.
	UpWatermark, DownWatermark float64
	// UpSustain / DownSustain are the consecutive-tick windows; ≤0
	// selects 3 and 5 (shrinking should take more convincing).
	UpSustain, DownSustain int
	// UpCooldown / DownCooldown gate how soon after a scale event the
	// same direction may fire again; ≤0 selects 5s and 30s.
	UpCooldown, DownCooldown time.Duration
	// FlipQuiet gates how soon after a scale event the OPPOSITE
	// direction may fire. A scale-up is itself evidence of demand, so a
	// shrink moments later is a flap by definition — and each add
	// triggers a re-arbitration whose remap stall briefly collapses the
	// queue-depth signal, which would otherwise feed the down streak.
	// ≤0 selects max(UpCooldown, DownCooldown).
	FlipQuiet time.Duration
	// MaxStep clamps how many nodes one decision may add or drain; ≤0
	// selects 1.
	MaxStep int
	// Interval is the Start loop's tick period; ≤0 selects 1s.
	Interval time.Duration
	// SampleStaleness bounds how old a node's load sample may be before
	// the scaler ignores it: a prober that stopped sampling (a health
	// blackout, a gray-slow probe path) leaves depths frozen at their
	// last value, and scaling on frozen evidence drains busy nodes that
	// merely *look* idle. Stale-skipped nodes count as absent from the
	// demand signal, exactly like down ones. ≤0 selects 3× Interval.
	SampleStaleness time.Duration

	// DrainDeadline bounds how long a drain may wait for quiescence
	// before the node is decommissioned anyway (in-flight work is
	// client-retried; waiting forever would leak the node); ≤0 selects
	// 30s.
	DrainDeadline time.Duration
	// QuiesceSweeps consecutive quiet ticks complete a drain; ≤0 selects
	// 2.
	QuiesceSweeps int
	// Quiesced reports whether addr has no queued or in-flight work.
	// Required when the scaler may shrink (Min < Max); livestack supplies
	// an activity-delta check over the daemon's counters.
	Quiesced func(addr string) bool

	// RiseTimeout bounds how long a provisioned node may take to pass its
	// first health rise before it is rolled back and disposed; ≤0 selects
	// 10s.
	RiseTimeout time.Duration
	// ProvisionBackoff is the base of the jittered exponential backoff
	// after a provisioning failure, ProvisionBackoffMax its cap; ≤0
	// select 100ms and 5s.
	ProvisionBackoff, ProvisionBackoffMax time.Duration
	// BreakerThreshold consecutive provisioning failures (including
	// rollbacks) open the provisioning circuit breaker for
	// BreakerCooldown, after which one half-open attempt probes the
	// provisioner again; ≤0 select 3 and 30s.
	BreakerThreshold int
	BreakerCooldown  time.Duration

	// MarginalValue, when non-nil, forecasts the value of growing from k
	// to k+1 nodes (e.g. the summed marginal bandwidth of the running
	// apps' perfmodel curves). A scale-up step is vetoed when the
	// forecast is at or below MinMarginal: capacity the curves say nobody
	// can use is not worth provisioning.
	MarginalValue func(k int) float64
	MinMarginal   float64

	// Seed feeds the backoff jitter; 0 selects 1. Now, when non-nil,
	// replaces time.Now (the unit tests' clock). Both exist so every
	// scaler decision is reproducible.
	Seed int64
	Now  func() time.Time

	// Telemetry receives scaler metrics; nil disables them.
	Telemetry *telemetry.Registry
}

// withDefaults validates cfg and fills the documented defaults.
func (cfg Config) withDefaults() (Config, error) {
	if cfg.Min < 1 {
		return cfg, fmt.Errorf("elastic: Min must be at least 1, got %d", cfg.Min)
	}
	if cfg.Max < cfg.Min {
		return cfg, fmt.Errorf("elastic: Max (%d) must be at least Min (%d)", cfg.Max, cfg.Min)
	}
	if cfg.UpWatermark <= cfg.DownWatermark {
		return cfg, fmt.Errorf("elastic: UpWatermark (%g) must exceed DownWatermark (%g) — the gap is the hysteresis band",
			cfg.UpWatermark, cfg.DownWatermark)
	}
	if cfg.Min < cfg.Max && cfg.Quiesced == nil {
		return cfg, errors.New("elastic: Quiesced is required when the pool may shrink")
	}
	if cfg.UpSustain <= 0 {
		cfg.UpSustain = 3
	}
	if cfg.DownSustain <= 0 {
		cfg.DownSustain = 5
	}
	if cfg.UpCooldown <= 0 {
		cfg.UpCooldown = 5 * time.Second
	}
	if cfg.DownCooldown <= 0 {
		cfg.DownCooldown = 30 * time.Second
	}
	if cfg.FlipQuiet <= 0 {
		cfg.FlipQuiet = cfg.UpCooldown
		if cfg.DownCooldown > cfg.FlipQuiet {
			cfg.FlipQuiet = cfg.DownCooldown
		}
	}
	if cfg.MaxStep <= 0 {
		cfg.MaxStep = 1
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.SampleStaleness <= 0 {
		cfg.SampleStaleness = 3 * cfg.Interval
	}
	if cfg.DrainDeadline <= 0 {
		cfg.DrainDeadline = 30 * time.Second
	}
	if cfg.QuiesceSweeps <= 0 {
		cfg.QuiesceSweeps = 2
	}
	if cfg.RiseTimeout <= 0 {
		cfg.RiseTimeout = 10 * time.Second
	}
	if cfg.ProvisionBackoff <= 0 {
		cfg.ProvisionBackoff = 100 * time.Millisecond
	}
	if cfg.ProvisionBackoffMax <= 0 {
		cfg.ProvisionBackoffMax = 5 * time.Second
	}
	if cfg.BreakerThreshold <= 0 {
		cfg.BreakerThreshold = 3
	}
	if cfg.BreakerCooldown <= 0 {
		cfg.BreakerCooldown = 30 * time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	return cfg, nil
}

// drainState tracks one draining member.
type drainState struct {
	deadline time.Time
	quiet    int // consecutive quiesced ticks
}

// provState tracks one node between Provision and its first health rise.
type provState struct {
	deadline time.Time
}

// Scaler drives the pool lifecycle. All decisions happen inside Tick;
// Start merely runs Tick on a ticker.
type Scaler struct {
	cfg    Config
	pool   Pool
	prov   Provisioner
	health Health

	mu           sync.Mutex
	members      map[string]bool
	draining     map[string]*drainState
	provisioning map[string]*provState
	upStreak     int
	downStreak   int
	upNotBefore  time.Time
	dnNotBefore  time.Time
	provFails    int       // consecutive provisioning failures
	provNotBefor time.Time // backoff gate
	breakerUntil time.Time
	rng          *rand.Rand

	startOnce sync.Once
	stopOnce  sync.Once
	stopCh    chan struct{}
	done      chan struct{}

	tel struct {
		scaleUps, scaleDowns        *telemetry.Counter
		drainsStarted               *telemetry.Counter
		drainsAborted, drainsForced *telemetry.Counter
		drainsRefused               *telemetry.Counter
		provsStarted, provFailures  *telemetry.Counter
		provRollbacks, breakerOpens *telemetry.Counter
		forecastVetoes              *telemetry.Counter
		staleSkipped                *telemetry.Counter
		poolSize                    *telemetry.Gauge
		provisioning, draining      *telemetry.Gauge
	}
}

// New builds a scaler over an arbiter pool, a provisioner, and a health
// plane. initial seeds the member set (the statically started pool);
// pool, prov, and health must already know these addresses.
func New(cfg Config, pool Pool, prov Provisioner, health Health, initial []string) (*Scaler, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if pool == nil || prov == nil || health == nil {
		return nil, errors.New("elastic: pool, provisioner, and health are all required")
	}
	s := &Scaler{
		cfg:          cfg,
		pool:         pool,
		prov:         prov,
		health:       health,
		members:      make(map[string]bool, len(initial)),
		draining:     map[string]*drainState{},
		provisioning: map[string]*provState{},
		rng:          rand.New(rand.NewSource(cfg.Seed)),
		stopCh:       make(chan struct{}),
		done:         make(chan struct{}),
	}
	for _, addr := range initial {
		s.members[addr] = true
	}
	reg := cfg.Telemetry
	s.tel.scaleUps = reg.Counter("elastic_scale_ups_total")
	s.tel.scaleDowns = reg.Counter("elastic_scale_downs_total")
	s.tel.drainsStarted = reg.Counter("elastic_drains_started_total")
	s.tel.drainsAborted = reg.Counter("elastic_drains_aborted_total")
	s.tel.drainsForced = reg.Counter("elastic_drains_forced_total")
	s.tel.drainsRefused = reg.Counter("elastic_drains_refused_total")
	s.tel.provsStarted = reg.Counter("elastic_provisions_started_total")
	s.tel.provFailures = reg.Counter("elastic_provision_failures_total")
	s.tel.provRollbacks = reg.Counter("elastic_provision_rollbacks_total")
	s.tel.breakerOpens = reg.Counter("elastic_provision_breaker_opens_total")
	s.tel.forecastVetoes = reg.Counter("elastic_forecast_vetoes_total")
	s.tel.staleSkipped = reg.Counter("elastic_stale_samples_skipped_total")
	s.tel.poolSize = reg.Gauge("elastic_pool_size")
	s.tel.provisioning = reg.Gauge("elastic_provisioning")
	s.tel.draining = reg.Gauge("elastic_draining")
	s.tel.poolSize.Set(int64(len(initial)))
	return s, nil
}

// Start runs Tick every Interval until Stop. Safe to call once.
func (s *Scaler) Start() {
	s.startOnce.Do(func() {
		go func() {
			defer close(s.done)
			ticker := time.NewTicker(s.cfg.Interval)
			defer ticker.Stop()
			for {
				select {
				case <-s.stopCh:
					return
				case <-ticker.C:
					s.Tick()
				}
			}
		}()
	})
}

// Stop ends the tick loop. In-progress drains and provisions are left
// where they are — the stack owner decides whether to finish or discard
// them on shutdown. Safe to call even if Start never ran.
func (s *Scaler) Stop() {
	s.stopOnce.Do(func() { close(s.stopCh) })
	s.startOnce.Do(func() { close(s.done) }) // never started: nothing to wait for
	<-s.done
}

// Tick advances every lifecycle and takes at most one scaling decision.
// Exported so tests (and callers that want scaling under their own
// timing) can drive the scaler deterministically.
func (s *Scaler) Tick() {
	now := s.cfg.Now()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceProvisioning(now)
	s.advanceDraining(now)
	s.decide(now)
	s.updateGauges()
}

// Members returns the current member addresses (including draining
// ones), sorted.
func (s *Scaler) Members() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.members))
	for addr := range s.members {
		out = append(out, addr)
	}
	sort.Strings(out)
	return out
}

// advanceProvisioning promotes provisioned nodes that passed their first
// health rise and rolls back the ones that did not make the deadline.
// Caller holds the lock.
func (s *Scaler) advanceProvisioning(now time.Time) {
	for addr, ps := range s.provisioning {
		if !s.health.Has(addr, nodestate.Down) {
			// First rise achieved: the node is trusted, hand it to the
			// arbiter. AddION's only failure modes are a duplicate (we
			// never add twice) and an advisory solve failure that still
			// keeps the node pooled, so the promotion stands either way.
			_ = s.pool.AddION(addr)
			delete(s.provisioning, addr)
			s.members[addr] = true
			s.tel.scaleUps.Inc()
			s.provFails = 0
			continue
		}
		if now.After(ps.deadline) {
			// The daemon never rose: roll it back before the arbiter ever
			// hears of it. A rollback is a provisioning failure as far as
			// backoff and the breaker are concerned — the provisioner is
			// handing out duds.
			delete(s.provisioning, addr)
			s.health.Remove(addr)
			_ = s.prov.Decommission(addr)
			s.tel.provRollbacks.Inc()
			s.provisionFailed(now)
		}
	}
}

// advanceDraining completes quiesced drains, forces ones past deadline,
// and abandons drains whose node died underneath them. Caller holds the
// lock.
func (s *Scaler) advanceDraining(now time.Time) {
	for addr, ds := range s.draining {
		if s.health.Has(addr, nodestate.Down) {
			// Died mid-drain. The prober's down event already aborted the
			// arbiter-side drain (the abort below is a no-op then, and a
			// consistency repair if the arbiter callback has not fired
			// yet). The node stays a member, down — warm restart may
			// revive it; decommissioning a corpse we still count would
			// strand its comeback.
			_ = s.pool.Set(addr, nodestate.Draining, false)
			delete(s.draining, addr)
			s.tel.drainsAborted.Inc()
			continue
		}
		if s.cfg.Quiesced(addr) {
			ds.quiet++
		} else {
			ds.quiet = 0
		}
		if ds.quiet >= s.cfg.QuiesceSweeps {
			s.completeDrain(addr)
		} else if now.After(ds.deadline) {
			// Quiescence never came (a wedged op, a chatty client). The
			// deadline bounds how long capacity stays reserved: complete
			// anyway — clients retry through the rpc layer and fail over
			// to the direct PFS path, so forcing is safe, just not free.
			s.tel.drainsForced.Inc()
			s.completeDrain(addr)
		}
	}
}

// completeDrain removes addr everywhere and decommissions the daemon.
// Caller holds the lock.
func (s *Scaler) completeDrain(addr string) {
	if err := s.pool.RemoveION(addr); err != nil {
		// Still assigned — a solve raced the drain. Never yank a routed
		// node: put it back and let a later decision try again.
		_ = s.pool.Set(addr, nodestate.Draining, false)
		delete(s.draining, addr)
		s.tel.drainsAborted.Inc()
		return
	}
	s.health.Remove(addr)
	_ = s.prov.Decommission(addr)
	delete(s.draining, addr)
	delete(s.members, addr)
	s.tel.scaleDowns.Inc()
}

// decide reads the demand signal and takes at most one scaling decision.
// Caller holds the lock.
func (s *Scaler) decide(now time.Time) {
	depths := s.health.Load()
	// Drop samples from before a probe blackout: a frozen depth is not
	// evidence of anything but the prober's own trouble. Filtering the
	// map up front keeps stale nodes out of both the demand average and
	// the scale-down victim ranking.
	ages := s.health.LoadAges()
	for addr := range depths {
		if age, ok := ages[addr]; !ok || age > s.cfg.SampleStaleness {
			delete(depths, addr)
			s.tel.staleSkipped.Inc()
		}
	}
	live := 0
	var sum int64
	for addr := range s.members {
		if s.draining[addr] != nil {
			continue
		}
		d, ok := depths[addr] // present only for up nodes
		if !ok {
			continue
		}
		live++
		sum += d
	}
	if live == 0 {
		// All members down is an outage, not a demand signal; scaling on
		// it would thrash a pool that needs repair, not resize.
		s.upStreak, s.downStreak = 0, 0
		return
	}
	avg := float64(sum) / float64(live)
	switch {
	case avg >= s.cfg.UpWatermark:
		s.upStreak++
		s.downStreak = 0
	case avg <= s.cfg.DownWatermark:
		s.downStreak++
		s.upStreak = 0
	default: // inside the hysteresis band: no trend either way
		s.upStreak, s.downStreak = 0, 0
	}

	// Size counts where the pool is heading: draining nodes are leaving,
	// provisioning ones arriving.
	size := len(s.members) - len(s.draining) + len(s.provisioning)

	if s.upStreak >= s.cfg.UpSustain && size < s.cfg.Max && !now.Before(s.upNotBefore) {
		step := s.cfg.MaxStep
		if size+step > s.cfg.Max {
			step = s.cfg.Max - size
		}
		added := 0
		for i := 0; i < step; i++ {
			if s.cfg.MarginalValue != nil && s.cfg.MarginalValue(size+added) <= s.cfg.MinMarginal {
				s.tel.forecastVetoes.Inc()
				break
			}
			if !s.provision(now) {
				break
			}
			added++
		}
		if added > 0 {
			s.upNotBefore = now.Add(s.cfg.UpCooldown)
			s.upStreak = 0
			if flip := now.Add(s.cfg.FlipQuiet); flip.After(s.dnNotBefore) {
				s.dnNotBefore = flip
			}
		}
		return
	}

	// Shrink is budgeted pessimistically, unlike growth: an in-flight
	// provision may still fail its rise and roll back, so it can never
	// cover for a member being drained away — otherwise the drains it
	// "covered" complete and the settled pool undershoots Min.
	settled := len(s.members) - len(s.draining)
	if s.downStreak >= s.cfg.DownSustain && settled > s.cfg.Min && !now.Before(s.dnNotBefore) {
		step := s.cfg.MaxStep
		if settled-step < s.cfg.Min {
			step = settled - s.cfg.Min
		}
		drained := 0
		for _, addr := range s.victims(depths, step) {
			if err := s.pool.Set(addr, nodestate.Draining, true); err != nil {
				// The arbiter refused (infeasible move, node just died,
				// …): respect it and stop — conditions that block one
				// drain block them all this tick.
				s.tel.drainsRefused.Inc()
				break
			}
			s.draining[addr] = &drainState{deadline: now.Add(s.cfg.DrainDeadline)}
			s.tel.drainsStarted.Inc()
			drained++
		}
		if drained > 0 {
			s.dnNotBefore = now.Add(s.cfg.DownCooldown)
			s.downStreak = 0
			if flip := now.Add(s.cfg.FlipQuiet); flip.After(s.upNotBefore) {
				s.upNotBefore = flip
			}
		}
	}
}

// victims picks up to n scale-down candidates: up members, not already
// draining, least queue depth first (address as tiebreak, so the choice
// is deterministic). Caller holds the lock.
func (s *Scaler) victims(depths map[string]int64, n int) []string {
	cand := make([]string, 0, len(s.members))
	for addr := range s.members {
		if s.draining[addr] != nil {
			continue
		}
		if _, up := depths[addr]; !up {
			continue
		}
		cand = append(cand, addr)
	}
	sort.Slice(cand, func(i, j int) bool {
		if depths[cand[i]] != depths[cand[j]] {
			return depths[cand[i]] < depths[cand[j]]
		}
		return cand[i] < cand[j]
	})
	if len(cand) > n {
		cand = cand[:n]
	}
	return cand
}

// provision asks the Provisioner for one node, gated by backoff and the
// breaker. Returns whether a provision is now in flight. Caller holds
// the lock.
func (s *Scaler) provision(now time.Time) bool {
	if now.Before(s.provNotBefor) || now.Before(s.breakerUntil) {
		return false
	}
	addr, err := s.prov.Provision()
	if err != nil {
		s.tel.provFailures.Inc()
		s.provisionFailed(now)
		return false
	}
	// Probe the newcomer pessimistically: it must rise on its own merits
	// before the arbiter may route to it.
	if err := s.health.Add(addr, false); err != nil {
		_ = s.prov.Decommission(addr)
		s.tel.provFailures.Inc()
		s.provisionFailed(now)
		return false
	}
	s.provisioning[addr] = &provState{deadline: now.Add(s.cfg.RiseTimeout)}
	s.tel.provsStarted.Inc()
	return true
}

// provisionFailed records one provisioning failure: jittered exponential
// backoff, and the breaker past the threshold. Caller holds the lock.
func (s *Scaler) provisionFailed(now time.Time) {
	s.provFails++
	backoff := s.cfg.ProvisionBackoffMax
	if shift := s.provFails - 1; shift < 16 {
		if b := s.cfg.ProvisionBackoff << shift; b < backoff {
			backoff = b
		}
	}
	// Equal jitter: half deterministic, half random, so synchronized
	// failures (a provisioner outage) do not retry in lockstep.
	backoff = backoff/2 + time.Duration(s.rng.Int63n(int64(backoff/2)+1))
	s.provNotBefor = now.Add(backoff)
	if s.provFails >= s.cfg.BreakerThreshold && !now.Before(s.breakerUntil) {
		s.breakerUntil = now.Add(s.cfg.BreakerCooldown)
		s.tel.breakerOpens.Inc()
	}
}

// updateGauges refreshes the pool gauges. Caller holds the lock.
func (s *Scaler) updateGauges() {
	s.tel.poolSize.Set(int64(len(s.members)))
	s.tel.provisioning.Set(int64(len(s.provisioning)))
	s.tel.draining.Set(int64(len(s.draining)))
}
