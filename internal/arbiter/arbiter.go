// Package arbiter is the live policy-solver service of the reproduction:
// the component that, on every change of the running-job set, re-runs the
// arbitration policy and publishes a new application → I/O-node mapping for
// the forwarding clients (the paper's solver that "runs on a separate node,
// possibly the same used by a job manager").
//
// Allocation decisions are counts; the arbiter turns them into concrete
// I/O-node addresses, keeping an application's existing nodes when its
// count shrinks or is unchanged so remaps disturb as little routing as
// possible, and never sharing one I/O node between applications.
package arbiter

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/policy"
	"repro/internal/telemetry"
)

// Typed failures, distinguishable with errors.Is so callers (the health
// loop, job managers) can react programmatically instead of parsing text.
var (
	// ErrUnknownJob reports an operation on a job id that is not running.
	ErrUnknownJob = errors.New("arbiter: unknown job")
	// ErrUnknownION reports a mark on an address outside the pool.
	ErrUnknownION = errors.New("arbiter: unknown I/O node")
	// ErrNoLiveIONs reports arbitration over an empty or fully-down pool.
	ErrNoLiveIONs = errors.New("arbiter: no live I/O nodes")
	// ErrIONDown reports a drain request for a node that is already down —
	// there is nothing graceful left to do.
	ErrIONDown = errors.New("arbiter: I/O node is down")
	// ErrIONAssigned reports a removal of a node still routed to some job.
	ErrIONAssigned = errors.New("arbiter: I/O node still assigned")
)

// Arbiter owns a pool of I/O-node addresses and a mapping bus.
type Arbiter struct {
	pol  policy.Policy
	bus  *mapping.Bus
	pool []string

	// weightOf, when set, supplies each application's QoS utility weight
	// at solve time (see WithWeights); nil means unweighted arbitration.
	weightOf func(id string) float64

	mu sync.Mutex
	// flags holds the node state of every marked pool member (see
	// package nodestate); an address with no entry is up.
	flags map[string]nodestate.Flags
	// quarFloor bounds the quarantine: degraded nodes are excluded from
	// allocation only while at least quarFloor allocatable nodes remain,
	// so correlated slowness deprioritizes the tail instead of emptying
	// the pool. Always ≥ 1; WithQuarantine raises it.
	quarFloor int
	running   map[string]policy.Application
	assign    map[string][]string // app → addresses
	// SolveTime records the duration of the last policy invocation (the
	// paper reports 399 µs for its live case).
	lastSolve time.Duration

	// jn, when set via WithJournal, receives every control-plane
	// transition before it becomes visible on the bus; epoch tracks the
	// version the next publish will carry (journaled write-ahead).
	jn    *journal.Journal
	epoch uint64

	// reg is the registry Instrument attached; WithQuarantine uses it to
	// register the quarantine series lazily (only a stack that opts into
	// gray-failure handling exposes arbiter_quarantine_*).
	reg *telemetry.Registry

	// Telemetry handles (nil until Instrument; all no-ops then).
	tel struct {
		solves, solveErrors, published *telemetry.Counter
		keptMappings                   *telemetry.Counter
		// marks counts transitions per flag: [f][0] clears, [f][1]
		// sets. The Degraded row stays nil until WithQuarantine.
		marks                            [len(nodestate.All)][2]*telemetry.Counter
		ionsAdded, ionsRemoved           *telemetry.Counter
		jobsRunning                      *telemetry.Gauge
		ionsDown, ionsLive, ionsOverload *telemetry.Gauge
		ionsDraining                     *telemetry.Gauge
		ionsQuarantined, quarFloorHeld   *telemetry.Gauge // nil until WithQuarantine
		solveLatency                     *telemetry.Histogram
	}
}

// New creates an arbiter over the given policy, I/O-node addresses, and
// mapping bus.
func New(pol policy.Policy, ionAddrs []string, bus *mapping.Bus) (*Arbiter, error) {
	if pol == nil {
		return nil, errors.New("arbiter: policy is required")
	}
	if bus == nil {
		return nil, errors.New("arbiter: mapping bus is required")
	}
	uniq := map[string]bool{}
	for _, a := range ionAddrs {
		if uniq[a] {
			return nil, fmt.Errorf("arbiter: duplicate I/O node %s", a)
		}
		uniq[a] = true
	}
	return &Arbiter{
		pol:       pol,
		bus:       bus,
		pool:      append([]string(nil), ionAddrs...),
		flags:     map[string]nodestate.Flags{},
		quarFloor: 1,
		running:   map[string]policy.Application{},
		assign:    map[string][]string{},
	}, nil
}

// PolicyName reports the active policy.
func (a *Arbiter) PolicyName() string { return a.pol.Name() }

// Instrument attaches arbitration metrics to reg: solve count/latency,
// solver failures, published mappings, re-arbitration fallbacks where the
// pruned previous mapping was kept, and the running-job gauge. Returns a
// for chaining; reg may be nil.
func (a *Arbiter) Instrument(reg *telemetry.Registry) *Arbiter {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.reg = reg
	a.tel.solves = reg.Counter("arbiter_solves_total")
	a.tel.solveErrors = reg.Counter("arbiter_solve_errors_total")
	a.tel.published = reg.Counter("arbiter_mappings_published_total")
	a.tel.keptMappings = reg.Counter("arbiter_kept_previous_mapping_total")
	a.tel.marks[nodestate.Down] = [2]*telemetry.Counter{
		reg.Counter("arbiter_marked_up_total"), reg.Counter("arbiter_marked_down_total")}
	a.tel.marks[nodestate.Overloaded] = [2]*telemetry.Counter{
		reg.Counter("arbiter_overload_recovered_total"), reg.Counter("arbiter_marked_overloaded_total")}
	a.tel.marks[nodestate.Draining] = [2]*telemetry.Counter{
		reg.Counter("arbiter_drains_aborted_total"), reg.Counter("arbiter_drains_started_total")}
	a.tel.ionsAdded = reg.Counter("arbiter_ions_added_total")
	a.tel.ionsRemoved = reg.Counter("arbiter_ions_removed_total")
	a.tel.jobsRunning = reg.Gauge("arbiter_jobs_running")
	a.tel.ionsDown = reg.Gauge("arbiter_ions_down")
	a.tel.ionsLive = reg.Gauge("arbiter_ions_live")
	a.tel.ionsOverload = reg.Gauge("arbiter_ions_overloaded")
	a.tel.ionsDraining = reg.Gauge("arbiter_ions_draining")
	a.tel.ionsLive.Set(int64(len(a.pool)))
	a.tel.solveLatency = reg.Histogram("arbiter_solve_latency_seconds", telemetry.LatencyBuckets())
	return a
}

// WithWeights installs a QoS weight source (typically qos.Registry.Weight):
// on every solve, each application's Weight is stamped from it before the
// policy runs, so class weights apply to jobs registered through any call
// site without those call sites knowing about QoS. An application that
// already carries an explicit non-zero Weight keeps it. Returns a for
// chaining; w may be nil (no weighting). Call before the arbiter is
// shared.
func (a *Arbiter) WithWeights(w func(id string) float64) *Arbiter {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.weightOf = w
	return a
}

// WithQuarantine sets the live-capacity floor for gray-failure
// quarantine: a Degraded mark excludes a node from new allocations only
// while at least floor allocatable nodes remain, so correlated
// slowness (a sick rack, a shared-switch brownout) degrades to
// deprioritization instead of an empty pool. floor values below 1 are
// raised to 1 — the pool can never be quarantined empty. Also
// registers the arbiter_quarantine_* series on the registry given to
// Instrument (call Instrument first); a stack that never opts into
// gray-failure handling exposes none of them. Returns a for chaining;
// call before the arbiter is shared.
func (a *Arbiter) WithQuarantine(floor int) *Arbiter {
	a.mu.Lock()
	defer a.mu.Unlock()
	if floor < 1 {
		floor = 1
	}
	a.quarFloor = floor
	reg := a.reg
	a.tel.marks[nodestate.Degraded] = [2]*telemetry.Counter{
		reg.Counter("arbiter_quarantine_restored_total"), reg.Counter("arbiter_quarantine_marked_total")}
	a.tel.ionsQuarantined = reg.Gauge("arbiter_quarantine_ions")
	a.tel.quarFloorHeld = reg.Gauge("arbiter_quarantine_floor_held")
	return a
}

// LastSolveTime reports how long the most recent policy invocation took.
func (a *Arbiter) LastSolveTime() time.Duration {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.lastSolve
}

// JobStarted registers a new running application, re-arbitrates, and
// publishes the updated mapping. It returns the addresses assigned to the
// new application.
func (a *Arbiter) JobStarted(app policy.Application) ([]string, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, dup := a.running[app.ID]; dup {
		return nil, fmt.Errorf("arbiter: job %s already running", app.ID)
	}
	if len(a.availablePool()) == 0 {
		return nil, fmt.Errorf("%w: cannot start %s (pool %d, down %d, draining %d)",
			ErrNoLiveIONs, app.ID, len(a.pool), a.countLocked(nodestate.Down), a.countLocked(nodestate.Draining))
	}
	a.running[app.ID] = app
	// Intent first: if the crash lands between this append and the solve,
	// recovery sees the job and solves for it; if the solve below fails,
	// the compensating record undoes the intent.
	a.record(journal.Record{Kind: journal.KindJobStarted, App: appRecord(app)})
	if err := a.rearbitrate(); err != nil {
		delete(a.running, app.ID)
		a.record(journal.Record{Kind: journal.KindJobFinished, Job: app.ID})
		a.tel.jobsRunning.Set(int64(len(a.running)))
		return nil, err
	}
	a.tel.jobsRunning.Set(int64(len(a.running)))
	return append([]string(nil), a.assign[app.ID]...), nil
}

// JobFinished removes an application and re-arbitrates for the remainder.
// If re-arbitration fails, the finished job stays removed and the previous
// assignment — pruned of the finished job — is published, so clients never
// route on a mapping that still advertises the finished job's I/O nodes
// and the remaining jobs keep their established routes.
func (a *Arbiter) JobFinished(id string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.running[id]; !ok {
		return fmt.Errorf("%w: %s is not running", ErrUnknownJob, id)
	}
	delete(a.running, id)
	delete(a.assign, id)
	a.record(journal.Record{Kind: journal.KindJobFinished, Job: id})
	a.tel.jobsRunning.Set(int64(len(a.running)))
	if len(a.running) == 0 {
		a.assign = map[string][]string{}
		a.publish()
		return nil
	}
	if err := a.rearbitrate(); err != nil {
		// rearbitrate mutates a.assign only on success, so the pruned
		// previous assignment is still consistent (the finished job's
		// nodes simply idle until the next successful solve).
		a.tel.keptMappings.Inc()
		a.publish()
		return fmt.Errorf("arbiter: job %s finished, previous mapping kept: %w", id, err)
	}
	return nil
}

// Current returns the present address assignment.
func (a *Arbiter) Current() map[string][]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string][]string, len(a.assign))
	for app, addrs := range a.assign {
		out[app] = append([]string(nil), addrs...)
	}
	return out
}

// availablePool returns the pool minus down, draining, and quarantined
// nodes — the addresses arbitration may hand out — in stable pool
// order. Caller holds the lock.
func (a *Arbiter) availablePool() []string {
	quar := a.quarantinedLocked()
	avail := make([]string, 0, len(a.pool))
	for _, addr := range a.pool {
		if fs := a.flags[addr]; !fs.Has(nodestate.Down) && !fs.Has(nodestate.Draining) && !quar[addr] {
			avail = append(avail, addr)
		}
	}
	return avail
}

// quarantinedLocked computes the effective quarantine set: degraded
// nodes, taken in stable pool order, excluded from allocation only
// while the remaining allocatable capacity stays at or above the
// floor. Degraded nodes past the floor stay allocatable — rearbitrate
// deprioritizes them like overloaded ones instead. Down and draining
// nodes are never in the set: stronger states already exclude them,
// and counting them would double-charge the floor. Caller holds the
// lock.
func (a *Arbiter) quarantinedLocked() map[string]bool {
	if a.countLocked(nodestate.Degraded) == 0 {
		return nil
	}
	live := 0
	for _, addr := range a.pool {
		if fs := a.flags[addr]; !fs.Has(nodestate.Down) && !fs.Has(nodestate.Draining) {
			live++
		}
	}
	quar := map[string]bool{}
	for _, addr := range a.pool {
		fs := a.flags[addr]
		if !fs.Has(nodestate.Degraded) || fs.Has(nodestate.Down) || fs.Has(nodestate.Draining) {
			continue
		}
		if live-len(quar)-1 < a.quarFloor {
			break // floor reached: the rest stay allocatable, deprioritized
		}
		quar[addr] = true
	}
	return quar
}

// countLocked reports how many pool members carry flag f. Caller holds
// the lock.
func (a *Arbiter) countLocked(f nodestate.Flag) int {
	n := 0
	for _, fs := range a.flags {
		if fs.Has(f) {
			n++
		}
	}
	return n
}

func (a *Arbiter) inPool(addr string) bool {
	for _, p := range a.pool {
		if p == addr {
			return true
		}
	}
	return false
}

// Has reports whether addr carries flag f (false outside the pool).
func (a *Arbiter) Has(addr string, f nodestate.Flag) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.flags[addr].Has(f)
}

// With returns the pool members carrying flag f, in stable pool order.
// For Degraded these are the marks, not the effective quarantine: a
// mark the capacity floor holds back is still listed (see Quarantined).
func (a *Arbiter) With(f nodestate.Flag) []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := []string{}
	for _, addr := range a.pool {
		if a.flags[addr].Has(f) {
			out = append(out, addr)
		}
	}
	return out
}

// Quarantined returns the addresses currently excluded from allocation
// by the gray-failure plane, in stable pool order: the degraded marks
// minus whatever the capacity floor held back.
func (a *Arbiter) Quarantined() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	quar := a.quarantinedLocked()
	out := make([]string, 0, len(quar))
	for _, addr := range a.pool {
		if quar[addr] {
			out = append(out, addr)
		}
	}
	return out
}

// updatePoolGauges refreshes the live/down/overloaded/draining gauges.
// Caller holds the lock.
func (a *Arbiter) updatePoolGauges() {
	down := a.countLocked(nodestate.Down)
	a.tel.ionsDown.Set(int64(down))
	a.tel.ionsLive.Set(int64(len(a.pool) - down))
	a.tel.ionsOverload.Set(int64(a.countLocked(nodestate.Overloaded)))
	a.tel.ionsDraining.Set(int64(a.countLocked(nodestate.Draining)))
	if a.tel.ionsQuarantined != nil {
		quar := a.quarantinedLocked()
		a.tel.ionsQuarantined.Set(int64(len(quar)))
		held := 0
		for addr, fs := range a.flags {
			if fs.Has(nodestate.Degraded) && !fs.Has(nodestate.Down) && !fs.Has(nodestate.Draining) && !quar[addr] {
				held++
			}
		}
		a.tel.quarFloorHeld.Set(int64(held))
	}
}

// without returns addrs with every occurrence of addr removed (the slice
// is only copied when something is actually removed).
func without(addrs []string, addr string) []string {
	hit := false
	for _, x := range addrs {
		if x == addr {
			hit = true
			break
		}
	}
	if !hit {
		return addrs
	}
	out := make([]string, 0, len(addrs)-1)
	for _, x := range addrs {
		if x != addr {
			out = append(out, x)
		}
	}
	return out
}

// verbs says how each flag's transition reads in Set's advisory
// errors: [f][0] for clearing, [f][1] for setting.
var verbs = [...][2]string{
	nodestate.Down:       {"marked up, previous mapping kept", "marked down, degraded mapping kept"},
	nodestate.Draining:   {"drain aborted, previous mapping kept", "drain refused, mapping unchanged"},
	nodestate.Degraded:   {"restored from quarantine, previous mapping kept", "quarantined, previous mapping kept"},
	nodestate.Overloaded: {"recovered from overload, previous mapping kept", "marked overloaded, previous mapping kept"},
}

func idx(on bool) int {
	if on {
		return 1
	}
	return 0
}

// Set sets (on) or clears flag f on addr and re-arbitrates the running
// jobs around the node's new state. What each flag means to arbitration:
//
//   - Down removes addr from the live pool. The invariant "no job maps
//     to a down node" holds on every published mapping, even when the
//     solve fails: addr is stripped from the assignment first, and that
//     pruned mapping is published if the solve cannot do better. A node
//     that goes down mid-drain has aborted the drain.
//   - Draining keeps addr alive and serving what is in flight, but
//     arbitration stops handing it out, so traffic migrates off under
//     the no-shrink invariant (every job keeps its count, on other
//     nodes). If the rest of the pool cannot absorb the move (the solve
//     fails), the drain is rolled back and refused — the caller must
//     not decommission. Draining a down node is refused with ErrIONDown.
//   - Degraded quarantines a fail-slow addr from new allocations while
//     the quarantine floor allows (see WithQuarantine); past the floor
//     it is merely deprioritized.
//   - Overloaded deprioritizes addr: a saturated node still completes
//     work, so the solver prefers every other live node first and uses
//     it only when the pool is too small to avoid it.
//
// Degraded and Overloaded marks on a draining node are dropped (the
// drain is the stronger exclusion); on a down node they are recorded and
// take effect when it rises. A transition that changes nothing is a
// no-op. Apart from a refused drain, a solve failure is advisory: the
// previous mapping stays published (it is still valid) and the error
// reports the degradation. The rules live in package nodestate.
func (a *Arbiter) Set(addr string, f nodestate.Flag, on bool) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inPool(addr) {
		return fmt.Errorf("%w: %s", ErrUnknownION, addr)
	}
	was := a.flags[addr]
	switch was.Admit(f, on) {
	case nodestate.Ignore:
		return nil
	case nodestate.Refuse:
		return fmt.Errorf("%w: cannot mark %s %s", ErrIONDown, addr, f)
	}
	// A drain journals its intent first, like JobStarted: a crash
	// mid-migration leaves a DrainStart that recovery knows to abort.
	pruned := a.markLocked(addr, f, on)
	var err error
	if len(a.running) == 0 {
		if pruned {
			a.publish()
		}
	} else if err = a.rearbitrate(); err != nil {
		err = fmt.Errorf("arbiter: %s %s: %w", addr, verbs[f][idx(on)], err)
		if f == nodestate.Draining && on {
			a.setFlags(addr, was)
			a.record(journal.Record{Kind: journal.KindDrainAbort, Addr: addr})
			a.updatePoolGauges()
			return err // never counted: drains_started counts drains that went through
		}
		a.tel.keptMappings.Inc()
		if f == nodestate.Down {
			// The pruned assignment is still safe (nothing routes to the
			// dead node); publish it so clients stop using it now.
			a.publish()
		}
	}
	a.tel.marks[f][idx(on)].Inc()
	return err
}

// markLocked applies one admitted transition without solving: it
// updates addr's flags with the lattice's consequences (counting a
// drain that a down mark aborts), journals the transition, and strips a
// down node from every allocation, reporting whether that changed the
// assignment. Caller holds the lock.
func (a *Arbiter) markLocked(addr string, f nodestate.Flag, on bool) (pruned bool) {
	was := a.flags[addr]
	now := was.With(f, on)
	for _, g := range nodestate.All {
		if g != f && was.Has(g) && !now.Has(g) {
			a.tel.marks[g][0].Inc()
		}
	}
	a.setFlags(addr, now)
	a.record(journal.Record{Kind: journal.MarkKind(f, on), Addr: addr})
	a.updatePoolGauges()
	if f != nodestate.Down || !on {
		return false
	}
	for app, addrs := range a.assign {
		if filtered := without(addrs, addr); len(filtered) != len(addrs) {
			a.assign[app] = filtered
			pruned = true
		}
	}
	return pruned
}

// setFlags stores addr's flags, keeping up nodes out of the map. Caller
// holds the lock.
func (a *Arbiter) setFlags(addr string, fs nodestate.Flags) {
	if fs == 0 {
		delete(a.flags, addr)
	} else {
		a.flags[addr] = fs
	}
}

// AddION grows the pool with a freshly provisioned node and re-arbitrates
// so running jobs can spread onto it. Duplicates are refused. If the
// follow-up solve fails the node stays in the pool and the previous
// mapping stays published (still valid — the new node idles until the
// next successful solve), so the error is advisory.
func (a *Arbiter) AddION(addr string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if addr == "" {
		return errors.New("arbiter: empty I/O node address")
	}
	if a.inPool(addr) {
		return fmt.Errorf("arbiter: duplicate I/O node %s", addr)
	}
	a.pool = append(a.pool, addr)
	a.record(journal.Record{Kind: journal.KindAddION, Addr: addr})
	a.tel.ionsAdded.Inc()
	a.updatePoolGauges()
	if len(a.running) == 0 {
		return nil
	}
	if err := a.rearbitrate(); err != nil {
		a.tel.keptMappings.Inc()
		return fmt.Errorf("arbiter: %s added, previous mapping kept: %w", addr, err)
	}
	return nil
}

// RemoveION forgets addr entirely — pool membership, every flag,
// everything. It is the terminal step of a drain (or the
// disposal of a node that never rose) and is refused with ErrIONAssigned
// while any job still routes to addr: remove only what arbitration can no
// longer hand out. No re-arbitration runs — by construction nothing was
// assigned to the node.
func (a *Arbiter) RemoveION(addr string) error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if !a.inPool(addr) {
		return fmt.Errorf("%w: %s", ErrUnknownION, addr)
	}
	for app, addrs := range a.assign {
		for _, x := range addrs {
			if x == addr {
				return fmt.Errorf("%w: %s still routes %s", ErrIONAssigned, addr, app)
			}
		}
	}
	a.pool = without(a.pool, addr)
	delete(a.flags, addr)
	a.record(journal.Record{Kind: journal.KindRemoveION, Addr: addr})
	a.tel.ionsRemoved.Inc()
	a.updatePoolGauges()
	return nil
}

// Pool returns the current pool addresses (including down and draining
// members), in stable order.
func (a *Arbiter) Pool() []string {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]string(nil), a.pool...)
}

// rearbitrate recomputes counts with the policy and maps them to concrete
// addresses. Caller holds the lock.
func (a *Arbiter) rearbitrate() error {
	apps := make([]policy.Application, 0, len(a.running))
	for _, app := range a.running {
		if a.weightOf != nil && app.Weight == 0 {
			app.Weight = a.weightOf(app.ID)
		}
		apps = append(apps, app)
	}
	sort.Slice(apps, func(i, j int) bool { return apps[i].ID < apps[j].ID })

	quar := a.quarantinedLocked()
	avail := a.availablePool()
	if len(avail) == 0 {
		a.tel.solveErrors.Inc()
		return fmt.Errorf("%w: %d of %d marked down, %d draining",
			ErrNoLiveIONs, a.countLocked(nodestate.Down), len(a.pool), a.countLocked(nodestate.Draining))
	}
	start := time.Now()
	alloc, err := a.pol.Allocate(apps, len(avail))
	a.tel.solves.Inc()
	a.tel.solveLatency.ObserveDuration(time.Since(start))
	if err != nil {
		a.tel.solveErrors.Inc()
		return fmt.Errorf("arbiter: %s: %w", a.pol.Name(), err)
	}
	a.lastSolve = time.Since(start)

	// Phase 1: shrink or keep — retain a stable prefix of each app's
	// current addresses, skipping any node marked down, overloaded,
	// draining, or quarantined in the meantime. Dropping overloaded
	// nodes from the kept prefix is what steers load away; dropping
	// draining ones is what migrates traffic off a node headed for
	// decommission; dropping quarantined ones is what re-steers apps
	// away from a fail-slow node. The app re-grows in phase 2, which
	// hands out healthy capacity first.
	next := make(map[string][]string, len(alloc))
	used := map[string]bool{}
	for _, app := range apps {
		want := alloc[app.ID]
		cur := a.assign[app.ID]
		keep := make([]string, 0, len(cur))
		for _, addr := range cur {
			if len(keep) == want {
				break
			}
			fs := a.flags[addr]
			if !fs.Has(nodestate.Down) && !fs.Has(nodestate.Overloaded) && !fs.Has(nodestate.Draining) && !quar[addr] {
				keep = append(keep, addr)
			}
		}
		next[app.ID] = keep
		for _, addr := range keep {
			used[addr] = true
		}
	}
	// Phase 2: grow from the free available pool in stable pool order,
	// healthy nodes first — overloaded ones, and degraded ones the
	// quarantine floor held back, are appended last so they absorb load
	// only when the healthy pool cannot cover the allocation (capacity
	// is deprioritized, never destroyed). Draining and quarantined
	// nodes are not in the available pool at all.
	free := make([]string, 0, len(avail))
	for _, addr := range avail {
		if fs := a.flags[addr]; !used[addr] && !fs.Has(nodestate.Overloaded) && !fs.Has(nodestate.Degraded) {
			free = append(free, addr)
		}
	}
	for _, addr := range avail {
		if fs := a.flags[addr]; !used[addr] && (fs.Has(nodestate.Overloaded) || fs.Has(nodestate.Degraded)) {
			free = append(free, addr)
		}
	}
	for _, app := range apps {
		want := alloc[app.ID]
		for len(next[app.ID]) < want {
			if len(free) == 0 {
				return fmt.Errorf("arbiter: pool exhausted assigning %s (policy overcommitted)", app.ID)
			}
			next[app.ID] = append(next[app.ID], free[0])
			free = free[1:]
		}
	}
	a.assign = next
	a.publish()
	return nil
}

// publish pushes the current assignment to the bus. Caller holds the lock.
// With a journal attached the publish record is appended (and fsynced)
// BEFORE the bus sees the map — true write-ahead: the journal's epoch can
// run ahead of what clients observed, never behind, so a recovery fence
// computed from the journal always covers every epoch in the wild.
func (a *Arbiter) publish() {
	a.tel.published.Inc()
	if a.jn != nil {
		a.epoch = a.bus.Version() + 1
		a.record(journal.Record{Kind: journal.KindPublish, Assign: a.assign, Epoch: a.epoch})
	}
	a.bus.Publish(a.assign)
}
