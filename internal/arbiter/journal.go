package arbiter

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/perfmodel"
	"repro/internal/policy"
	"repro/internal/telemetry"
	"repro/internal/units"
)

// WithJournal attaches a write-ahead journal: every control-plane
// transition is appended (and fsynced) before it becomes visible on the
// bus, and a compacting snapshot is written whenever enough records
// accumulate. A baseline snapshot of the current state is taken
// immediately, so even a journal that never sees another append can
// reconstruct pool membership. Call before the arbiter is shared.
//
// Journal I/O failures are advisory: the arbiter keeps serving
// (availability over durability for a single-node control plane) and the
// journal's own journal_append_errors_total counter records the gap.
func (a *Arbiter) WithJournal(j *journal.Journal) *Arbiter {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.jn = j
	if j != nil {
		a.epoch = a.bus.Version()
		j.Snapshot(a.stateLocked())
	}
	return a
}

// record appends one event and hands the journal a compaction snapshot
// when one is due. No-op without a journal. Caller holds a.mu.
func (a *Arbiter) record(r journal.Record) {
	if a.jn == nil {
		return
	}
	a.jn.Append(r)
	if a.jn.SnapshotDue() {
		a.jn.Snapshot(a.stateLocked())
	}
}

// stateLocked captures the arbiter's full control-plane state as a
// journal snapshot. Membership sets are sorted (journal.State's
// convention); the arbiter re-sorts its pool on recovery anyway, so the
// stable pool order survives round trips. Caller holds a.mu.
func (a *Arbiter) stateLocked() journal.State {
	st := journal.State{Epoch: a.epoch}
	st.Pool = append([]string(nil), a.pool...)
	sort.Strings(st.Pool)
	for _, addr := range st.Pool {
		st.SetFlags(addr, a.flags[addr])
	}
	ids := make([]string, 0, len(a.running))
	for id := range a.running {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	for _, id := range ids {
		st.Running = append(st.Running, *appRecord(a.running[id]))
	}
	if len(a.assign) > 0 {
		st.Assign = make(map[string][]string, len(a.assign))
		for job, addrs := range a.assign {
			st.Assign[job] = append([]string(nil), addrs...)
		}
	}
	return st
}

// appRecord converts a policy application into its journal form,
// flattening the bandwidth curve so the history-informed inputs survive a
// crash (see WithHistory: the curve is completed before JobStarted runs,
// so what lands here is what the solver actually saw).
func appRecord(app policy.Application) *journal.App {
	ja := &journal.App{
		ID: app.ID, Nodes: app.Nodes, Processes: app.Processes,
		WriteBytes: app.WriteBytes, ReadBytes: app.ReadBytes, Weight: app.Weight,
	}
	for _, pt := range app.Curve.Points() {
		ja.Curve = append(ja.Curve, journal.CurvePoint{IONs: pt.IONs, MBps: pt.Bandwidth.MBps()})
	}
	return ja
}

// appFromRecord is the inverse of appRecord.
func appFromRecord(ja journal.App) policy.Application {
	pts := make([]perfmodel.Point, 0, len(ja.Curve))
	for _, p := range ja.Curve {
		pts = append(pts, perfmodel.Point{IONs: p.IONs, Bandwidth: units.BandwidthFromMBps(p.MBps)})
	}
	return policy.Application{
		ID: ja.ID, Nodes: ja.Nodes, Processes: ja.Processes,
		WriteBytes: ja.WriteBytes, ReadBytes: ja.ReadBytes, Weight: ja.Weight,
		Curve: perfmodel.NewCurve(pts...),
	}
}

// Running returns the registered applications, sorted by ID — including
// the characterization curve each one carried into the last solve. Used
// by recovery tests to pin that solve inputs survive a crash.
func (a *Arbiter) Running() []policy.Application {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make([]policy.Application, 0, len(a.running))
	for _, app := range a.running {
		out = append(out, app)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// RecoverConfig parameterizes a warm restart from a journal.
type RecoverConfig struct {
	// Journal is the replayed journal the new arbiter continues into.
	// Required; open it first so its recovered state is available.
	Journal *journal.Journal
	// Policy and Bus are the solver and mapping bus of the new process,
	// exactly as New takes them. Required.
	Policy policy.Policy
	Bus    *mapping.Bus
	// Probe, when set, is asked once per journaled pool member that the
	// journal believes alive; returning false marks the node down before
	// the first solve (it died during the blackout). Nil trusts the
	// journal (reconciliation happens later through the health prober).
	Probe func(addr string) bool
	// PreFence, when set, is called with the new revocation floor BEFORE
	// the recovery mapping is published: push it to every I/O-node daemon
	// so no stale-epoch write can slip in between the republish and the
	// fence taking effect.
	PreFence func(fence uint64)
	// Weights is the optional QoS weight source (see WithWeights).
	Weights func(id string) float64
	// QuarantineFloor, when > 0, re-arms the gray-failure quarantine on
	// the recovered arbiter (see WithQuarantine); journaled degraded
	// marks are restored either way — a slow node is still slow after a
	// control-plane restart.
	QuarantineFloor int
	// Telemetry, when set, instruments the recovered arbiter.
	Telemetry *telemetry.Registry
}

// Recover rebuilds an arbiter from a replayed journal and reconciles it
// against reality: journaled pool members that no longer answer probes
// are marked down (their allocations pruned), half-finished drains are
// aborted (the scaler re-decides with live information), and the
// surviving assignment is republished under the no-shrink invariant —
// every recovered job keeps its allocated node count, preferentially on
// the exact nodes it held before the crash. Every epoch the pre-crash
// arbiter could have published is revoked: PreFence then the bus fence
// guarantee that a client still routing on a pre-crash mapping can never
// land a write on a reassigned I/O node.
//
// A solve failure during the republish is advisory, exactly as for a
// Down mark: the pruned pre-crash mapping is published (it is safe —
// nothing routes to a dead node) and the error reports the degradation.
func Recover(cfg RecoverConfig) (*Arbiter, error) {
	if cfg.Journal == nil {
		return nil, errors.New("arbiter: recovery requires a journal")
	}
	st, _ := cfg.Journal.RecoveredState()
	a, err := New(cfg.Policy, st.Pool, cfg.Bus)
	if err != nil {
		return nil, err
	}
	if cfg.Telemetry != nil {
		a.Instrument(cfg.Telemetry)
	}
	a.WithWeights(cfg.Weights)
	if cfg.QuarantineFloor > 0 {
		a.WithQuarantine(cfg.QuarantineFloor)
	}

	a.mu.Lock()
	defer a.mu.Unlock()
	a.jn = cfg.Journal
	a.epoch = st.Epoch
	for _, addr := range a.pool {
		a.setFlags(addr, st.Flags(addr))
	}
	for _, ja := range st.Running {
		app := appFromRecord(ja)
		a.running[app.ID] = app
	}
	for job, addrs := range st.Assign {
		if _, ok := a.running[job]; ok {
			a.assign[job] = append([]string(nil), addrs...)
		}
	}

	// Reconcile membership against reality: nodes that died during the
	// blackout are marked down and pruned from every allocation before
	// the first solve, so the invariant "no job maps to a dead node"
	// holds on the very first recovery publish. Then abort half-finished
	// drains: the pre-crash arbiter was migrating traffic off these
	// nodes, but whoever was waiting for quiescence is gone. Returning
	// them to the allocatable pool is always safe; the scaler re-decides
	// with live information. Both go through Set's locked core, in the
	// pool's sorted order.
	for _, addr := range a.pool {
		if cfg.Probe != nil && !a.flags[addr].Has(nodestate.Down) && !cfg.Probe(addr) {
			a.markLocked(addr, nodestate.Down, true)
			a.tel.marks[nodestate.Down][1].Inc()
		}
	}
	for _, addr := range a.pool {
		if a.flags[addr].Has(nodestate.Draining) {
			a.markLocked(addr, nodestate.Draining, false)
			a.tel.marks[nodestate.Draining][0].Inc()
		}
	}
	a.updatePoolGauges()
	a.tel.jobsRunning.Set(int64(len(a.running)))

	// Epoch handoff. The journal's epoch is ≥ every version a client saw
	// (publishes are journaled write-ahead), so resuming the bus there
	// and fencing one above revokes every pre-crash mapping. Daemons are
	// fenced before the recovery map goes out: between those two steps
	// stale clients degrade to the direct PFS path, which is byte-safe.
	cfg.Bus.Resume(st.Epoch)
	fence := cfg.Bus.Version() + 1
	if cfg.PreFence != nil {
		cfg.PreFence(fence)
	}
	cfg.Bus.Revoke(fence)

	var advisory error
	if len(a.running) > 0 {
		if err := a.rearbitrate(); err != nil {
			a.tel.keptMappings.Inc()
			a.publish()
			advisory = fmt.Errorf("arbiter: recovered with pruned pre-crash mapping kept: %w", err)
		}
	} else {
		a.publish()
	}
	return a, advisory
}
