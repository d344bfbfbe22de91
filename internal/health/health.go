// Package health is the liveness plane of the forwarding stack: a
// heartbeat prober that pings every I/O-node daemon over the existing rpc
// protocol (OpPing) and publishes up/down transitions.
//
// The paper's premise is that forwarding is on-demand and optional — an
// application with an empty allocation accesses the PFS directly — so an
// I/O node that stops answering must be *detected* and *removed from the
// arbitration pool*, not waited on. The prober is the detector half of
// that loop: the arbiter (Set) is the reactor, and livestack wires the
// two together through the OnChange callback.
//
// Detection is threshold-debounced in both directions: FailThreshold
// consecutive failed pings mark a node down (one lost packet is not an
// outage), RiseThreshold consecutive successful pings mark it back up
// (one lucky ping is not a recovery).
//
// Every state the prober detects is a nodestate flag — Down, Overloaded,
// Degraded — raised and lowered by one hysteresis rule: N consecutive bad
// sweeps set the flag, M consecutive good sweeps clear it.
//
// Beyond the binary planes (up/down, overloaded/recovered) the prober
// optionally runs a latency plane for gray failures: every successful
// ping's round-trip time is recorded into a per-node latency sketch
// (shared with the forwarding clients, which feed their own observed
// call latencies into the same rings), and a peer-relative scorer marks
// a node *degraded* when its median latency exceeds the median of its
// peers' medians by a configurable factor, sustained over a window of
// sweeps, with a longer clean window required to restore it. Degraded
// is distinct from down (the node still answers) and from overloaded
// (its queue may be empty — the node is slow, not busy); the arbiter
// reacts by quarantining it from new allocations. The whole plane is
// opt-in: SlowFactor ≤ 0 leaves behavior byte-identical to before.
package health

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/latency"
	"repro/internal/nodestate"
	"repro/internal/rpc"
	"repro/internal/telemetry"
)

// Event is one debounced state change of a probed node: Flag (Down,
// Overloaded, or Degraded) was set (On) or cleared. The flags are
// orthogonal signals — an overloaded node still answers pings and keeps
// serving, a degraded one is alive and may be idle, just slow relative
// to its peers — and the arbiter reacts to each differently.
type Event struct {
	Addr string
	Flag nodestate.Flag
	On   bool
}

// Config parameterizes a prober.
type Config struct {
	// Addrs are the I/O-node addresses to probe. Required.
	Addrs []string
	// Interval between probe sweeps; ≤0 selects 1s.
	Interval time.Duration
	// Timeout is the per-ping deadline; ≤0 selects Interval/2, floored at
	// 100ms — pings are answered inline by the daemon, but on a saturated
	// host scheduling delay alone can cost tens of milliseconds, and a
	// busy-but-alive node must not be mistaken for a dead one. Probes use
	// a dedicated rpc client with no retries and no breaker, so the
	// prober sees raw reachability. Timeout may exceed Interval: sweeps
	// run sequentially and a slow sweep simply delays the next tick.
	Timeout time.Duration
	// FailThreshold consecutive failed pings mark a node down; ≤0
	// selects 3.
	FailThreshold int
	// RiseThreshold consecutive successful pings mark a down node back
	// up; ≤0 selects 1.
	RiseThreshold int
	// OnChange, when non-nil, is invoked synchronously from the probe
	// goroutine for every event (e.g. arbiter.Set), outside the prober's
	// lock. Each sweep emits its events in a fixed order — liveness,
	// then overload, then degraded, by address within each group — so
	// the same sweep always reaches the arbiter the same way.
	OnChange func(Event)

	// OverloadQueueDepth marks a sweep as overloaded when the daemon's
	// reported queue depth is at least this value; ≤0 disables the
	// depth signal. Daemons report their depth in the ping response
	// (Size field), so overload detection costs no extra RPCs.
	OverloadQueueDepth int
	// OverloadShedDelta marks a sweep as overloaded when the daemon's
	// cumulative reject counter (ping response Offset field) grew by at
	// least this much since the previous sweep; ≤0 disables the shed
	// signal. Overload detection as a whole is active only when at least
	// one of the two signals is enabled; a ping answered with a busy
	// response always counts as an overloaded sweep while active (and as
	// a *successful* probe either way — shedding proves the node alive).
	OverloadShedDelta int
	// OverloadThreshold consecutive overloaded sweeps mark a node
	// overloaded; ≤0 selects 2.
	OverloadThreshold int
	// OverloadRecovery consecutive healthy sweeps clear the mark; ≤0
	// selects 2.
	OverloadRecovery int

	// SlowFactor enables the fail-slow scorer: a node whose median
	// latency exceeds the median of its peers' medians by this factor
	// counts a slow sweep. ≤0 disables the latency plane entirely — no
	// sketch, no scorer, no degraded transitions, no degraded series.
	SlowFactor float64
	// SlowWindow consecutive slow sweeps mark a node degraded; ≤0
	// selects 3.
	SlowWindow int
	// SlowRecovery consecutive clean sweeps restore a degraded node;
	// ≤0 selects 5 — recovery is deliberately slower than detection
	// (hysteresis), so a node flickering around the threshold does not
	// flap in and out of quarantine.
	SlowRecovery int
	// SlowMinLatency floors the scorer: medians below it never count as
	// slow, however fast the peers are, so microsecond-level jitter on
	// an idle stack cannot degrade anything. ≤0 selects 1ms.
	SlowMinLatency time.Duration
	// Latency is the sketch the scorer reads and probe RTTs feed. Leave
	// nil to let the prober own a private sketch; pass a shared one so
	// forwarding clients can feed client-observed call latencies into
	// the same rings (livestack does). Ignored when SlowFactor ≤ 0.
	Latency *latency.Sketch

	// WireChecksum makes probe pings carry a CRC32C trailer, matching a
	// stack that runs with wire checksums on (daemons verify whatever
	// arrives; the trailer keeps the probe path exercised end to end).
	WireChecksum bool

	// Now supplies the clock for load-sample ages; nil selects
	// time.Now. Injected for deterministic tests, mirroring the elastic
	// scaler's seam. (Probe RTTs always use the real monotonic clock —
	// they measure the wire, not the schedule.)
	Now func() time.Time

	// Telemetry receives probe metrics; nil disables them.
	Telemetry *telemetry.Registry
}

// overloadActive reports whether any overload signal is configured.
func (c Config) overloadActive() bool {
	return c.OverloadQueueDepth > 0 || c.OverloadShedDelta > 0
}

// slowActive reports whether the fail-slow latency plane is configured.
func (c Config) slowActive() bool {
	return c.SlowFactor > 0
}

// slowMinSamples is how many sketch samples a node needs before the
// scorer will judge it (or count it as a peer): scoring a node on one
// or two pings would make the first sweep after a restart decisive.
const slowMinSamples = 4

// nodeState tracks one address's debounced flags and load samples.
type nodeState struct {
	flags nodestate.Flags
	// streak counts, per flag, the consecutive sweeps whose verdict
	// disagrees with the flag's current state.
	streak [len(nodestate.All)]int

	lastRejects int64     // cumulative reject counter from the last sweep
	sawRejects  bool      // lastRejects holds a real sample (not the zero value)
	lastDepth   int64     // queue depth from the last loaded sweep
	sampleAt    time.Time // when lastDepth was sampled; zero = never
}

func (st *nodeState) up() bool { return !st.flags.Has(nodestate.Down) }

// plane is one flag's hysteresis: raise consecutive bad sweeps set it,
// lower consecutive good sweeps clear it, each flip counted.
type plane struct {
	raise, lower    int
	raised, lowered *telemetry.Counter
}

// emitOrder is the order a sweep's events leave the prober in.
var emitOrder = [...]nodestate.Flag{nodestate.Down, nodestate.Overloaded, nodestate.Degraded}

// Prober pings a dynamic set of I/O nodes and reports transitions. The
// set starts as Config.Addrs and breathes through Add/Remove (the
// autoscaler's hooks).
type Prober struct {
	cfg    Config
	planes [len(nodestate.All)]plane // fixed at New

	mu      sync.Mutex
	clients map[string]*rpc.Client
	state   map[string]*nodeState

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}

	tel struct {
		probes, failures     *telemetry.Counter
		nodesUp              *telemetry.Gauge
		nodesOverloaded      *telemetry.Gauge
		nodesDegraded        *telemetry.Gauge            // registered only when slowActive
		queueDepth, shedRate map[string]*telemetry.Gauge // per ION
	}
}

// New builds a prober; every node starts optimistically up. Call Start to
// begin probing, or drive sweeps explicitly with ProbeOnce.
func New(cfg Config) (*Prober, error) {
	if len(cfg.Addrs) == 0 {
		return nil, errors.New("health: at least one address is required")
	}
	if cfg.Interval <= 0 {
		cfg.Interval = time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Interval / 2
		if cfg.Timeout < 100*time.Millisecond {
			cfg.Timeout = 100 * time.Millisecond
		}
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.RiseThreshold <= 0 {
		cfg.RiseThreshold = 1
	}
	if cfg.OverloadThreshold <= 0 {
		cfg.OverloadThreshold = 2
	}
	if cfg.OverloadRecovery <= 0 {
		cfg.OverloadRecovery = 2
	}
	if cfg.slowActive() {
		if cfg.SlowWindow <= 0 {
			cfg.SlowWindow = 3
		}
		if cfg.SlowRecovery <= 0 {
			cfg.SlowRecovery = 5
		}
		if cfg.SlowMinLatency <= 0 {
			cfg.SlowMinLatency = time.Millisecond
		}
		if cfg.Latency == nil {
			cfg.Latency = latency.NewSketch(0)
		}
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	p := &Prober{
		cfg:     cfg,
		clients: make(map[string]*rpc.Client, len(cfg.Addrs)),
		state:   make(map[string]*nodeState, len(cfg.Addrs)),
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
	}
	reg := cfg.Telemetry
	p.tel.probes = reg.Counter("health_probes_total")
	p.tel.failures = reg.Counter("health_probe_failures_total")
	p.planes[nodestate.Down] = plane{cfg.FailThreshold, cfg.RiseThreshold,
		reg.Counter("health_transitions_down_total"), reg.Counter("health_transitions_up_total")}
	p.planes[nodestate.Overloaded] = plane{cfg.OverloadThreshold, cfg.OverloadRecovery,
		reg.Counter("health_transitions_overloaded_total"), reg.Counter("health_transitions_recovered_total")}
	p.tel.nodesUp = reg.Gauge("health_ions_up")
	p.tel.nodesOverloaded = reg.Gauge("health_ions_overloaded")
	if cfg.slowActive() {
		// Lazily registered: a stack without a slowness factor must not
		// expose any health_degraded_* series (the absence test pins it).
		p.planes[nodestate.Degraded] = plane{cfg.SlowWindow, cfg.SlowRecovery,
			reg.Counter("health_degraded_transitions_total"), reg.Counter("health_degraded_recovered_total")}
		p.tel.nodesDegraded = reg.Gauge("health_degraded_ions")
	}
	p.tel.queueDepth = make(map[string]*telemetry.Gauge, len(cfg.Addrs))
	p.tel.shedRate = make(map[string]*telemetry.Gauge, len(cfg.Addrs))
	for _, addr := range cfg.Addrs {
		// The initial pool is trusted immediately, New's historical
		// behaviour; nodes added later choose their own posture.
		if err := p.Add(addr, true); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// Add starts probing addr. up seeds the debounced state: true trusts the
// node immediately (the posture New gives the initial pool), false makes
// the node start down, so RiseThreshold successful pings must land before
// the first up transition fires — what a freshly provisioned node
// deserves, and the signal the autoscaler's rollback deadline watches.
// Duplicate addresses are refused.
func (p *Prober) Add(addr string, up bool) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if _, dup := p.clients[addr]; dup {
		return errors.New("health: duplicate address " + addr)
	}
	p.clients[addr] = rpc.Dial(addr, 1).
		WithOptions(rpc.Options{CallTimeout: p.cfg.Timeout, WireChecksum: p.cfg.WireChecksum}).
		Instrument(p.cfg.Telemetry, nil)
	st := &nodeState{}
	if !up {
		st.flags = st.flags.With(nodestate.Down, true)
	}
	p.state[addr] = st
	p.refreshGaugesLocked()
	if _, ok := p.tel.queueDepth[addr]; !ok {
		reg := p.cfg.Telemetry
		p.tel.queueDepth[addr] = reg.Gauge(fmt.Sprintf("health_ion_queue_depth{ion=%q}", addr))
		p.tel.shedRate[addr] = reg.Gauge(fmt.Sprintf("health_ion_shed_delta{ion=%q}", addr))
	}
	return nil
}

// Remove stops probing addr and releases its probe connection. A sweep in
// flight may still ping the address once; its result is discarded.
// Removing an unknown address is a no-op.
func (p *Prober) Remove(addr string) {
	p.mu.Lock()
	cli := p.clients[addr]
	delete(p.clients, addr)
	delete(p.state, addr)
	p.refreshGaugesLocked()
	p.mu.Unlock()
	p.cfg.Latency.Forget(addr) // stale samples must not haunt a reused address
	if cli != nil {
		cli.Close()
	}
}

// Load reports the last sampled queue depth of every probed node that is
// currently up — the autoscaler's demand signal. Nodes that are down (or
// have not yet produced a loaded sweep, which report 0) are the liveness
// plane's problem, not the capacity planner's.
func (p *Prober) Load() map[string]int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]int64, len(p.state))
	for addr, st := range p.state {
		if st.up() {
			out[addr] = st.lastDepth
		}
	}
	return out
}

// LoadAges reports, for every node that is up, how long ago its Load
// sample was taken. Nodes that have never produced a loaded sweep are
// omitted — their Load entry is the zero value, not a measurement, and
// the autoscaler must not read an idle node into it. Ages use the
// injected clock, so a frozen test clock reports frozen ages.
func (p *Prober) LoadAges() map[string]time.Duration {
	now := p.cfg.Now()
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[string]time.Duration, len(p.state))
	for addr, st := range p.state {
		if st.up() && !st.sampleAt.IsZero() {
			out[addr] = now.Sub(st.sampleAt)
		}
	}
	return out
}

// Start launches the periodic probe loop. Safe to call once; Stop ends it.
func (p *Prober) Start() {
	p.startOnce.Do(func() {
		go func() {
			defer close(p.done)
			ticker := time.NewTicker(p.cfg.Interval)
			defer ticker.Stop()
			for {
				select {
				case <-p.stop:
					return
				case <-ticker.C:
					p.ProbeOnce()
				}
			}
		}()
	})
}

// Stop ends probing and releases the probe connections. Safe to call even
// if Start never ran.
func (p *Prober) Stop() {
	p.stopOnce.Do(func() {
		close(p.stop)
	})
	p.startOnce.Do(func() { close(p.done) }) // never started: nothing to wait for
	<-p.done
	p.mu.Lock()
	clients := make([]*rpc.Client, 0, len(p.clients))
	for _, c := range p.clients {
		clients = append(clients, c)
	}
	p.mu.Unlock()
	for _, c := range clients {
		c.Close()
	}
}

// ProbeOnce performs one synchronous sweep over every address, applying
// thresholds and firing OnChange for each state change. Exported so
// tests (and callers that want probe timing under their own control) can
// drive the prober deterministically.
func (p *Prober) ProbeOnce() {
	// probeResult is one ping's outcome. A busy (shed) ping proves the
	// node alive — only transport errors count as probe failures — but it
	// carries no load sample, so depth/rejects are valid only when loaded
	// is set.
	type probeResult struct {
		ok      bool
		busy    bool
		loaded  bool
		depth   int64
		rejects int64
	}
	// Snapshot the member set first: Add/Remove may run concurrently (the
	// autoscaler breathes the pool), and pings must not hold the lock.
	p.mu.Lock()
	clients := make(map[string]*rpc.Client, len(p.clients))
	for addr, cli := range p.clients {
		clients[addr] = cli
	}
	p.mu.Unlock()

	results := make(map[string]probeResult, len(clients))
	var (
		rmu sync.Mutex
		wg  sync.WaitGroup
	)
	for addr, cli := range clients {
		wg.Add(1)
		go func(addr string, cli *rpc.Client) {
			defer wg.Done()
			start := time.Now()
			resp, err := cli.Call(&rpc.Message{Op: rpc.OpPing})
			rtt := time.Since(start)
			var r probeResult
			switch {
			case err == nil:
				r = probeResult{ok: true, loaded: true, depth: resp.Size, rejects: resp.Offset}
				// Only clean pings feed the latency sketch: a busy
				// response is shed before queueing and a failed one
				// measures the timeout, not the node.
				p.cfg.Latency.Observe(addr, rtt)
			case errors.Is(err, rpc.ErrBusy):
				r = probeResult{ok: true, busy: true}
			}
			rmu.Lock()
			results[addr] = r
			rmu.Unlock()
		}(addr, cli)
	}
	wg.Wait()

	var fired [len(nodestate.All)][]Event
	p.mu.Lock()
	for _, addr := range sortedKeys(results) {
		r := results[addr]
		st := p.state[addr]
		if st == nil {
			continue // removed while the sweep was in flight
		}
		p.tel.probes.Inc()
		if !r.ok {
			p.tel.failures.Inc()
		}
		p.debounce(addr, st, nodestate.Down, !r.ok, &fired)

		// Load bookkeeping and overload debouncing: export the sampled
		// depth and per-sweep shed delta unconditionally, transition
		// state only while a signal is configured.
		var shedDelta int64
		if r.loaded {
			st.lastDepth = r.depth
			st.sampleAt = p.cfg.Now()
			p.tel.queueDepth[addr].Set(r.depth)
			if st.sawRejects && r.rejects >= st.lastRejects {
				shedDelta = r.rejects - st.lastRejects
			}
			st.lastRejects = r.rejects
			st.sawRejects = true
			p.tel.shedRate[addr].Set(shedDelta)
		}
		// Dead-looking sweeps feed the liveness thresholds, not the
		// overload ones; they hold the overload state as-is.
		if !p.cfg.overloadActive() || !r.ok {
			continue
		}
		hot := r.busy ||
			(r.loaded && p.cfg.OverloadQueueDepth > 0 && r.depth >= int64(p.cfg.OverloadQueueDepth)) ||
			(r.loaded && p.cfg.OverloadShedDelta > 0 && shedDelta >= int64(p.cfg.OverloadShedDelta))
		p.debounce(addr, st, nodestate.Overloaded, hot, &fired)
	}
	if p.cfg.slowActive() {
		p.scoreSlowLocked(&fired)
	}
	p.refreshGaugesLocked()
	p.mu.Unlock()

	// Callbacks run outside the prober lock so they may query the prober
	// (and take arbitrary downstream locks) freely.
	if p.cfg.OnChange != nil {
		for _, f := range emitOrder {
			for _, ev := range fired[f] {
				p.cfg.OnChange(ev)
			}
		}
	}
}

// debounce feeds one sweep's verdict on flag f into addr's hysteresis:
// a verdict that disagrees with the flag's state (bad while clear, good
// while set) extends the streak, one that agrees resets it, and a streak
// reaching the plane's threshold flips the flag and queues the event.
// Caller holds p.mu.
func (p *Prober) debounce(addr string, st *nodeState, f nodestate.Flag, bad bool, fired *[len(nodestate.All)][]Event) {
	on := st.flags.Has(f)
	if on == bad {
		st.streak[f] = 0
		return
	}
	pl := p.planes[f]
	need, c := pl.raise, pl.raised
	if on {
		need, c = pl.lower, pl.lowered
	}
	if st.streak[f]++; st.streak[f] < need {
		return
	}
	st.streak[f] = 0
	st.flags = st.flags.With(f, bad)
	c.Inc()
	fired[f] = append(fired[f], Event{Addr: addr, Flag: f, On: bad})
}

// refreshGaugesLocked recounts the up/overloaded/degraded gauges.
// Caller holds p.mu.
func (p *Prober) refreshGaugesLocked() {
	var up, over, deg int64
	for _, st := range p.state {
		if st.up() {
			up++
		}
		if st.flags.Has(nodestate.Overloaded) {
			over++
		}
		if st.flags.Has(nodestate.Degraded) {
			deg++
		}
	}
	p.tel.nodesUp.Set(up)
	p.tel.nodesOverloaded.Set(over)
	p.tel.nodesDegraded.Set(deg)
}

// scoreSlowLocked runs one sweep of the peer-relative fail-slow scorer,
// queueing the events it fires into fired. Caller holds p.mu.
//
// A node is slow on a sweep when its median sketch latency exceeds the
// median of its peers' medians × SlowFactor (and the SlowMinLatency
// floor). Judging against peers rather than an absolute bound makes
// the scorer self-calibrating: a cluster that is uniformly slow — cold
// caches, shared-disk contention — degrades nobody, while one node 50×
// off its peers stands out within a window regardless of the absolute
// numbers. Sweep-count debouncing (not wall time) keeps the state
// machine deterministic under test-driven ProbeOnce calls.
func (p *Prober) scoreSlowLocked(fired *[len(nodestate.All)][]Event) {
	// Median latency of every up node with enough samples to judge.
	meds := make(map[string]time.Duration, len(p.state))
	for addr, st := range p.state {
		if !st.up() || p.cfg.Latency.Samples(addr) < slowMinSamples {
			continue
		}
		if m, ok := p.cfg.Latency.Median(addr); ok {
			meds[addr] = m
		}
	}
	// Down or unsampled nodes hold their degraded state as-is; the
	// liveness plane owns them until they answer again.
	for _, addr := range sortedKeys(meds) {
		med := meds[addr]
		// Median of the peers' medians, the node under judgment
		// excluded so a very slow node cannot raise its own bar.
		peers := make([]time.Duration, 0, len(meds)-1)
		for a, m := range meds {
			if a != addr {
				peers = append(peers, m)
			}
		}
		if len(peers) < 2 {
			continue // peer-relative scoring needs a quorum of peers
		}
		sort.Slice(peers, func(i, j int) bool { return peers[i] < peers[j] })
		peerMed := peers[len(peers)/2]
		slow := med >= p.cfg.SlowMinLatency &&
			float64(med) > float64(peerMed)*p.cfg.SlowFactor
		p.debounce(addr, p.state[addr], nodestate.Degraded, slow, fired)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Has reports whether addr carries flag f. An address the prober does
// not know has never answered a ping: it is down, and nothing else.
func (p *Prober) Has(addr string, f nodestate.Flag) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	st, ok := p.state[addr]
	if !ok {
		return f == nodestate.Down
	}
	return st.flags.Has(f)
}

// With returns the probed addresses carrying flag f, sorted.
func (p *Prober) With(f nodestate.Flag) []string {
	p.mu.Lock()
	defer p.mu.Unlock()
	var out []string
	for _, addr := range sortedKeys(p.state) {
		if p.state[addr].flags.Has(f) {
			out = append(out, addr)
		}
	}
	return out
}
