// Package nodestate is the per-I/O-node state lattice shared by the
// health prober, which detects states, and the arbiter, which reacts to
// them:
//
//	down > draining > degraded > overloaded > up
//
// A node carries any subset of the four flags; the lattice is the table
// of rules below, which says what setting one flag does to the others
// and when a transition is ignored or refused. It is the single source
// of those rules: the arbiter's Set, the health prober's events, and the
// journal's fold all go through it.
package nodestate

import "fmt"

// Flag is one kind of I/O-node state. Values are ordered strongest
// first, the lattice's precedence.
type Flag uint8

const (
	// Down: the node does not answer probes. No job may map to it.
	Down Flag = iota
	// Draining: the node is leaving the pool gracefully. It serves what
	// already routes to it, but arbitration hands it to nobody.
	Draining
	// Degraded: the node is fail-slow relative to its peers. Arbitration
	// quarantines it while the capacity floor allows.
	Degraded
	// Overloaded: the node is shedding load. Arbitration prefers every
	// other live node first.
	Overloaded
)

// All lists every flag in precedence order.
var All = [...]Flag{Down, Draining, Degraded, Overloaded}

var names = [...]string{Down: "down", Draining: "draining", Degraded: "degraded", Overloaded: "overloaded"}

func (f Flag) String() string {
	if int(f) < len(names) {
		return names[f]
	}
	return fmt.Sprintf("flag(%d)", uint8(f))
}

// Flags is the set of flags one node carries; the zero value is up.
type Flags uint8

func bit(f Flag) Flags { return 1 << f }

// Has reports whether s holds f.
func (s Flags) Has(f Flag) bool { return s&bit(f) != 0 }

// rule is one flag's row of the lattice table.
type rule struct {
	clears  Flags // setting the flag also clears these
	ignored Flags // setting the flag is a no-op while any of these is held
	refused Flags // setting the flag is an error while any of these is held
}

var rules = [...]rule{
	// A node that dies mid-drain has aborted the drain.
	Down: {clears: bit(Draining)},
	// Nothing graceful is left to do for a dead node.
	Draining: {refused: bit(Down)},
	// A drain already excludes the node from every allocation, a
	// strictly stronger steer, and the node is leaving anyway.
	Degraded:   {ignored: bit(Draining)},
	Overloaded: {ignored: bit(Draining)},
}

// With returns s after setting (on) or clearing f, including the flags
// the lattice clears as a consequence.
func (s Flags) With(f Flag, on bool) Flags {
	if !on {
		return s &^ bit(f)
	}
	return s&^rules[f].clears | bit(f)
}

// Verdict is the lattice's answer to a requested transition.
type Verdict uint8

const (
	// Apply: the transition changes the node's state.
	Apply Verdict = iota
	// Ignore: the transition is a no-op, because the node is already in
	// the requested state or a stronger state overrides it.
	Ignore
	// Refuse: the transition makes no sense for the node's state.
	Refuse
)

// Admit reports what setting (on) or clearing f does to a node in
// state s.
func (s Flags) Admit(f Flag, on bool) Verdict {
	switch {
	case s.Has(f) == on:
		return Ignore
	case !on:
		return Apply
	case s&rules[f].refused != 0:
		return Refuse
	case s&rules[f].ignored != 0:
		return Ignore
	}
	return Apply
}
