package nodestate

import "testing"

func of(fs ...Flag) Flags {
	var s Flags
	for _, f := range fs {
		s |= bit(f)
	}
	return s
}

// TestLatticeTable pins every rule of the lattice: which transitions
// apply, which are ignored, which are refused, and what setting a flag
// does to the others.
func TestLatticeTable(t *testing.T) {
	cases := []struct {
		name string
		from Flags
		f    Flag
		on   bool
		want Verdict
		to   Flags // state after With, checked when want is Apply
	}{
		{"down on an up node", 0, Down, true, Apply, of(Down)},
		{"down again", of(Down), Down, true, Ignore, 0},
		{"up on an up node", 0, Down, false, Ignore, 0},
		{"down mid-drain aborts the drain", of(Draining, Degraded), Down, true, Apply, of(Down, Degraded)},
		{"drain on a down node", of(Down), Draining, true, Refuse, 0},
		{"drain on a degraded node", of(Degraded), Draining, true, Apply, of(Degraded, Draining)},
		{"abort a drain", of(Draining), Draining, false, Apply, 0},
		{"overloaded while draining", of(Draining), Overloaded, true, Ignore, 0},
		{"degraded while draining", of(Draining), Degraded, true, Ignore, 0},
		{"overloaded while down", of(Down), Overloaded, true, Apply, of(Down, Overloaded)},
		{"degraded while down", of(Down), Degraded, true, Apply, of(Down, Degraded)},
		{"restore while draining", of(Draining, Degraded), Degraded, false, Apply, of(Draining)},
		{"up keeps other marks", of(Down, Overloaded), Down, false, Apply, of(Overloaded)},
	}
	for _, tc := range cases {
		if got := tc.from.Admit(tc.f, tc.on); got != tc.want {
			t.Errorf("%s: Admit = %d, want %d", tc.name, got, tc.want)
			continue
		}
		if tc.want != Apply {
			continue
		}
		if got := tc.from.With(tc.f, tc.on); got != tc.to {
			t.Errorf("%s: With = %08b, want %08b", tc.name, got, tc.to)
		}
	}
}

func TestFlagNames(t *testing.T) {
	for f, want := range map[Flag]string{Down: "down", Draining: "draining", Degraded: "degraded", Overloaded: "overloaded"} {
		if f.String() != want {
			t.Errorf("%d.String() = %q, want %q", f, f.String(), want)
		}
	}
}
