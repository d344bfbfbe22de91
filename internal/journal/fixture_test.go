package journal

import (
	"reflect"
	"testing"
)

// fixtureDir holds a journal written by the arbiter before its ION state
// moved to a single flag set: a baseline snapshot followed by every
// record kind, including all six mark kinds, a drain aborted both
// explicitly and by a mark-down, and a drain still open at the end. The
// files are committed; the fold must keep replaying them to the same
// state however the code that wrote them evolves.
const fixtureDir = "testdata/fixture"

// TestReplayPinnedFixture replays the committed fixture and pins the
// folded state, the record count, and that every record kind appears.
func TestReplayPinnedFixture(t *testing.T) {
	st, recs, last, err := Replay(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	if last != 40 || len(recs) != 39 {
		t.Fatalf("replayed %d records up to LSN %d, want 39 up to 40", len(recs), last)
	}
	seen := map[Kind]bool{KindSnapshot: true} // the base came from snap-*.snap
	for _, r := range recs {
		seen[r.Kind] = true
	}
	for k := range kindNames {
		if !seen[k] {
			t.Errorf("fixture lacks a %s record", k)
		}
	}

	var ids []string
	for _, a := range st.Running {
		ids = append(ids, a.ID)
	}
	st.Running = nil
	want := &State{
		Pool:       []string{"ion0:9000", "ion1:9001", "ion2:9002", "ion3:9003", "ion4:9004", "ion5:9005"},
		Down:       []string{"ion5:9005"},
		Overloaded: []string{"ion4:9004"},
		Draining:   []string{"ion1:9001"},
		Degraded:   []string{"ion0:9000"},
		Assign: map[string][]string{
			"hacc1":  {"ion3:9003", "ion2:9002"},
			"posix1": {"ion4:9004"},
		},
		Epoch: 19,
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("fixture folded to\n  %+v\nwant\n  %+v", st, want)
	}
	if !reflect.DeepEqual(ids, []string{"hacc1", "posix1"}) {
		t.Fatalf("running = %v, want [hacc1 posix1]", ids)
	}
}
