package arbiter

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/journal"
)

// TestRecoverPinnedFixture warm-restarts an arbiter from the committed
// journal fixture (see internal/journal/fixture_test.go) with a probe
// that finds one journaled-alive node dead, and pins the recovered
// flags, assignment, and epochs.
func TestRecoverPinnedFixture(t *testing.T) {
	src := filepath.Join("..", "journal", "testdata", "fixture")
	dir := t.TempDir()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, e.Name()), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rec, bus, err := recoverFrom(t, dir, RecoverConfig{
		Probe: func(addr string) bool { return addr != "ion4:9004" },
	})
	if err != nil {
		t.Fatalf("recover: %v", err)
	}
	rec.mu.Lock()
	st := rec.stateLocked()
	rec.mu.Unlock()
	var ids []string
	for _, a := range st.Running {
		ids = append(ids, a.ID)
	}
	st.Running = nil
	want := journal.State{
		Pool:       []string{"ion0:9000", "ion1:9001", "ion2:9002", "ion3:9003", "ion4:9004", "ion5:9005"},
		Down:       []string{"ion4:9004", "ion5:9005"},
		Overloaded: []string{"ion4:9004"},
		Degraded:   []string{"ion0:9000"},
		Assign: map[string][]string{
			"hacc1":  {"ion3:9003", "ion2:9002"},
			"posix1": {"ion1:9001"},
		},
		Epoch: 20,
	}
	if !reflect.DeepEqual(st, want) {
		t.Fatalf("recovered state\n  %+v\nwant\n  %+v", st, want)
	}
	if !reflect.DeepEqual(ids, []string{"hacc1", "posix1"}) {
		t.Fatalf("running = %v, want [hacc1 posix1]", ids)
	}
	if !reflect.DeepEqual(rec.Current(), want.Assign) {
		t.Fatalf("assignment = %v, want %v", rec.Current(), want.Assign)
	}
	if v := bus.Version(); v != 20 {
		t.Fatalf("bus version = %d, want 20", v)
	}
	// Recovery's own reconciliation (the probe's mark-down, the drain
	// abort, the republish) is journaled: replaying the directory now
	// folds to exactly the recovered arbiter's view.
	replayed, _, _, err := journal.Replay(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := marks(*replayed); got != marks(want) || !reflect.DeepEqual(replayed.Assign, want.Assign) {
		t.Fatalf("post-recovery replay\n  %s %v\nwant\n  %s %v", got, replayed.Assign, marks(want), want.Assign)
	}
}

// marks renders a state's pool and flag sets for comparison; nil and
// empty sets print alike.
func marks(st journal.State) string {
	return fmt.Sprintf("pool=%v down=%v overloaded=%v draining=%v degraded=%v",
		st.Pool, st.Down, st.Overloaded, st.Draining, st.Degraded)
}
