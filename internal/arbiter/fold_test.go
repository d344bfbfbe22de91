package arbiter

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"repro/internal/journal"
	"repro/internal/mapping"
	"repro/internal/nodestate"
	"repro/internal/policy"
)

// TestJournalFoldMirrorsSet drives a journaled arbiter through 500
// seeded random transitions — Set on every flag in both directions
// (no-ops, drains of down nodes, marks on draining nodes, and down marks
// mid-drain included), removals of marked nodes, node additions, and job
// arrivals and departures so the solver runs and can refuse — and after
// every step replays the journal directory, as a recovering process
// would, and requires the fold to equal the arbiter's own state.
func TestJournalFoldMirrorsSet(t *testing.T) {
	dir := t.TempDir()
	jn, err := journal.Open(dir, journal.Options{NoSync: true, SnapshotEvery: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer jn.Close()
	arb, err := New(policy.MCKP{}, addrs(3), mapping.NewBus())
	if err != nil {
		t.Fatal(err)
	}
	arb.WithQuarantine(2).WithJournal(jn)

	rng := rand.New(rand.NewPCG(12, 0))
	labels := []string{"IOR-MPI", "HACC", "POSIX-L", "POSIX-S"}
	added, jobs, rollbacks := 0, 0, 0
	for step := 0; step < 500; step++ {
		pool := arb.Pool()
		addr := "nobody:1"
		if k := rng.IntN(len(pool) + 1); k < len(pool) {
			addr = pool[k]
		}
		var op string
		switch r := rng.IntN(20); {
		case r < 14:
			f := nodestate.All[rng.IntN(len(nodestate.All))]
			on := rng.IntN(2) == 0
			op = fmt.Sprintf("Set(%s, %s, %v)", addr, f, on)
			err := arb.Set(addr, f, on)
			if f == nodestate.Draining && on && err != nil &&
				!errors.Is(err, ErrIONDown) && !errors.Is(err, ErrUnknownION) {
				rollbacks++
			}
		case r < 15:
			op = "RemoveION(" + addr + ")"
			arb.RemoveION(addr)
		case r < 16:
			if len(pool) >= 5 {
				continue // keep the pool small enough to exhaust
			}
			added++
			op = fmt.Sprintf("AddION(new%d:1)", added)
			arb.AddION(fmt.Sprintf("new%d:1", added))
		case r < 18:
			jobs++
			id := fmt.Sprintf("job%d", jobs)
			op = "JobStarted(" + id + ")"
			arb.JobStarted(app(t, labels[rng.IntN(len(labels))], id))
		default:
			running := arb.Running()
			if len(running) == 0 {
				continue
			}
			id := running[rng.IntN(len(running))].ID
			op = "JobFinished(" + id + ")"
			arb.JobFinished(id)
		}

		folded, _, _, err := journal.Replay(dir)
		if err != nil {
			t.Fatal(err)
		}
		arb.mu.Lock()
		own := arb.stateLocked()
		arb.mu.Unlock()
		if marks(*folded) != marks(own) {
			t.Fatalf("step %d %s: journal fold diverged from the arbiter\n  fold    %s\n  arbiter %s",
				step, op, marks(*folded), marks(own))
		}
		if folded.Epoch != own.Epoch || (len(folded.Assign) != 0 || len(own.Assign) != 0) &&
			!reflect.DeepEqual(folded.Assign, own.Assign) {
			t.Fatalf("step %d %s: journal fold diverged from the arbiter\n  fold    epoch %d %v\n  arbiter epoch %d %v",
				step, op, folded.Epoch, folded.Assign, own.Epoch, own.Assign)
		}
	}
	if rollbacks < 3 {
		t.Fatalf("only %d drains rolled back: the sequence no longer exercises the solve-failure path", rollbacks)
	}
}
