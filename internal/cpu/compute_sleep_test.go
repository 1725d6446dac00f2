package cpu

import (
	"bytes"
	"fmt"
	"testing"

	"pushmulticast/internal/snapshot"
	"pushmulticast/internal/workload"
)

// coreBytes encodes the engine and the core at the current barrier, as a
// snapshot does (settling what the core slept through first).
func coreBytes(r *rig) []byte {
	c := snapshot.NewEncoder("", "", uint64(r.eng.Now()))
	r.eng.State(c)
	r.cores[0].State(c)
	return c.Finish()
}

// coreFields is the core's primary state, for a readable diff.
func coreFields(c *Core) string {
	return fmt.Sprintf("cur %+v haveOp %v insts %d stalls %d outLoads %d outStores %d ops %d blocked %v",
		c.cur, c.haveOp, c.insts, c.stalls, c.outLoads, c.outStores, c.opsConsumed, c.blocked)
}

// lockstep runs the stream on both kernels a cycle at a time and compares
// the core field by field and by State bytes at every barrier. Since State
// settles the sleeping core, a third, wake-driven run that nothing reads
// mid-run settles only where its own ticks and wakes do; it must finish with
// the dense core's fields. lockstep returns that run and the number of
// LoadDone calls that reached its core while it slept through compute.
func lockstep(t *testing.T, list ...workload.Op) (*rig, int) {
	t.Helper()
	w := buildRigOn(t, []workload.Stream{ops(list...)}, false)
	d := buildRigOn(t, []workload.Stream{ops(list...)}, true)
	u := buildRigOn(t, []workload.Stream{ops(list...)}, false)
	woken := 0
	for !w.cores[0].Finished() || !d.cores[0].Finished() || !u.cores[0].Finished() {
		if w.eng.Now() > 100_000 {
			t.Fatal("no finish within 100000 cycles")
		}
		wc := w.cores[0]
		// State settles what the sleeping core has not counted yet, so the
		// fields are compared after it.
		wb, db := coreBytes(w), coreBytes(d)
		if wf, df := coreFields(wc), coreFields(d.cores[0]); wf != df {
			t.Fatalf("cycle %d: wake-driven core %s, dense %s", w.eng.Now(), wf, df)
		}
		if !bytes.Equal(wb, db) {
			t.Fatalf("cycle %d: State bytes differ", w.eng.Now())
		}
		uc := u.cores[0]
		asleep, loads := uc.workTo >= u.eng.Now(), uc.outLoads
		w.eng.Step()
		d.eng.Step()
		u.eng.Step()
		if asleep && uc.outLoads < loads {
			woken++
		}
	}
	if uf, df := coreFields(u.cores[0]), coreFields(d.cores[0]); w.eng.Now() != d.eng.Now() || uf != df {
		t.Fatalf("wake-driven core finished at %d with %s, dense at %d with %s", w.eng.Now(), uf, d.eng.Now(), df)
	}
	if u.eng.Ticks() >= d.eng.Ticks() {
		t.Fatalf("wake-driven kernel ticked %d times, dense %d: nothing slept", u.eng.Ticks(), d.eng.Ticks())
	}
	return u, woken
}

// TestComputeSleepMatchesDenseAcrossLoadDone: a core issues a cold load and
// computes while it is outstanding, so LoadDone wakes it mid-compute. Both
// kernels hold the same core at every barrier.
func TestComputeSleepMatchesDenseAcrossLoadDone(t *testing.T) {
	w, woken := lockstep(t,
		workload.Op{Kind: workload.OpLoad, Addr: 1 << 30},
		workload.Op{Kind: workload.OpWork, N: 4003},
		workload.Op{Kind: workload.OpLoad, Addr: 1<<30 + 64},
		workload.Op{Kind: workload.OpWork, N: 77},
	)
	if woken == 0 {
		t.Fatal("no LoadDone reached the core while it slept through compute")
	}
	if got := w.cores[0].Instructions(); got != 4082 {
		t.Fatalf("retired %d instructions, want 4082", got)
	}
}

// TestComputeSleepSnapshotMidCompute: a snapshot taken while the core sleeps
// through compute holds what a dense core retired by the barrier, and a core
// restored from it finishes exactly where the uninterrupted one does.
func TestComputeSleepSnapshotMidCompute(t *testing.T) {
	list := []workload.Op{{Kind: workload.OpWork, N: 1601}, {Kind: workload.OpLoad, Addr: 1 << 30}}
	w := buildRigOn(t, []workload.Stream{ops(list...)}, false)
	for w.eng.Now() < 100 {
		w.eng.Step()
	}
	if c := w.cores[0]; c.workTo <= w.eng.Now() {
		t.Fatalf("at cycle 100 the core is not asleep through compute (work through %d)", c.workTo)
	}
	snap := coreBytes(w)
	if got, want := w.cores[0].insts, uint64(100*8); got != want {
		t.Fatalf("settled at cycle 100 with %d instructions retired, want %d", got, want)
	}
	r := buildRigOn(t, []workload.Stream{ops(list...)}, false)
	dec, err := snapshot.NewDecoder(snap)
	if err != nil {
		t.Fatal(err)
	}
	if r.eng.State(dec); dec.Err() == nil {
		r.cores[0].State(dec)
	}
	if dec.Err() != nil {
		t.Fatal(dec.Err())
	}
	if end, want := r.run(t), w.run(t); end != want || coreFields(r.cores[0]) != coreFields(w.cores[0]) {
		t.Fatalf("restored core finished at %d with %s, uninterrupted at %d with %s",
			end, coreFields(r.cores[0]), want, coreFields(w.cores[0]))
	}
}
