package pushmulticast

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"pushmulticast/internal/core"
	"pushmulticast/internal/snapshot"
)

// snapshotKernels are the kernels the checkpoint/restore contract must hold
// on: a snapshot taken under either restores into either, because the
// serialized state is kernel-independent.
var snapshotKernels = []struct {
	name string
	with func(Config) Config
}{
	{"serial", func(cfg Config) Config { return cfg }},
	{"dense", withDense},
}

// coldAndWarm runs the configuration twice — once cold to completion, once
// paused at barrier, snapshotted, restored into a fresh machine, and
// finished — and returns both results plus the snapshot.
func coldAndWarm(t *testing.T, cfg Config, wl Workload, sc Scale, barrier uint64) (cold, warm Results, snap []byte) {
	t.Helper()
	cold, err := RunWorkload(cfg, wl, sc)
	if err != nil {
		t.Fatalf("cold run: %v", err)
	}
	m, err := NewMachine(cfg, wl, sc)
	if err != nil {
		t.Fatalf("NewMachine: %v", err)
	}
	if err := m.RunTo(barrier); err != nil {
		t.Fatalf("RunTo(%d): %v", barrier, err)
	}
	snap, err = m.Snapshot()
	if err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	if at, err := SnapshotCycle(snap); err != nil || at < barrier {
		t.Fatalf("SnapshotCycle = %d, %v; want >= barrier %d", at, err, barrier)
	}
	restored, err := RestoreMachine(snap, cfg, wl, sc)
	if err != nil {
		t.Fatalf("RestoreMachine: %v", err)
	}
	warm, err = restored.Finish()
	if err != nil {
		t.Fatalf("restored Finish: %v", err)
	}
	return cold, warm, snap
}

// TestSnapshotRestoreEquivalence is the tentpole contract: a run paused at a
// mid-run cycle barrier, serialized, restored into a freshly built machine,
// and continued to completion is byte-identical to a cold run — same cycle
// count, same full counter bundle, same causal event history (trace hash) —
// on the wake-driven and dense kernels alike.
func TestSnapshotRestoreEquivalence(t *testing.T) {
	type row struct {
		name string
		base Config
		sch  Scheme
	}
	rows := []row{{"", Default16(), Baseline()}, {"", Default16(), OrdPush()}}
	if !testing.Short() {
		// The saturated 8x8 mesh: at the half-way barrier every router holds
		// packets, streams and ring entries, so the restore has to rebuild all
		// of the routers' derived hot state (free-VC, unrouted and queued-ring
		// masks, the credit bits on the neighbour's side of each link) and the
		// cache tag indexes, and the checker audits them from then on.
		rows = append(rows, row{"mesh64/", Default64(), OrdPush()})
	}
	for _, r := range rows {
		for _, k := range snapshotKernels {
			r, k := r, k
			t.Run(r.name+r.sch.Name+"/"+k.name, func(t *testing.T) {
				t.Parallel()
				cfg := k.with(withCheck(ScaledConfig(r.base).WithScheme(r.sch)))
				wl, err := WorkloadByName("cachebw")
				if err != nil {
					t.Fatal(err)
				}
				// Probe the total once so the barrier genuinely straddles the
				// run (ClearRunMemo-independent: direct runs, no memo).
				probe, err := RunWorkload(cfg, wl, ScaleTiny)
				if err != nil {
					t.Fatal(err)
				}
				barrier := probe.Cycles / 2
				if barrier == 0 {
					t.Fatalf("degenerate probe run: %d cycles", probe.Cycles)
				}
				cold, warm, _ := coldAndWarm(t, cfg, wl, ScaleTiny, barrier)
				checkIdentical(t, "cold", "restored", cold, warm)
			})
		}
	}
}

// TestSnapshotRestoreLossyStraddle pins the hardest restore case: an active
// lossy fault plan (drops, duplicates, corruptions with in-flight
// retransmit/anti-replay state) straddling the snapshot barrier. The
// injector's schedule position, the per-stream sequence and retransmission
// windows, and the checker's loss bookkeeping all cross the barrier and must
// resume exactly.
func TestSnapshotRestoreLossyStraddle(t *testing.T) {
	for _, k := range snapshotKernels {
		k := k
		t.Run(k.name, func(t *testing.T) {
			t.Parallel()
			cfg := k.with(withCheck(ScaledConfig(Default16()).WithScheme(OrdPush())))
			plan := GenerateLossyPlan(cfg.Tiles(), 7, 40)
			cfg.Faults = &plan
			wl, err := WorkloadByName("cachebw")
			if err != nil {
				t.Fatal(err)
			}
			probe, err := RunWorkload(cfg, wl, ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			if probe.Stats.Net.MsgDropped == 0 {
				t.Fatal("lossy plan injected no drops; the straddle tests nothing")
			}
			cold, warm, _ := coldAndWarm(t, cfg, wl, ScaleTiny, probe.Cycles/2)
			checkIdentical(t, "cold", "restored", cold, warm)
		})
	}
}

// TestSnapshotCrossKernelRestore is kernel independence as a property: for
// each golden configuration, checked and traced, at barriers drawn from a
// fixed seed, a snapshot taken on one kernel and restored on the other
// finishes exactly like the cold run — cycles, counters and trace hash. -short
// draws one barrier per configuration, the full suite four.
func TestSnapshotCrossKernelRestore(t *testing.T) {
	draws := 4
	if testing.Short() {
		draws = 1
	}
	rng := rand.New(rand.NewSource(1))
	for _, g := range goldenSnapshots {
		cfg, wl := g.build(t)
		cfg = withCheck(cfg)
		fractions := make([]float64, draws)
		for i := range fractions {
			fractions[i] = rng.Float64()
		}
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cold, err := RunWorkload(cfg, wl, ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			for _, f := range fractions {
				barrier := uint64(f * float64(cold.Cycles))
				for i, from := range snapshotKernels {
					to := snapshotKernels[1-i]
					warm := finishFrom(t, snapAt(t, from.with(cfg), wl, barrier), to.with(cfg), wl)
					checkIdentical(t, "cold", fmt.Sprintf("%s snapshot at %d restored %s", from.name, barrier, to.name), cold, warm)
				}
			}
		})
	}
}

// TestSnapshotAtCycleZero round-trips a machine that never stepped. The
// catch-up counters settle to the cycle before the barrier, here cycle -1,
// which must wrap to exactly where a fresh build starts, on either kernel.
func TestSnapshotAtCycleZero(t *testing.T) {
	cfg, wl := withCheck(ScaledConfig(Default16()).WithScheme(OrdPush())), goldenWorkload(t, "cachebw")
	cold, err := RunWorkload(cfg, wl, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	wake, dense := snapAt(t, cfg, wl, 0), snapAt(t, withDense(cfg), wl, 0)
	if !bytes.Equal(wake, dense) {
		t.Errorf("the kernels serialize a fresh machine differently (hashes %#x vs %#x)", SnapshotHash(wake), SnapshotHash(dense))
	}
	if at, err := SnapshotCycle(wake); err != nil || at != 0 {
		t.Fatalf("SnapshotCycle = %d, %v; want 0", at, err)
	}
	checkIdentical(t, "cold", "restored from cycle 0", cold, finishFrom(t, wake, withDense(cfg), wl))
	checkIdentical(t, "cold", "restored from cycle 0 (wake-driven)", cold, finishFrom(t, dense, cfg, wl))
}

// TestCanceledMachineResumes: cancellation stops a run without failing it. A
// RunToCtx under a canceled context stops at the first context poll, cycle
// 255, with ErrCanceled; the machine still snapshots, and Finish gives the
// cold run's 21,266 cycles.
func TestCanceledMachineResumes(t *testing.T) {
	m, err := NewMachine(ScaledConfig(Default16()).WithScheme(OrdPush()), goldenWorkload(t, "cachebw"), ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := m.RunToCtx(ctx, 1<<40); !errors.Is(err, ErrCanceled) || m.Now() != 255 {
		t.Fatalf("canceled RunToCtx stopped at cycle %d with %v; want cycle 255 and ErrCanceled", m.Now(), err)
	}
	if _, err := m.Snapshot(); err != nil {
		t.Fatalf("a canceled machine refused to snapshot: %v", err)
	}
	if res, err := m.Finish(); err != nil || res.Cycles != 21266 {
		t.Fatalf("Finish after a cancel: %d cycles, %v; want the cold run's 21266", res.Cycles, err)
	}
}

// TestWarmForkIgnoresDonorKernel: a warm-start fork depends on its donor's
// machine state, never on the kernel that wrote it. The donor is
// broadcast/OrdPush tiny/16 at 9/10 of its cold run, taken on each kernel at
// the same cycle and forked under two resume windows (100 is the paper's
// §III-D window). While snapshots carried the scheduler's words and unsettled
// catch-up counters, the window-100 fork of the wake-driven donor finished at
// 61,804 cycles and that of the dense donor at 61,726.
func TestWarmForkIgnoresDonorKernel(t *testing.T) {
	cfg, wl := ScaledConfig(Default16()).WithScheme(OrdPush()), goldenWorkload(t, "broadcast")
	cold, err := RunWorkload(cfg, wl, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	var donors [][]byte
	for _, k := range snapshotKernels {
		donors = append(donors, snapAt(t, k.with(cfg), wl, cold.Cycles*9/10))
	}
	wakeAt, _ := SnapshotCycle(donors[0])
	if denseAt, _ := SnapshotCycle(donors[1]); wakeAt != denseAt {
		t.Fatalf("the donors paused at cycles %d and %d; the fork comparison needs one", wakeAt, denseAt)
	}
	for _, window := range []int{100, 333} {
		fork := cfg
		fork.TimeWindow = window
		checkIdentical(t, fmt.Sprintf("window-%d fork of the wake-driven donor", window), "of the dense donor",
			finishFrom(t, donors[0], fork, wl), finishFrom(t, donors[1], fork, wl))
	}
}

// TestSnapshotDeterminism asserts the snapshot itself is a pure function of
// machine state: two machines driven identically to the same barrier
// serialize to byte-identical snapshots, and a restored machine re-paused at
// the same (post-barrier) state re-serializes to the same bytes as a
// never-restored one. This property is what makes SnapshotHash a valid memo
// identity.
func TestSnapshotDeterminism(t *testing.T) {
	cfg := withCheck(ScaledConfig(Default16()).WithScheme(OrdPush()))
	wl, err := WorkloadByName("cachebw")
	if err != nil {
		t.Fatal(err)
	}
	pauseAt := func(barrier uint64) []byte {
		m, err := NewMachine(cfg, wl, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.RunTo(barrier); err != nil {
			t.Fatal(err)
		}
		snap, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	a, b := pauseAt(5000), pauseAt(5000)
	if !bytes.Equal(a, b) {
		t.Errorf("identical machine states serialized to different bytes (%d vs %d, hashes %#x vs %#x)",
			len(a), len(b), SnapshotHash(a), SnapshotHash(b))
	}
	// Restore the first snapshot, advance to a later barrier, and compare
	// against a cold machine paused at that same barrier: the restored
	// machine must be indistinguishable even to the serializer.
	m, err := RestoreMachine(a, cfg, wl, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunTo(8000); err != nil {
		t.Fatal(err)
	}
	viaRestore, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	direct := pauseAt(8000)
	if !bytes.Equal(viaRestore, direct) {
		t.Errorf("restore-then-advance state diverged from cold state at the same barrier (hashes %#x vs %#x)",
			SnapshotHash(viaRestore), SnapshotHash(direct))
	}
}

// TestSnapshotRestoreMismatch verifies restore refuses loudly — with
// ErrSnapshotMismatch, before touching any state — when the restoring
// configuration genuinely differs, and accepts knob-only forks.
func TestSnapshotRestoreMismatch(t *testing.T) {
	base := withCheck(ScaledConfig(Default16()).WithScheme(OrdPush()))
	wl, err := WorkloadByName("cachebw")
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMachine(base, wl, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunTo(2000); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		mutate func(Config) Config
		wantOK bool
	}{
		{"identical config", func(c Config) Config { return c }, true},
		{"knob-only fork (TPCThreshold)", func(c Config) Config { c.TPCThreshold = 99; return c }, true},
		{"knob-only fork (TimeWindow)", func(c Config) Config { c.TimeWindow = 1234; return c }, true},
		{"different scheme", func(c Config) Config { return c.WithScheme(Baseline()) }, false},
		{"different cache geometry", func(c Config) Config { c.L2Size *= 2; return c }, false},
		{"checker stripped", func(c Config) Config { c.Check = false; c.TraceN = 0; return c }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, err := RestoreMachine(snap, tc.mutate(base), wl, ScaleTiny)
			if tc.wantOK && err != nil {
				t.Fatalf("restore refused a legitimate target: %v", err)
			}
			if !tc.wantOK {
				if err == nil {
					t.Fatal("restore accepted a mismatched configuration")
				}
				if !errors.Is(err, ErrSnapshotMismatch) {
					t.Fatalf("mismatch not wrapped in ErrSnapshotMismatch: %v", err)
				}
			}
		})
	}
	t.Run("different workload", func(t *testing.T) {
		other, err := WorkloadByName("bfs")
		if err != nil {
			t.Fatal(err)
		}
		if _, err := RestoreMachine(snap, base, other, ScaleTiny); !errors.Is(err, ErrSnapshotMismatch) {
			t.Fatalf("want ErrSnapshotMismatch, got %v", err)
		}
	})
	t.Run("fingerprint text of the previous format-v1 build", func(t *testing.T) {
		// Config lost its ParallelThreshold field, and the fingerprints are
		// the config's %+v text: a snapshot written before that spells the
		// field in its header. It is refused on the header alone (this one has
		// no body for a restore to touch) with the usual one-line mismatch.
		strict, fork := core.Fingerprint(base, wl, ScaleTiny)
		old := func(fp string) string {
			return strings.Replace(fp, "ParallelWorkers:0 Check:", "ParallelWorkers:0 ParallelThreshold:0 Check:", 1)
		}
		if old(strict) == strict || old(fork) == fork {
			t.Fatalf("fingerprint text has no ParallelWorkers/Check seam to re-insert the field at: %s", strict)
		}
		stale := snapshot.NewEncoder(old(strict), old(fork), 2000).Finish()
		_, err := RestoreMachine(stale, base, wl, ScaleTiny)
		if !errors.Is(err, ErrSnapshotMismatch) || strings.Contains(err.Error(), "\n") {
			t.Fatalf("want a one-line ErrSnapshotMismatch, got %v", err)
		}
	})
	t.Run("truncated snapshot", func(t *testing.T) {
		if _, err := RestoreMachine(snap[:len(snap)-9], base, wl, ScaleTiny); !errors.Is(err, ErrSnapshotCorrupt) {
			t.Fatalf("want ErrSnapshotCorrupt, got %v", err)
		}
	})
}

// goldenSnapshot is one fixed machine state whose serialized bytes are
// pinned.
type goldenSnapshot struct {
	name  string
	build func(t testing.TB) (Config, Workload)
	cycle uint64
	size  int
	hash  uint64
}

// goldenSnapshots between them exercise every section of the format: plain
// and collective workloads, all three schemes, transport retransmit windows,
// checker loss bookkeeping, the trace ring, and blocked LLC lines of every
// kind. The pins are format v9's, recorded when a failure came to be kept
// once, on the engine, and a failed machine to refuse to snapshot: every L2
// section lost the flag byte of its unrecoverable verdict, and every lossy
// NI's transport section the flag byte of its sender's, so against v8
// (320,270 / 164,801 / 361,569 / 407,391 bytes) the machines moved by -16 /
// -16 / -16 / -32 (16 L2s each, and 16 transports on the lossy one). v8 was
// recorded when sequence numbers became 64 bits: every coded packet's
// number, every live rx stream's top and every window's next number grew
// from 4 bytes to 8. Against v7 (319,794 / 163,861
// / 361,067 / 403,639 bytes) the machines moved by +476 / +940 / +412 /
// +3,752: 119 / 235 / 103 / 618 packets, and on the lossy one also 272
// streams and 48 windows (16 tiles, 3 vnets). An rx stream's key is now
// tile*3+vnet instead of tile<<2|vnet, which changes key values, not sizes
// or order. Two pins moved since, within v8 and with no section's encoding
// changed: broadcast-pushack by +90 bytes (361,479 before), all in the
// header, when both fingerprints began to carry a parameterized workload's
// signature after its name — a space and the 44 bytes of "sharers=0
// fanout=0 chunk=0 payload=0 iters=0", twice; and the lossy, checked
// machine's hash alone (0x8362f21f4116d8fe before), when the trace ring began
// to hold its events in emission order instead of per-component drain order.
// v7 was recorded when the checker kept each fact
// once and four counters nothing read left the stats. Against v6 (320,010 /
// 164,077 / 361,283 / 403,998 bytes) every machine moved by -216 for the
// counters (stats.Net.EjectedPackets' 24 words, L1Accesses, L2Accesses,
// LLCEvictions); the lossy, checked one moved by another -143: -8 for the
// second in-flight map's length, +1 for the push bit of its 1 in-flight
// record, -8 for the per-key obligation count map's length and -16 for each
// of its 8 keys (9 obligations over 8 keys; the obligations themselves keep
// their 20 bytes). v6 was recorded when an NI's transport kept each
// fact once: a window entry's sequence number only in its packet, and one
// loss record per discarded key instead of a loss map and a per-line
// push-hold count; the receiver's streams, unchanged in size, now lead the
// section. Against v5 (320,010 / 164,077 / 361,283 / 405,030 bytes)
// the three lossless machines, which carry no transport, keep their sizes
// (the version word moved their hashes); the lossy one moved by -1,032: -4
// for each of its 224 window entries, -8 a tile for the 16 push-hold map
// lengths, -16 for each of the 5 lines held, +8 for each of the 9 loss
// records (its line address). v5 was recorded when an LLC slice's episode,
// fetch and stall maps became one transaction record per blocked line and
// the writeback buffer an address set. Against v4 (319,915 / 153,817 /
// 361,560 / 405,089 bytes) each machine moved by exactly: -32 for the header (MeshW and
// MeshH left the config's text in both fingerprints); -16 a slice for the two
// map lengths gone; +11 per write, evict or push record (61 bytes: address,
// pending acks, writer, evict bit, two slice lengths; the episode had 50 with
// its kind and epoch); +45 per fetch record (16 before, no pending, writer or
// evict, no parked list); -1 per reader merged into a fetch (its never-read
// prefetch flag); -16 per line that had stalled packets (their address and
// length now live in the record); -1 per writeback entry (its never-read
// invalidated flag). At the four barriers the machines hold 0 / 0 / 17 / 0
// such episodes, 12 / 240 / 0 / 8 fetches with 157 / 252 / 0 / 131 merged
// readers, 0 / 0 / 11 / 0 lines with stalled packets and no writeback entry. v4 was 40 bytes per valid L1 and L2 line
// smaller than v3 (4,608 / 668 / 4,392 / 4,608 such lines; v3 held the four
// machines in 504,235 / 180,537 / 537,240 / 589,409 bytes). v3 was v2 without the
// engine's scheduling and the lazy catch-up residues (v2: 505,589 / 181,891 /
// 538,594 / 590,781 bytes, with every handle's sleep flag and wake time, the
// tick count, each core's blockedAt, each slice's lastTick, each L1's polled
// access and miss counts; v1 in 1,568,135 / 1,518,921 / 1,561,113 /
// 1,668,080, with every free cache way in full and the routers' derived
// words). The two fingerprint strings in the header are the config's %+v
// text, so removing a Config field moves the pins without moving a byte after
// the header (deleting LineSize, L1Latency and SeqBits took 70 bytes off
// each). Any other change to them is a format change and must bump the
// version.
var goldenSnapshots = []goldenSnapshot{
	{"cachebw-ordpush", func(t testing.TB) (Config, Workload) {
		return ScaledConfig(Default16()).WithScheme(OrdPush()), goldenWorkload(t, "cachebw")
	}, 10000, 320254, 0xec3400c966ad3fc1},
	{"bfs-baseline", func(t testing.TB) (Config, Workload) {
		return ScaledConfig(Default16()).WithScheme(Baseline()), goldenWorkload(t, "bfs")
	}, 2000, 164785, 0xca0ea2b331343c27},
	{"broadcast-pushack", func(t testing.TB) (Config, Workload) {
		return ScaledConfig(Default16()).WithScheme(PushAck()), goldenWorkload(t, "broadcast")
	}, 30000, 361553, 0x6176846ef139ae0c},
	// 20 per-mille loss keeps retransmit windows, anti-replay masks and the
	// checker's pending-loss obligations populated at any mid-run cycle.
	{"cachebw-ordpush-lossy-checked", func(t testing.TB) (Config, Workload) {
		cfg := withCheck(ScaledConfig(Default16()).WithScheme(OrdPush()))
		plan := GenerateLossyPlan(cfg.Tiles(), 7, 20)
		cfg.Faults = &plan
		return cfg, goldenWorkload(t, "cachebw")
	}, 12000, 407359, 0x052656b4f445bed3},
}

func goldenWorkload(t testing.TB, name string) Workload {
	t.Helper()
	wl, err := WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return wl
}

// take runs a fresh machine to the golden cycle and serializes it.
func (g goldenSnapshot) take(t testing.TB) []byte {
	t.Helper()
	cfg, wl := g.build(t)
	return snapAt(t, cfg, wl, g.cycle)
}

// snapAt runs a fresh tiny-scale machine to the barrier and serializes it.
func snapAt(t testing.TB, cfg Config, wl Workload, barrier uint64) []byte {
	t.Helper()
	m, err := NewMachine(cfg, wl, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.RunTo(barrier); err != nil {
		t.Fatal(err)
	}
	snap, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return snap
}

// finishFrom restores the snapshot into a fresh tiny-scale machine for cfg
// and runs it to completion.
func finishFrom(t testing.TB, snap []byte, cfg Config, wl Workload) Results {
	t.Helper()
	m, err := RestoreMachine(snap, cfg, wl, ScaleTiny)
	if err != nil {
		t.Fatal(err)
	}
	res, err := m.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestSnapshotGoldenBytes pins the wire format: the four golden states
// serialize to exactly the recorded length and content hash — taken on the
// wake-driven kernel and on the dense one alike, because a snapshot holds
// machine state and no scheduling.
func TestSnapshotGoldenBytes(t *testing.T) {
	for _, g := range goldenSnapshots {
		g := g
		t.Run(g.name, func(t *testing.T) {
			t.Parallel()
			cfg, wl := g.build(t)
			for _, k := range snapshotKernels {
				snap := snapAt(t, k.with(cfg), wl, g.cycle)
				if len(snap) != g.size || SnapshotHash(snap) != g.hash {
					t.Errorf("%s: snapshot is %d bytes, hash %#x; pinned %d bytes, hash %#x — the wire format changed",
						k.name, len(snap), SnapshotHash(snap), g.size, g.hash)
				}
			}
		})
	}
}

// TestSnapshotSaveBytes pins that a save allocates its bytes once: on every
// golden machine, Snapshot allocates at most 1.5 times the bytes it returns,
// fingerprints and description included (a buffer grown by append used to
// allocate about 4.5 times). The least of three saves of the one paused
// machine is taken, since MemStats counts every goroutine's allocations.
func TestSnapshotSaveBytes(t *testing.T) {
	for _, g := range goldenSnapshots {
		cfg, wl := g.build(t)
		m, err := NewMachine(cfg, wl, ScaleTiny)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.RunTo(g.cycle); err != nil {
			t.Fatal(err)
		}
		least, size := ^uint64(0), 0
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			snap, err := m.Snapshot()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			least, size = min(least, after.TotalAlloc-before.TotalAlloc), len(snap)
		}
		t.Logf("%s: %d bytes allocated for a %d-byte snapshot", g.name, least, size)
		if least > uint64(size)*3/2 {
			t.Errorf("%s: a %d-byte save allocated %d bytes; want at most 1.5x", g.name, size, least)
		}
	}
}

// TestRestoreAuditsClean restores every golden snapshot and audits the
// machine before its first Step: the format carries no derived field, so every
// mask, count, index and back pointer the datapath trusts is what the
// components' rebuilds made of the primary state, and the checker — which
// holds the live fields against those same rebuilds — must find nothing to
// say. Re-serializing the restored machine gives back the snapshot's bytes:
// nothing it carries was lost, although every handle restored awake.
func TestRestoreAuditsClean(t *testing.T) {
	for i, g := range goldenSnapshots {
		g, snap := g, goldenBytes(t)[i]
		t.Run(g.name, func(t *testing.T) {
			cfg, wl := g.build(t)
			m, err := RestoreMachine(snap, cfg, wl, ScaleTiny)
			if err != nil {
				t.Fatal(err)
			}
			s := m.sys
			// Every router last ticked in the cycle before the barrier.
			if err := s.Net.CheckConservation(s.Eng.Now() - 1); err != nil {
				t.Errorf("restored network fails its audit: %v", err)
			}
			for tile := range s.L2s {
				if err := s.L2s[tile].Audit(); err != nil {
					t.Errorf("restored L2 %d fails its audit: %v", tile, err)
				}
				if err := s.LLCs[tile].Audit(); err != nil {
					t.Errorf("restored LLC %d fails its audit: %v", tile, err)
				}
			}
			if again, err := m.Snapshot(); err != nil || !bytes.Equal(again, snap) {
				t.Errorf("restored machine re-serializes differently (%v)", err)
			}
		})
	}
}
