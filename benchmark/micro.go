package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	pm "pushmulticast"
	"pushmulticast/internal/noc"
	"pushmulticast/internal/shard"
	"pushmulticast/internal/sim"
	"pushmulticast/internal/stats"
	simwl "pushmulticast/internal/workload"
)

// Micro-drivers exercise one layer alone, through its public surface, so a
// layer's own cost can be told apart from its share of a whole simulation.
// Sizes shrink under smoke; the code paths do not.

type microSizes struct {
	tickers, steps int // engine drivers
	packets        int // NoC drivers, per kind
	commits        int // journal driver
	memoHits       int
}

func sizesFor(smoke bool) microSizes {
	if smoke {
		return microSizes{tickers: 256, steps: 200, packets: 200, commits: 20, memoHits: 200}
	}
	return microSizes{tickers: 4096, steps: 2000, packets: 20000, commits: 200, memoHits: 20000}
}

// microEngine times the scheduler alone: nullTick is the cost of one tick of
// an always-awake component that does nothing, sleepWake the cost of one
// tick of a component that goes back to sleep for 1..7 cycles every time.
func microEngine(sz microSizes) (nullTickNs, sleepWakeNs float64) {
	eng := sim.NewEngine(0, 0)
	for i := 0; i < sz.tickers; i++ {
		eng.Register(sim.TickFunc(func(sim.Cycle) {}))
	}
	t0 := time.Now()
	for i := 0; i < sz.steps; i++ {
		eng.Step()
	}
	nullTickNs = float64(time.Since(t0).Nanoseconds()) / float64(eng.Ticks())

	eng = sim.NewEngine(0, 0)
	for i := 0; i < sz.tickers; i++ {
		var h *sim.Handle
		gap := sim.Cycle(1 + i%7)
		h = eng.Register(sim.TickFunc(func(now sim.Cycle) { h.SleepUntil(now + gap) }))
	}
	end := sim.Cycle(sz.steps)
	t0 = time.Now()
	if _, err := eng.Run(func() bool { return eng.Now() >= end }); err != nil {
		return nullTickNs, 0
	}
	sleepWakeNs = float64(time.Since(t0).Nanoseconds()) / float64(eng.Ticks())
	return nullTickNs, sleepWakeNs
}

// sink is a NoC endpoint that counts and recycles what it receives.
type sink struct {
	ni  *noc.NI
	got *int
}

func (s sink) Receive(p *noc.Packet, _ sim.Cycle) {
	*s.got++
	s.ni.Recycle(p)
}

// microNoC drives an 8x8 mesh with no caches attached: seeded uniform
// unicast data packets, then 1-to-16 push multicasts. It returns host
// nanoseconds per link-level flit traversal for each and the router-made
// replicas per multicast.
func microNoC(sz microSizes, seed uint64) (uniNs, mcastNs, replicasPerPush float64, err error) {
	drive := func(multicast bool) (float64, float64, error) {
		cfg := noc.DefaultConfig(8, 8)
		cfg.FilterEnabled = true
		eng := sim.NewEngine(0, 0) // stepped by hand below; no watchdog
		st := stats.New()
		net, err := noc.New(cfg, eng, st)
		if err != nil {
			return 0, 0, err
		}
		got := 0
		for n := 0; n < cfg.Nodes(); n++ {
			for u := stats.Unit(0); u < stats.NumUnits; u++ {
				net.Attach(noc.NodeID(n), u, sink{net.NI(noc.NodeID(n)), &got})
			}
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		sent, want := 0, 0
		t0 := time.Now()
		for got < want || sent < sz.packets {
			for tries := 0; tries < 8 && sent < sz.packets; tries++ {
				src := noc.NodeID(rng.Intn(cfg.Nodes()))
				ni := net.NI(src)
				if !ni.CanInject(stats.UnitLLC, noc.VNetData) {
					continue
				}
				p := ni.NewPacket()
				p.VNet, p.SrcUnit, p.DstUnit = noc.VNetData, stats.UnitLLC, stats.UnitL2
				p.Size = cfg.DataPacketSize()
				p.Addr = uint64(sent) << 6
				dests := 1
				if multicast {
					p.Class, p.IsPush = stats.ClassPushData, true
					for p.Dests.Count() < 16 {
						if d := noc.NodeID(rng.Intn(cfg.Nodes())); d != src {
							p.Dests = p.Dests.Add(d)
						}
					}
					dests = 16
				} else {
					p.Class = stats.ClassReadSharedData
					dst := noc.NodeID(rng.Intn(cfg.Nodes() - 1))
					if dst >= src {
						dst++
					}
					p.Dests = noc.OneDest(dst)
				}
				if !ni.Inject(p, eng.Now()) {
					ni.Recycle(p)
					continue
				}
				sent++
				want += dests
			}
			eng.Step()
			if eng.Now() > sim.Cycle(200*sz.packets+10_000) {
				return 0, 0, fmt.Errorf("noc micro-driver: %d of %d deliveries after %d cycles", got, want, eng.Now())
			}
		}
		elapsed := time.Since(t0)
		flits := st.Net.TotalFlits()
		if flits == 0 {
			return 0, 0, fmt.Errorf("noc micro-driver: no link flits counted")
		}
		return float64(elapsed.Nanoseconds()) / float64(flits), float64(st.Net.MulticastReplicas) / float64(sent), nil
	}
	if uniNs, _, err = drive(false); err != nil {
		return
	}
	mcastNs, replicasPerPush, err = drive(true)
	return
}

// microStreams drains every bundled workload's tiny-scale streams for a
// 16-core machine and returns generated operations per host microsecond.
func microStreams() (mopsPerS float64, err error) {
	ops := 0
	t0 := time.Now()
	for _, name := range pm.WorkloadNames() {
		wl, err := pm.WorkloadByName(name)
		if err != nil {
			return 0, err
		}
		if wl.Validate != nil {
			if err := wl.Validate(16); err != nil {
				return 0, err
			}
		}
		for c := 0; c < 16; c++ {
			s := wl.Build(c, 16, pm.ScaleTiny)
			for s.Next().Kind != simwl.OpEnd {
				ops++
			}
		}
	}
	return float64(ops) / float64(time.Since(t0).Microseconds()+1), nil
}

// microHarness times the campaign memo's hit path and the run-identity hash.
func microHarness(op simOp, sz microSizes) (memoHitUs, identityUs float64, err error) {
	ctx := context.Background()
	if _, _, err = pm.CampaignRun(ctx, op.cfg, op.wl, op.sc); err != nil {
		return
	}
	t0 := time.Now()
	for i := 0; i < sz.memoHits; i++ {
		if _, hit, err := pm.CampaignRun(ctx, op.cfg, op.wl, op.sc); err != nil || !hit {
			return 0, 0, fmt.Errorf("hot memo key: hit=%v err=%v", hit, err)
		}
	}
	memoHitUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(sz.memoHits)
	t0 = time.Now()
	var id string
	for i := 0; i < sz.memoHits; i++ {
		id = pm.RunIdentity(op.cfg, op.wl, op.sc, nil)
	}
	identityUs = float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(sz.memoHits)
	if id == "" {
		err = fmt.Errorf("empty run identity")
	}
	return
}

// microJournal appends records to a journal file in dir, one fsync each.
func microJournal(dir string, sz microSizes, rec *recorder) (commitS []float64, bytesPerRecord float64, err error) {
	path := filepath.Join(dir, fmt.Sprintf("journal-micro-%d.ndjson", os.Getpid()))
	defer os.Remove(path)
	j, err := shard.OpenJournal(path)
	if err != nil {
		return nil, 0, err
	}
	parent := rec.begin("micro:journal", 0)
	for i := 0; i < sz.commits; i++ {
		r := shard.RunRecord{
			ID: fmt.Sprintf("%016x", i), Scheme: "OrdPush", Workload: "cachebw",
			Cycles: 21266, Instructions: 1 << 20, IPC: 1.5, L1MPKI: 8.03, L2MPKI: 2.01,
			NoCFlits: 355588, TraceHash: "0x9f3a11c2d4e5b607", TraceEvents: 123456,
		}
		sp := rec.begin("Journal.Commit", parent)
		t0 := time.Now()
		_, err := j.Commit(r)
		commitS = append(commitS, time.Since(t0).Seconds())
		rec.end(sp)
		if err != nil {
			j.Close()
			return nil, 0, err
		}
	}
	rec.end(parent)
	if err := j.Close(); err != nil {
		return nil, 0, err
	}
	fi, err := os.Stat(path)
	if err != nil {
		return nil, 0, err
	}
	return commitS, float64(fi.Size()) / float64(sz.commits), nil
}
