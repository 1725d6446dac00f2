package sim

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// scheduler is what a schedule program drives: the real engine, or the
// reference below.
type scheduler interface {
	Register(t Ticker) int
	Sleep(i int)
	SleepUntil(i int, c Cycle)
	Wake(i int)
	WakeAt(i int, c Cycle)
	Progress()
	ProgressThrough(c Cycle)
	Step()
	Run(finished func() bool) (Cycle, error)
	Now() Cycle
	Ticks() uint64
}

// realEngine adapts Engine to scheduler: handles by registration index.
type realEngine struct {
	*Engine
	hs []*Handle
}

func (r *realEngine) Register(t Ticker) int {
	r.hs = append(r.hs, r.Engine.Register(t))
	return len(r.hs) - 1
}
func (r *realEngine) Sleep(i int)               { r.hs[i].Sleep() }
func (r *realEngine) SleepUntil(i int, c Cycle) { r.hs[i].SleepUntil(c) }
func (r *realEngine) Wake(i int)                { r.hs[i].Wake() }
func (r *realEngine) WakeAt(i int, c Cycle)     { r.hs[i].WakeAt(c) }

// refEngine is the scheduling contract written down the slow way: wake times
// in a plain slice, every decision a linear scan over it. It shares only the
// limit bookkeeping with the engine (clock, progress stamp and limitErr live
// in lim, which never registers anything).
type refEngine struct {
	lim    *Engine
	comps  []Ticker
	wakeAt []Cycle // 0 while awake, else the wake cycle (NeverWake: none scheduled)
	ticks  uint64
}

func (r *refEngine) Register(t Ticker) int {
	r.comps, r.wakeAt = append(r.comps, t), append(r.wakeAt, 0)
	return len(r.comps) - 1
}
func (r *refEngine) Now() Cycle              { return r.lim.now }
func (r *refEngine) Ticks() uint64           { return r.ticks }
func (r *refEngine) Progress()               { r.lim.Progress() }
func (r *refEngine) ProgressThrough(c Cycle) { r.lim.ProgressThrough(c) }
func (r *refEngine) Wake(i int)              { r.wakeAt[i] = 0 }
func (r *refEngine) Sleep(i int)             { r.wakeAt[i] = NeverWake }
func (r *refEngine) SleepUntil(i int, c Cycle) {
	if c > r.lim.now+1 {
		r.wakeAt[i] = c
	} else if c == r.lim.now+1 {
		r.wakeAt[i] = 0 // due next cycle: awake, even if it slept before
	}
}

// WakeAt files any wake after the current cycle on a sleeper, the next cycle
// included: unlike a component's own SleepUntil, it never wakes it now.
func (r *refEngine) WakeAt(i int, c Cycle) {
	switch {
	case r.wakeAt[i] <= c:
	case c <= r.lim.now:
		r.wakeAt[i] = 0
	default:
		r.wakeAt[i] = c
	}
}
func (r *refEngine) Step() {
	for i, at := range r.wakeAt {
		if at <= r.lim.now {
			r.wakeAt[i] = 0
		}
	}
	for i, c := range r.comps {
		if r.wakeAt[i] == 0 {
			c.Tick(r.lim.now)
			r.ticks++
		}
	}
	r.lim.now++
}
func (r *refEngine) Run(finished func() bool) (Cycle, error) {
	for !finished() {
		next := slices.Min(r.wakeAt) // 0, so no jump, while anything is awake
		if r.lim.watchdog != 0 {
			next = min(next, max(r.lim.lastProgress, r.lim.progressTo)+r.lim.watchdog+1)
		}
		if r.lim.maxCycles != 0 {
			next = min(next, r.lim.maxCycles)
		}
		for ; ; r.lim.now = next {
			if err := r.lim.limitErr(); err != nil {
				return r.lim.now, err
			}
			if next <= r.lim.now {
				break
			}
		}
		r.Step()
	}
	return r.lim.now, nil
}

// scheduleDists are the sleep distances a program draws from: the shortcut
// cases, a typical short sleep, and both sides of the wheel's horizon.
var scheduleDists = [8]Cycle{0, 1, 2, 7, wheelSlots - 1, wheelSlots, wheelSlots + 1, 3 * wheelSlots}

// scheduleLimits are the watchdog windows and the cycle limits a program's
// header picks from; 0 disables.
var scheduleLimits = [2][4]Cycle{{0, 0, 300, 1000}, {0, 0, 500, 3000}}

// runSchedule interprets prog on s and returns the tick log. The header picks
// the component count (up to three awake words), both limits and a number of
// hand-driven Steps before Run takes over. From then on bytes are consumed in
// execution order: every tick reads how many operations it issues first,
// whether it reports progress and how long it then sleeps (so most of the
// machine is asleep most of the time, as in a real run); every operation its
// kind (the four sleeps and wakes, or certain progress through the distance),
// distance and target — any component, so lower- and higher-indexed ones and
// the ticking one itself — and the gap between two steps may issue one
// operation as well. A spent program reads as zeros (ticks that do
// nothing) and finishes the run.
func runSchedule(prog []byte, build func(watchdog, maxCycles Cycle) scheduler) (log []tickRec, s scheduler, err error) {
	pos := 0
	next := func() int {
		if pos >= len(prog) {
			return 0
		}
		pos++
		return int(prog[pos-1])
	}
	n := 1 + next()%130
	s = build(scheduleLimits[0][next()%4], scheduleLimits[1][next()%4])
	op := func() {
		b, i := next(), next()%n
		c := s.Now() + scheduleDists[b/5%8]
		switch b % 5 {
		case 0:
			s.Sleep(i)
		case 1:
			s.SleepUntil(i, c)
		case 2:
			s.Wake(i)
		case 3:
			s.WakeAt(i, c)
		case 4:
			s.ProgressThrough(c)
		}
	}
	for i := 0; i < n; i++ {
		var idx int
		idx = s.Register(TickFunc(func(now Cycle) {
			log = append(log, tickRec{now, idx})
			b := next()
			if b&4 != 0 {
				s.Progress()
			}
			for k := b % 4; k > 0; k-- {
				op()
			}
			s.SleepUntil(idx, now+scheduleDists[b>>3%8])
		}))
	}
	between := func() bool {
		if next()%4 == 0 {
			op()
		}
		return pos >= len(prog)
	}
	for k := next() % 16; k > 0 && !between(); k-- {
		s.Step()
	}
	_, err = s.Run(between)
	return log, s, err
}

// checkSchedule runs prog on the engine and on the reference and requires the
// same schedule: tick log, clock, tick count and error.
func checkSchedule(t *testing.T, prog []byte) {
	t.Helper()
	log, eng, err := runSchedule(prog, func(w, m Cycle) scheduler { return &realEngine{Engine: NewEngine(w, m)} })
	rlog, ref, rerr := runSchedule(prog, func(w, m Cycle) scheduler { return &refEngine{lim: NewEngine(w, m)} })
	for i := range min(len(log), len(rlog)) {
		if log[i] != rlog[i] {
			t.Fatalf("tick %d: engine ran %+v, reference %+v", i, log[i], rlog[i])
		}
	}
	if len(log) != len(rlog) {
		t.Fatalf("engine ran %d ticks, reference %d; the first %d agree", len(log), len(rlog), min(len(log), len(rlog)))
	}
	if eng.Now() != ref.Now() || eng.Ticks() != ref.Ticks() || fmt.Sprint(err) != fmt.Sprint(rerr) {
		t.Fatalf("engine ended at cycle %d after %d ticks with %v, reference at cycle %d after %d ticks with %v",
			eng.Now(), eng.Ticks(), err, ref.Now(), ref.Ticks(), rerr)
	}
}

// schedulePrograms are seeded random programs: every pairing of the limits,
// over component counts from one to three awake words, long enough for the
// larger machines to live through a few turns of the wheel.
func schedulePrograms() [][]byte {
	rng := rand.New(rand.NewSource(22))
	sizes := []int{1, 2, 5, 20, 64, 65, 130}
	var progs [][]byte
	for i := 0; i < 64; i++ {
		n := sizes[i%len(sizes)]
		prog := make([]byte, 1000*(2+n/4))
		rng.Read(prog)
		prog[0], prog[1], prog[2] = byte(n-1), byte(i), byte(i>>2)
		progs = append(progs, prog)
	}
	return progs
}

// TestEngineMatchesReferenceSchedule is the engine's contract test: whatever
// a program of sleeps and wakes does, the engine ticks exactly the components
// the linear-scan reference ticks, in the same cycles and order, and stops
// with the same clock, count and error. The distances file wakes of several
// laps into one slot (0, 256 and 768; 1 and 257), so this is where a slot
// that mixes laps, Step passing over a later lap's wake, nextWake looking
// past it for the earliest one, and canceling a wake laps ahead are tested.
func TestEngineMatchesReferenceSchedule(t *testing.T) {
	for i, prog := range schedulePrograms() {
		t.Run(fmt.Sprint(i), func(t *testing.T) { checkSchedule(t, prog) })
	}
}

// FuzzEngineSchedule is the same property over arbitrary programs.
func FuzzEngineSchedule(f *testing.F) {
	for _, prog := range schedulePrograms() {
		f.Add(prog)
	}
	f.Fuzz(checkSchedule)
}

// TestNextCycleWakeWaitsForItsCycle pins the WakeAt rule on both engines: a
// producer that hands a later-registered sleeper work maturing next cycle
// does not make it tick this cycle, and it ticks next cycle.
func TestNextCycleWakeWaitsForItsCycle(t *testing.T) {
	for _, s := range []scheduler{&realEngine{Engine: NewEngine(0, 0)}, &refEngine{lim: NewEngine(0, 0)}} {
		var log []tickRec
		var producer, sleeper int
		producer = s.Register(TickFunc(func(now Cycle) {
			log = append(log, tickRec{now, producer})
			if now < 5 {
				s.SleepUntil(producer, 5)
				return
			}
			s.WakeAt(sleeper, now+1)
			s.Sleep(producer)
		}))
		sleeper = s.Register(TickFunc(func(now Cycle) {
			log = append(log, tickRec{now, sleeper})
			s.Sleep(sleeper)
		}))
		for s.Now() < 8 {
			s.Step()
		}
		want := []tickRec{{0, 0}, {0, 1}, {5, 0}, {6, 1}}
		if !slices.Equal(log, want) {
			t.Fatalf("%T ticked %v, want %v", s, log, want)
		}
	}
}
