package serve

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"pushmulticast"
)

// task is one scheduled unit of work — "produce the records for these runs":
// a function executed on a worker slot under a context that fires when the
// submitting request is gone or the scheduler hard-aborts. runs is how many
// runs it stands for (one on a plain daemon, a shard's worth on a
// coordinator): the queue bound and the tenant quota count runs, the worker
// pool counts tasks. What fn produces goes to out (nil: nowhere) only once
// the tenant's quota no longer counts the task's runs, so a client that has
// read its answer can submit again at once.
type task struct {
	tenant   string
	ctx      context.Context
	fn       func(ctx context.Context) produced
	out      chan<- produced
	runs     int
	enqueued time.Time
}

// scheduler dispatches tasks across a bounded worker pool with fair
// per-tenant queueing: tenants hold FIFO queues and worker slots round-robin
// across the tenants that have work, so one tenant's thousand-run campaign
// cannot starve another's single interactive run. Per-request cancellation
// is cooperative — a task whose request context fires before dispatch is
// completed without running; one that fires mid-run stops at the
// simulation's next cancellation barrier.
type scheduler struct {
	mu       sync.Mutex
	cond     *sync.Cond
	queues   map[string][]*task // per-tenant FIFO, tenants with queued work only
	ring     []string           // exactly the keys of queues, in the order they gained work
	cursor   int                // index into ring of the tenant whose turn is next
	queued   int                // runs queued, over all tenants
	maxQueue int
	quota    int            // max in-flight (queued+running) runs per tenant; 0 = unlimited
	inflight map[string]int // per-tenant in-flight runs
	rejected uint64         // submissions refused over quota
	running  map[*task]context.CancelFunc
	closed   bool // no new submits; workers drain and exit
	aborting bool // drain deadline passed: running tasks are being canceled

	wg sync.WaitGroup // worker goroutines
	// waits holds recent queue-wait samples for the /metrics wait quantiles,
	// least recently dispatched tenant first.
	waits []tenantWaits
}

// tenantWaits is one tenant's recent queue waits.
type tenantWaits struct {
	tenant string
	waitRing
}

// waitSamples bounds one tenant's wait history backing the quantiles;
// waitTenants bounds how many tenants have one, so a daemon that has served
// a million one-run tenants remembers the last few, not all of them.
const (
	waitSamples = 256
	waitTenants = 64
)

// waitRing is a bounded history of recent waits (nanoseconds) and the
// quantiles /metrics reports over it. The owner synchronizes.
type waitRing struct{ samples []uint64 }

// add appends one sample, keeping the most recent bound.
func (w *waitRing) add(d time.Duration, bound int) {
	w.samples = append(w.samples, uint64(d))
	if len(w.samples) > bound {
		w.samples = w.samples[len(w.samples)-bound:]
	}
}

// quantiles returns the interpolated p50, p90 and p99 of the history.
func (w waitRing) quantiles() (p50, p90, p99 uint64) {
	sorted := slices.Clone(w.samples)
	slices.Sort(sorted)
	return pushmulticast.Quantile(sorted, 0.50), pushmulticast.Quantile(sorted, 0.90), pushmulticast.Quantile(sorted, 0.99)
}

// newScheduler starts a scheduler with the given worker count, total
// queued-run bound, and per-tenant in-flight quota (0 = unlimited).
func newScheduler(workers, maxQueue, quota int) *scheduler {
	s := &scheduler{
		queues:   make(map[string][]*task),
		running:  make(map[*task]context.CancelFunc),
		inflight: make(map[string]int),
		maxQueue: maxQueue,
		quota:    quota,
	}
	s.cond = sync.NewCond(&s.mu)
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.worker()
	}
	return s
}

// overQuotaError is the typed refusal for a tenant past its in-flight
// quota; the HTTP layer maps it to 429 with the one-line diagnostic.
type overQuotaError struct {
	tenant          string
	quota, inflight int
	want            int
}

func (e overQuotaError) Error() string {
	return fmt.Sprintf("tenant %q over quota: %d in flight + %d submitted exceeds the per-tenant bound of %d", e.tenant, e.inflight, e.want, e.quota)
}

// submitAll queues a batch of tasks atomically: either every task is
// admitted or none is and the one-line reason comes back — a campaign never
// half-queues. It fails fast when the scheduler is shutting down, the queue
// bound is hit, or any task's tenant would exceed its in-flight quota.
// An admitted task always eventually runs or is canceled.
func (s *scheduler) submitAll(tasks []*task) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return fmt.Errorf("scheduler: shutting down")
	}
	want, total := make(map[string]int), 0
	for _, t := range tasks {
		want[t.tenant] += t.runs
		total += t.runs
	}
	if s.queued+total > s.maxQueue {
		return fmt.Errorf("scheduler: queue full (%d runs queued, %d submitted, bound %d)", s.queued, total, s.maxQueue)
	}
	if s.quota > 0 {
		for tenant, n := range want {
			if s.inflight[tenant]+n > s.quota {
				s.rejected++
				return overQuotaError{tenant: tenant, quota: s.quota, inflight: s.inflight[tenant], want: n}
			}
		}
	}
	now := time.Now()
	for _, t := range tasks {
		if _, ok := s.queues[t.tenant]; !ok {
			s.ring = append(s.ring, t.tenant)
		}
		t.enqueued = now
		s.queues[t.tenant] = append(s.queues[t.tenant], t)
		s.queued += t.runs
		s.inflight[t.tenant] += t.runs
	}
	if len(tasks) == 1 {
		s.cond.Signal()
	} else {
		s.cond.Broadcast()
	}
	return nil
}

// next pops the next task in tenant round-robin order, blocking until one is
// available or shutdown drains the queues. A tenant whose queue drains leaves
// the ring with it — an idle scheduler holds no tenant — and rejoins at the
// back when it submits again. A nil return means the worker should exit.
func (s *scheduler) next() *task {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.ring) == 0 {
		if s.closed {
			return nil
		}
		s.cond.Wait()
	}
	tenant := s.ring[s.cursor]
	q := s.queues[tenant]
	t := q[0]
	if len(q) > 1 {
		s.queues[tenant] = q[1:]
		s.cursor++
	} else {
		delete(s.queues, tenant)
		s.ring = slices.Delete(s.ring, s.cursor, s.cursor+1) // the next tenant slides under the cursor
	}
	if s.cursor >= len(s.ring) {
		s.cursor = 0
	}
	s.queued -= t.runs
	s.recordWaitLocked(tenant, time.Since(t.enqueued))
	return t
}

// worker executes tasks until shutdown. A task whose request context already
// fired is skipped (its fn still runs, under the dead context, so the
// submitter's completion accounting is never lost — the simulation layer
// returns ErrCanceled without burning cycles).
func (s *scheduler) worker() {
	defer s.wg.Done()
	for {
		t := s.next()
		if t == nil {
			return
		}
		runCtx, cancel := context.WithCancel(t.ctx)
		s.mu.Lock()
		if s.aborting {
			cancel() // shutdown already past the drain deadline
		}
		s.running[t] = cancel
		s.mu.Unlock()
		p := t.fn(runCtx)
		cancel()
		s.mu.Lock()
		delete(s.running, t)
		if s.inflight[t.tenant] -= t.runs; s.inflight[t.tenant] <= 0 {
			delete(s.inflight, t.tenant)
		}
		s.mu.Unlock()
		if t.out != nil {
			t.out <- p
		}
	}
}

// stop shuts the scheduler down: new submits are refused immediately,
// queued and running tasks get the drain window to finish, and whatever is
// still running when it closes is canceled (stopping at the simulation's
// next cancellation barrier). stop returns once every worker has exited,
// and reports whether the drain was clean (true) or had to hard-cancel.
func (s *scheduler) stop(drain time.Duration) bool {
	s.mu.Lock()
	s.closed = true
	s.cond.Broadcast()
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(drain):
	}
	s.mu.Lock()
	s.aborting = true
	for _, cancel := range s.running {
		cancel()
	}
	s.mu.Unlock()
	<-done
	return false
}

// recordWaitLocked appends one queue-wait sample to the tenant's bounded
// history and moves the tenant to the most-recently-dispatched end, dropping
// the history at the other end once waitTenants have one. Caller holds s.mu.
func (s *scheduler) recordWaitLocked(tenant string, d time.Duration) {
	w := tenantWaits{tenant: tenant}
	if i := slices.IndexFunc(s.waits, func(e tenantWaits) bool { return e.tenant == tenant }); i >= 0 {
		w = s.waits[i]
		s.waits = slices.Delete(s.waits, i, i+1)
	} else if len(s.waits) == waitTenants {
		s.waits = slices.Delete(s.waits, 0, 1)
	}
	w.add(d, waitSamples)
	s.waits = append(s.waits, w)
}

// schedStats is the scheduler's /metrics contribution.
type schedStats struct {
	QueueDepth int `json:"queue_depth"`
	Running    int `json:"running"`
	// Quota is the per-tenant in-flight bound (0 = unlimited);
	// QuotaRejected counts submissions refused over it.
	Quota         int                    `json:"quota,omitempty"`
	QuotaRejected uint64                 `json:"quota_rejected"`
	Tenants       map[string]tenantStats `json:"tenants,omitempty"`
}

// tenantStats reports one tenant's queue depth, in-flight count, and wait
// quantiles (interpolated; nanoseconds) over its recent dispatch history.
type tenantStats struct {
	QueueDepth int    `json:"queue_depth"`
	Inflight   int    `json:"inflight"`
	WaitP50Ns  uint64 `json:"wait_p50_ns"`
	WaitP90Ns  uint64 `json:"wait_p90_ns"`
	WaitP99Ns  uint64 `json:"wait_p99_ns"`
}

func (s *scheduler) stats() schedStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := schedStats{
		QueueDepth:    s.queued,
		Running:       len(s.running),
		Quota:         s.quota,
		QuotaRejected: s.rejected,
		Tenants:       make(map[string]tenantStats),
	}
	for _, w := range s.waits {
		t := tenantStats{Inflight: s.inflight[w.tenant]}
		t.WaitP50Ns, t.WaitP90Ns, t.WaitP99Ns = w.quantiles()
		st.Tenants[w.tenant] = t
	}
	for tenant, q := range s.queues {
		t := st.Tenants[tenant] // zero for a tenant that has never been dispatched
		t.Inflight = s.inflight[tenant]
		for _, queued := range q {
			t.QueueDepth += queued.runs
		}
		st.Tenants[tenant] = t
	}
	return st
}
