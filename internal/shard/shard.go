// Package shard distributes a campaign across simd worker replicas and
// makes the distribution fault-tolerant. A campaign's expanded runs are
// grouped into shards — each shard's identity is a deterministic function of
// the warm-start snapshot's content hash and the member run identities — and
// dispatched to a configured set of worker replicas over HTTP with per-shard
// timeouts, capped retries with exponential backoff and jitter, and
// health-probe-driven circuit breaking. A shard whose worker dies or goes
// silent is reassigned to another healthy replica, or degraded to local
// execution when none is healthy; merged results are deduplicated by run
// identity, so a retried shard can never double-count a run. Completed runs
// are journaled, making a killed coordinator resumable: on restart it
// recomputes only the runs the journal does not already hold.
package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"pushmulticast"
)

// RunRecord is one completed (or failed) run as it travels between worker
// and coordinator, into the journal, and over the campaign NDJSON stream: the
// simulator's one wire record.
type RunRecord = pushmulticast.RunRecord

// sameOutcome reports whether two records for one run identity agree on the
// simulation outcome. Determinism guarantees they must; a disagreement means
// a replica is broken (or the two ran different code) and is surfaced loudly
// rather than silently keeping either.
func sameOutcome(a, b RunRecord) bool {
	return a.Cycles == b.Cycles &&
		a.Instructions == b.Instructions &&
		a.TraceHash == b.TraceHash &&
		a.TraceEvents == b.TraceEvents &&
		a.NoCFlits == b.NoCFlits
}

// Unit is one run of a campaign as the coordinator dispatches it: the run's
// deterministic identity (the dedup and journal key), its display names, and
// the run's description (a pushmulticast.RunSpec's JSON) that a worker
// replica resolves to the same identity and executes.
type Unit struct {
	RunID    string
	Scheme   string
	Workload string
	Spec     json.RawMessage
}

// Request is the POST /shards body a coordinator sends a worker replica: a
// shard identity plus the member runs, each one run description.
type Request struct {
	ShardID string            `json:"shard_id"`
	Tenant  string            `json:"tenant,omitempty"`
	Runs    []json.RawMessage `json:"runs"`
}

// Response is the worker's reply to a shard dispatch: every member run's
// record, in completion order. The coordinator treats the shard as complete
// only when every run is present and error-free; anything else is a failed
// attempt and retries under the backoff policy.
type Response struct {
	ShardID string      `json:"shard_id"`
	Results []RunRecord `json:"results"`
}

// ID returns a shard's deterministic cache identity: the FNV-1a of the
// warm-start snapshot's content hash (0 for cold campaigns) and the sorted
// member run identities. Equal inputs — same snapshot, same variant list —
// name the same shard on every coordinator that ever dispatches it.
func ID(snapHash uint64, runIDs []string) string {
	sorted := append([]string(nil), runIDs...)
	sort.Strings(sorted)
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(snapHash >> (8 * i))
	}
	h.Write(buf[:])
	for _, id := range sorted {
		h.Write([]byte(id))
		h.Write([]byte{0})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}
