// Package shard dispatches one shard of a campaign — a group of run
// descriptions — to simd worker replicas and makes the dispatch
// fault-tolerant. Each shard's identity is a deterministic function of the
// warm-start snapshot's content hash and the member run identities; it goes to
// a configured set of replicas over HTTP with per-attempt timeouts, capped
// retries with exponential backoff and jitter, and health-probe-driven
// circuit breaking. A shard whose worker dies or goes silent is reassigned to
// another healthy replica, and handed back to the caller to compute when none
// is healthy. The dispatcher holds no records: which runs need dispatching,
// what is done with the records, and the crash-resume store are the caller's
// (internal/serve).
package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"sort"

	"pushmulticast"
)

// RunRecord is one completed (or failed) run as it travels between worker
// and coordinator, into the result store, and over the campaign NDJSON
// stream: the simulator's one wire record.
type RunRecord = pushmulticast.RunRecord

// Unit is one run of a campaign as the coordinator dispatches it: the run's
// deterministic identity (the merge key), its display names, and
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
