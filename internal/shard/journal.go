package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sync"
)

// Journal is a simd daemon's result store, the one holder of completed wire
// records: an append-only NDJSON file of completed run records and uploaded
// snapshot content hashes, and the index over it. It states the serving rule
// for both roles: a record loaded at open answers its run without computing
// (Recovered); a record committed during this process's life answers
// GET /runs/{id} (Lookup), detects determinism conflicts and serves the next
// restart, and never short-circuits a run — so the live memo's hit accounting
// stays truthful and ClearRunMemo still forces a re-run. The first committed
// record for a run identity wins; a repeat commit whose outcome differs is a
// determinism violation and is reported loudly instead of silently replacing
// either record.
//
// The dispatcher in this package never touches it. It is declared here rather
// than in internal/serve, its one user, only because the frozen benchmark
// calls shard.OpenJournal (benchmark/micro.go).
//
// A Journal with an empty path is memory-only: it still deduplicates and
// serves lookups, but nothing survives the process. Memory-only journals are
// capped (memJournalCap) so a long-lived daemon cannot leak one record per
// distinct run ever seen; file-backed journals are unbounded by design —
// bounded retention would silently forfeit resumability.
type Journal struct {
	mu      sync.Mutex
	f       *os.File // nil = memory-only
	path    string
	seen    map[string]journaled
	snaps   map[string]uint64 // snapshot content id -> cycle
	skipped int               // unparsable lines ignored at load (torn tail)
}

// journaled is one held record; atOpen marks the ones OpenJournal loaded.
type journaled struct {
	rec    RunRecord
	atOpen bool
}

// memJournalCap bounds a memory-only journal's retained records. Dedup
// correctness does not depend on retention (determinism makes a recomputed
// run byte-identical), so dropping commits past the cap only costs cache
// hits, never correctness.
const memJournalCap = 4096

// journalLine is one NDJSON line of the journal file.
type journalLine struct {
	Kind     string     `json:"kind"` // "run" | "snapshot"
	Record   *RunRecord `json:"record,omitempty"`
	Snapshot string     `json:"snapshot,omitempty"`
	Cycle    uint64     `json:"cycle,omitempty"`
}

// OpenJournal opens (creating if absent) a file-backed journal and loads
// every committed record; an empty path is a memory-only journal. Unparsable
// lines — a torn final line from a crash mid-append is the expected case — are
// counted and skipped, never fatal, at any length: losing one record costs one
// recompute, losing the journal (or everything behind one bad line) costs the
// whole campaign.
func OpenJournal(path string) (*Journal, error) {
	j := &Journal{path: path, seen: make(map[string]journaled), snaps: make(map[string]uint64)}
	if path == "" {
		return j, nil
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("journal %s: %v", path, err)
	}
	for rest := data; len(rest) > 0; {
		var line []byte
		line, rest, _ = bytes.Cut(rest, []byte{'\n'})
		j.load(line)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("journal %s: %v", path, err)
	}
	// End a torn tail here, or the next commit is appended to it and lost with
	// it. No sync of its own: the commit's sync covers it.
	if len(data) > 0 && data[len(data)-1] != '\n' {
		if _, err := f.Write([]byte{'\n'}); err != nil {
			f.Close()
			return nil, fmt.Errorf("journal %s: %v", path, err)
		}
	}
	j.f = f
	return j, nil
}

// load admits one line of the journal file, under Commit's own rule, or
// counts it as skipped.
func (j *Journal) load(line []byte) {
	if len(line) == 0 {
		return
	}
	var l journalLine
	if err := json.Unmarshal(line, &l); err != nil {
		j.skipped++
		return
	}
	switch {
	case l.Kind == "run" && l.Record != nil && l.Record.Error == "" && l.Record.ID != "":
		if _, ok := j.seen[l.Record.ID]; !ok {
			j.seen[l.Record.ID] = journaled{rec: *l.Record, atOpen: true}
		}
	case l.Kind == "snapshot" && l.Snapshot != "":
		j.snaps[l.Snapshot] = l.Cycle
	default:
		j.skipped++
	}
}

// Lookup returns the held record for a run identity, whenever it was
// committed.
func (j *Journal) Lookup(id string) (RunRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.seen[id]
	return e.rec, ok
}

// Recovered returns the record a restart recovered for a run identity, marked
// cached: the only records that answer a run without computing it.
func (j *Journal) Recovered(id string) (RunRecord, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	e, ok := j.seen[id]
	e.rec.Cached = true
	return e.rec, ok && e.atOpen
}

// Commit records one completed run. Failed or canceled records are never
// journaled (their retry may succeed later). The first commit for an
// identity wins and is persisted; a repeat returns dup=true, and a repeat
// whose outcome differs from the first also returns an error — determinism
// says two computations of one run identity must agree, so a disagreement
// means a broken replica.
func (j *Journal) Commit(rec RunRecord) (dup bool, err error) {
	if rec.ID == "" || rec.Error != "" {
		return false, nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if e, ok := j.seen[rec.ID]; ok {
		if prev := e.rec; !sameOutcome(prev, rec) {
			return true, fmt.Errorf(
				"journal: run %s recomputed with a different outcome (cycles %d vs %d, trace %s vs %s): determinism violation — a replica is broken",
				rec.ID, prev.Cycles, rec.Cycles, prev.TraceHash, rec.TraceHash)
		}
		return true, nil
	}
	if j.f == nil && len(j.seen) >= memJournalCap {
		return false, nil // memory-only: cap retention, never correctness
	}
	// Normalize the cached flag before retention: whether the original
	// computation was itself memo-served is meaningless to a later recovery.
	rec.Cached = false
	j.seen[rec.ID] = journaled{rec: rec}
	// A copy, declared here, is what the line points at: pointing at rec
	// would move every call's record to the heap, the repeats' included.
	line := rec
	return false, j.appendLocked(journalLine{Kind: "run", Record: &line})
}

// CommitSnapshot records an uploaded warm-start donor's content identity and
// barrier cycle, so a restarted daemon can report which donors its resumed
// campaigns expect to be re-uploaded.
func (j *Journal) CommitSnapshot(id string, cycle uint64) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if _, ok := j.snaps[id]; ok {
		return nil
	}
	j.snaps[id] = cycle
	return j.appendLocked(journalLine{Kind: "snapshot", Snapshot: id, Cycle: cycle})
}

// appendLocked writes one journal line and syncs it. Caller holds j.mu.
func (j *Journal) appendLocked(l journalLine) error {
	if j.f == nil {
		return nil
	}
	data, err := json.Marshal(l)
	if err != nil {
		return fmt.Errorf("journal %s: %v", j.path, err)
	}
	if _, err := j.f.Write(append(data, '\n')); err != nil {
		return fmt.Errorf("journal %s: %v", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("journal %s: %v", j.path, err)
	}
	return nil
}

// JournalStats is the journal's /metrics contribution.
type JournalStats struct {
	Path      string `json:"path,omitempty"` // empty = memory-only
	Runs      int    `json:"runs"`           // held completed runs
	Snapshots int    `json:"snapshots"`      // journaled warm-start donor identities
	// SkippedLines counts unparsable journal lines ignored at load (a torn
	// final line from a crash mid-append is the expected case).
	SkippedLines int `json:"skipped_lines,omitempty"`
}

// Stats returns what the journal holds.
func (j *Journal) Stats() JournalStats {
	j.mu.Lock()
	defer j.mu.Unlock()
	return JournalStats{Path: j.path, Runs: len(j.seen), Snapshots: len(j.snaps), SkippedLines: j.skipped}
}

// Close releases the journal's file handle (memory-only journals are a
// no-op). Safe to call once.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	f := j.f
	j.f = nil
	return f.Close()
}

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
