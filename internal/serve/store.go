package serve

import (
	"container/list"
	"fmt"
	"sync"

	"pushmulticast"
)

// snapStore holds uploaded warm-start donor snapshots, keyed by their FNV-1a
// content hash (the same identity the run memo separates warm runs by). The
// hash is computed once, at upload, and kept beside the bytes: a run resolved
// through get carries it instead of hashing the donor again.
// Uploading the same bytes twice is idempotent. The store is LRU-bounded:
// snapshots are large (full machine state), and a long-lived daemon must not
// accumulate every donor ever uploaded.
type snapStore struct {
	mu  sync.Mutex
	m   map[string]*list.Element
	lru *list.List // of snapEntry; front = most recently used
}

// snapshotCapacity bounds the retained snapshots (LRU past it).
const snapshotCapacity = 16

type snapEntry struct {
	id    string
	data  []byte
	hash  uint64
	cycle uint64
}

func newSnapStore() *snapStore {
	return &snapStore{m: make(map[string]*list.Element), lru: list.New()}
}

// put validates and stores a snapshot, returning its content id and the
// cycle it was taken at. Bytes that could never restore — bad magic, another
// format version, a trailer that does not match — are refused with a
// one-line diagnostic before anything is retained.
func (st *snapStore) put(data []byte) (id string, cycle uint64, err error) {
	cycle, err = pushmulticast.SnapshotCycle(data)
	if err != nil {
		return "", 0, fmt.Errorf("snapshot: %v", oneLine(err))
	}
	hash := pushmulticast.SnapshotHash(data)
	id = fmt.Sprintf("%016x", hash)
	st.mu.Lock()
	defer st.mu.Unlock()
	if e, ok := st.m[id]; ok {
		st.lru.MoveToFront(e)
		return id, cycle, nil
	}
	st.m[id] = st.lru.PushFront(&snapEntry{id: id, data: data, hash: hash, cycle: cycle})
	for st.lru.Len() > snapshotCapacity {
		back := st.lru.Back()
		st.lru.Remove(back)
		delete(st.m, back.Value.(*snapEntry).id)
	}
	return id, cycle, nil
}

// get returns the snapshot bytes for an id and their content hash: the
// lookup RunSpec.Resolve takes.
func (st *snapStore) get(id string) ([]byte, uint64, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	e, ok := st.m[id]
	if !ok {
		return nil, 0, false
	}
	st.lru.MoveToFront(e)
	se := e.Value.(*snapEntry)
	return se.data, se.hash, true
}

func (st *snapStore) len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.lru.Len()
}

// runRecord is one completed run as served by GET /runs/{id}, carried on the
// campaign stream, journaled, and returned to a coordinator: the one wire
// record.
type runRecord = pushmulticast.RunRecord
