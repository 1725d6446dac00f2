package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around the
// call (nothing inside the program under test is instrumented). Spans of one
// rep share Rep; Parent is the span that caused this one, 0 for a rep.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	StartNs  int64  `json:"start_ns"`
	EndNs    int64  `json:"end_ns"`
	// SelfNs is the span's duration minus the part its children cover;
	// filled when the trace is written.
	SelfNs int64 `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder records
// nothing, so the untraced run pays one nil check per call site. Only the
// benchmark's driving goroutine records, so there is no lock.
type recorder struct {
	t0       time.Time
	workload string
	rep      int
	spans    []span
}

func newRecorder(workload string) *recorder {
	return &recorder{t0: time.Now(), workload: workload}
}

// begin opens a span under parent and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent int) int {
	if r == nil {
		return 0
	}
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name,
		Workload: r.workload, Rep: r.rep, StartNs: int64(time.Since(r.t0)),
	})
	return len(r.spans)
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	r.spans[id-1].EndNs = int64(time.Since(r.t0))
}

// fillSelf computes every span's self time. Children of one parent run one
// after another on the recording goroutine, so their durations add.
func (r *recorder) fillSelf() {
	for i := range r.spans {
		r.spans[i].SelfNs = r.spans[i].EndNs - r.spans[i].StartNs
	}
	for _, s := range r.spans {
		if s.Parent != 0 {
			r.spans[s.Parent-1].SelfNs -= s.EndNs - s.StartNs
		}
	}
}

// write stores the spans as NDJSON, one span a line, in start order.
func (r *recorder) write(path string) error {
	r.fillSelf()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	spans := append([]span(nil), r.spans...)
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
