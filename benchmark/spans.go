package main

import (
	"encoding/json"
	"os"
	"time"
)

// span is one timed call the benchmark made into the program, recorded
// from outside it. Spans of one child process share Run; Parent is the ID
// of the span that caused this one, 0 for a root.
type span struct {
	Run     string `json:"run"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"` // host nanoseconds since the recorder was made
	EndNS   int64  `json:"end_ns"`
}

// spanRec keeps spans in memory until the run ends. A nil *spanRec still
// times the call but records nothing, so timed runs and the traced run go
// through the same code.
type spanRec struct {
	run   string
	epoch time.Time
	spans []span
}

func newSpanRec(run string) *spanRec {
	return &spanRec{run: run, epoch: time.Now()}
}

// timed runs fn, handing it the new span's ID (0 when nothing is
// recorded) for its own children, and returns how long it took.
func (r *spanRec) timed(name string, parent int, fn func(id int)) time.Duration {
	if r == nil {
		t0 := time.Now()
		fn(0)
		return time.Since(t0)
	}
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{Run: r.run, ID: id, Parent: parent, Name: name})
	t0 := time.Now()
	fn(id)
	d := time.Since(t0)
	s := &r.spans[id-1]
	s.StartNS = int64(t0.Sub(r.epoch))
	s.EndNS = s.StartNS + int64(d)
	return d
}

func (r *spanRec) write(path string) error {
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
