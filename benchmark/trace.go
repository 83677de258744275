package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: what ran, when, for which op,
// on which track (simulated node or client), and the span it ran
// inside (-1 at the top).
type span struct {
	name       string
	start, end int64 // ns since tracer.t0
	parent     int32
	op         int32
	tid        int32
}

// maxSpans bounds the in-memory span buffer (and so the trace file):
// once full, further spans are counted and dropped, never grown.
const maxSpans = 200_000

// tracer records spans in memory and writes them out once, at the end.
// A nil *tracer is the untraced pass: begin and end are no-ops, so the
// measured code is the same with tracing on and off.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, maxSpans)}
}

// begin opens a span and returns its id (-1 when untraced or full).
func (t *tracer) begin(name string, op, tid, parent int) int {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) == cap(t.spans) {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: now, parent: int32(parent), op: int32(op), tid: int32(tid)})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// spanStat is the per-name summary printed after a traced pass.
type spanStat struct {
	Name     string
	Count    int
	MedianUS float64
	// SelfMS is total duration minus the part child spans on the same
	// track cover (children on other tracks run beside their parent,
	// not inside it).
	SelfMS float64
}

// summarize groups closed spans by name.
func (t *tracer) summarize() []spanStat {
	if t == nil {
		return nil
	}
	childCover := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 && s.end > 0 && s.tid == t.spans[s.parent].tid {
			childCover[s.parent] += s.end - s.start
		}
	}
	durs := map[string][]float64{}
	self := map[string]int64{}
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		durs[s.name] = append(durs[s.name], float64(s.end-s.start)/1e3)
		self[s.name] += s.end - s.start - childCover[i]
	}
	var out []spanStat
	for name, d := range durs {
		out = append(out, spanStat{Name: name, Count: len(d), MedianUS: median(d), SelfMS: float64(self[name]) / 1e6})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfMS > out[j].SelfMS })
	return out
}

// traceEvent is one Chrome trace-event "complete" record.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int32          `json:"tid"`
	Args map[string]int `json:"args"`
}

// write flushes the spans as Chrome trace-event JSON (chrome://tracing,
// Perfetto).  pid groups one workload's spans.
func (t *tracer) write(path string, pid int, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintf(w, `{"displayTimeUnit":"ns","otherData":{"workload":%q,"dropped":%d},"traceEvents":[`, workload, t.dropped)
	enc := json.NewEncoder(w)
	first := true
	for i, s := range t.spans {
		if s.end == 0 {
			continue
		}
		if !first {
			w.WriteByte(',')
		}
		first = false
		ev := traceEvent{Name: s.name, Ph: "X", TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			PID: pid, TID: s.tid, Args: map[string]int{"id": i, "op": int(s.op), "parent": int(s.parent)}}
		if err := enc.Encode(ev); err != nil {
			f.Close()
			return err
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
