package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. Name is "<layer>.<call>"; Parent is
// the id of the span that caused it (0 for a root).
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Name     string `json:"name"`
	StartUS  int64  `json:"start_us"`
	EndUS    int64  `json:"end_us"`
	Workload string `json:"workload"`
}

// layer is the span name's prefix up to the first dot.
func (s span) layer() string {
	l, _, _ := strings.Cut(s.Name, ".")
	return l
}

// tracer keeps spans in memory for the traced run. A disabled tracer makes
// every call a no-op, so the untraced run executes the same code path. It is
// safe for concurrent use: the soak probe records from several workers.
type tracer struct {
	workload string
	epoch    time.Time

	mu    sync.Mutex
	on    bool
	spans []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, epoch: time.Now()}
}

// enable switches recording on or off for the spans started afterwards.
func (t *tracer) enable(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// start opens a span under parent and returns its id, or 0 when tracing is
// off.
func (t *tracer) start(parent int, name string) int {
	now := time.Since(t.epoch).Microseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return 0
	}
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name,
		StartUS: now, EndUS: -1, Workload: t.workload,
	})
	return len(t.spans)
}

// end closes span id; id 0 (tracing was off at start) is ignored.
func (t *tracer) end(id int) {
	if id == 0 {
		return
	}
	now := time.Since(t.epoch).Microseconds()
	t.mu.Lock()
	t.spans[id-1].EndUS = now
	t.mu.Unlock()
}

// timed runs f inside a span and returns its wall duration, which is
// measured whether or not tracing is on.
func (t *tracer) timed(parent int, name string, f func()) time.Duration {
	id := t.start(parent, name)
	begin := time.Now()
	f()
	d := time.Since(begin)
	t.end(id)
	return d
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums each layer's self time in seconds: a span's duration minus
// the union of its children's intervals (children of concurrent workers may
// overlap each other). Spans still open are skipped.
func selfTimes(spans []span) map[string]float64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 && s.EndUS >= 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		if s.EndUS < 0 {
			continue
		}
		covered := coveredUS(children[s.ID], s.StartUS, s.EndUS)
		self[s.layer()] += float64(s.EndUS-s.StartUS-covered) / 1e6
	}
	return self
}

// coveredUS is the length of the union of the spans' intervals, clipped to
// [lo, hi].
func coveredUS(spans []span, lo, hi int64) int64 {
	iv := make([][2]int64, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.StartUS, lo), min(s.EndUS, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	open := false
	for _, x := range iv {
		switch {
		case !open:
			curA, curB, open = x[0], x[1], true
		case x[0] <= curB:
			curB = max(curB, x[1])
		default:
			total += curB - curA
			curA, curB = x[0], x[1]
		}
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSpans writes a header line (the run's environment) and then one JSON
// object per span.
func writeSpans(path string, header map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}
