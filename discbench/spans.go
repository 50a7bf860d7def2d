package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call. Spans of one request or round share a Trace id;
// Parent links a call to the span that caused it.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent,omitempty"`
	Trace   string  `json:"trace"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"` // since the log began
	DurUS   float64 `json:"dur_us"`
}

// spanLog keeps spans in memory until the run ends. A nil log records
// nothing, so untraced code paths call it unconditionally.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// openSpan is a span that has begun.
type openSpan struct {
	log   *spanLog
	id    int
	start time.Time
	s     span
}

// begin opens a span; end closes and stores it.
func (l *spanLog) begin(trace, name string, parent *openSpan) *openSpan {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{}) // reserve the id
	l.mu.Unlock()
	o := &openSpan{log: l, id: id, start: time.Now(), s: span{ID: id, Trace: trace, Name: name}}
	if parent != nil {
		o.s.Parent = parent.id
	}
	return o
}

func (o *openSpan) end() {
	if o == nil {
		return
	}
	now := time.Now()
	o.s.StartUS = float64(o.start.Sub(o.log.t0).Nanoseconds()) / 1e3
	o.s.DurUS = float64(now.Sub(o.start).Nanoseconds()) / 1e3
	o.log.mu.Lock()
	o.log.spans[o.id-1] = o.s
	o.log.mu.Unlock()
}

// writeTrace writes the traced run's spans, folded CPU profile, host
// metadata and metrics under .bench_build/trace in the checkout.
func writeTrace(env *runEnv, workload string, res *result, host hostMeta) error {
	dir := filepath.Join(env.root, ".bench_build", "trace")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	env.spans.mu.Lock()
	spans := append([]span(nil), env.spans.spans...)
	env.spans.mu.Unlock()
	doc := map[string]any{
		"workload": workload,
		"seed":     env.seed,
		"host":     host,
		"metrics":  res.detail,
		"profile":  res.profile,
		"spans":    spans,
	}
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	name := filepath.Join(dir, workload+"-seed"+strconv.FormatUint(env.seed, 10)+".json")
	return os.WriteFile(name, b, 0o644)
}
