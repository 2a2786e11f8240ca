package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The tracer keeps spans in memory at the boundaries of the layers the
// bench wraps (see probes.go) and writes them out when the run ends.
// A span's self time is its duration minus the time its children
// covered. Children report to their parent as they end, so self time is
// known when a span closes and no post-pass is needed.
//
// Parent links:
//   - s4fs call → the s4rpc client calls it makes (same goroutine);
//   - s4rpc client call → the server-side drive span with the same
//     ClientID (each client has at most one call in flight);
//   - drive span (core op, cleaner pass, recovery Open) → the device
//     I/Os issued while it runs. When several drive spans are in flight
//     at once, an I/O is charged to each in equal shares and its parent
//     field names the oldest.

// maxClients bounds the ClientIDs whose in-flight call the tracer
// tracks; the workloads use IDs 1 and 2.
const maxClients = 4

// maxSpans caps the spans kept for the trace file. Aggregates keep
// counting past it; only the raw span records are dropped.
const maxSpans = 250_000

// span is one closed span as written to the trace file.
type span struct {
	id, parent int64
	name       string
	start, end int64 // ns since the tracer's epoch
	self       int64 // ns
}

// active is a span in progress.
type active struct {
	id, parent int64
	name       string
	start      time.Time
	child      atomic.Int64 // ns covered by children so far
}

// agg sums the closed spans of one name.
type agg struct {
	n            int64
	durNs, selfN int64
}

type tracer struct {
	on     atomic.Bool
	quiet  atomic.Bool // aggregate device spans without keeping them (crash restarts issue ~10^5 each)
	epoch  time.Time
	nextID atomic.Int64

	mu      sync.Mutex
	spans   []span
	dropped int64
	byName  map[string]*agg

	driveMu  sync.Mutex
	inflight []*active // drive-entering spans now running

	clientCall [maxClients + 1]atomic.Pointer[active]
}

func newTracer() *tracer {
	return &tracer{epoch: time.Now(), byName: make(map[string]*agg)}
}

// begin opens a span under parent (nil for a root). It returns nil when
// tracing is off; end and the other methods accept nil.
func (t *tracer) begin(name string, parent *active) *active {
	if !t.on.Load() {
		return nil
	}
	a := &active{id: t.nextID.Add(1), name: name, start: time.Now()}
	if parent != nil {
		a.parent = parent.id
	}
	return a
}

// end closes a and charges its duration to parent.
func (t *tracer) end(a, parent *active) {
	if a == nil {
		return
	}
	dur := time.Since(a.start).Nanoseconds()
	if parent != nil {
		parent.child.Add(dur)
	}
	t.record(a, dur, true)
}

func (t *tracer) record(a *active, dur int64, keep bool) {
	start := a.start.Sub(t.epoch).Nanoseconds()
	s := span{id: a.id, parent: a.parent, name: a.name, start: start, end: start + dur, self: dur - a.child.Load()}
	t.mu.Lock()
	g := t.byName[s.name]
	if g == nil {
		g = &agg{}
		t.byName[s.name] = g
	}
	g.n++
	g.durNs += dur
	g.selfN += s.self
	if keep && len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else if keep {
		t.dropped++
	}
	t.mu.Unlock()
}

// beginDrive opens a span that enters the drive: device I/O issued
// while it runs is charged to it.
func (t *tracer) beginDrive(name string, parent *active) *active {
	a := t.begin(name, parent)
	if a != nil {
		t.driveMu.Lock()
		t.inflight = append(t.inflight, a)
		t.driveMu.Unlock()
	}
	return a
}

func (t *tracer) endDrive(a, parent *active) {
	if a == nil {
		return
	}
	t.driveMu.Lock()
	for i, x := range t.inflight {
		if x == a {
			t.inflight = append(t.inflight[:i], t.inflight[i+1:]...)
			break
		}
	}
	t.driveMu.Unlock()
	t.end(a, parent)
}

// endDevice closes a device I/O span and splits its time among the
// drive spans in flight.
func (t *tracer) endDevice(a *active) {
	if a == nil {
		return
	}
	dur := time.Since(a.start).Nanoseconds()
	t.driveMu.Lock()
	if k := int64(len(t.inflight)); k > 0 {
		a.parent = t.inflight[0].id
		for _, p := range t.inflight {
			p.child.Add(dur / k)
		}
	}
	t.driveMu.Unlock()
	t.record(a, dur, !t.quiet.Load())
}

// setCall publishes the client call in flight for ClientID c, so the
// server-side span of the same request can name it as parent.
func (t *tracer) setCall(c uint32, a *active) {
	if c <= maxClients {
		t.clientCall[c].Store(a)
	}
}

func (t *tracer) call(c uint32) *active {
	if c > maxClients {
		return nil
	}
	return t.clientCall[c].Load()
}

// layerTotals sums self time, duration and span count per layer (the
// span-name prefix before the first dot).
func (t *tracer) layerTotals() map[string]agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[string]agg)
	for name, g := range t.byName {
		l := name
		if i := strings.IndexByte(name, '.'); i >= 0 {
			l = name[:i]
		}
		s := out[l]
		s.n += g.n
		s.durNs += g.durNs
		s.selfN += g.selfN
		out[l] = s
	}
	return out
}

// named returns the aggregate of spans called name.
func (t *tracer) named(name string) agg {
	t.mu.Lock()
	defer t.mu.Unlock()
	if g := t.byName[name]; g != nil {
		return *g
	}
	return agg{}
}

// write stores the spans as CSV (id,parent,name,start_ns,end_ns,self_ns)
// after a header line carrying the run's identity.
func (t *tracer) write(path, header string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].start < t.spans[j].start })
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintf(w, "# %s spans=%d dropped=%d\n", header, len(t.spans), t.dropped)
	fmt.Fprintln(w, "id,parent,name,start_ns,end_ns,self_ns")
	for _, s := range t.spans {
		fmt.Fprintf(w, "%d,%d,%s,%d,%d,%d\n", s.id, s.parent, s.name, s.start, s.end, s.self)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
