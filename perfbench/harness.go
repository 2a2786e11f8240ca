package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"s4/internal/core"
	"s4/internal/disk"
	"s4/internal/s4rpc"
	"s4/internal/types"
	"s4/internal/vclock"
)

// Latency classes a workload op can fall in.
type class int

const (
	clsWrite class = iota // durable mutation
	clsRead               // live read
	clsHist               // read as of a past time
	numClasses
)

// Phases of the measured window. A --trace 0 run stays untraced; a
// --trace 1 run alternates the two so the untraced slices are the
// in-run control for the tracing overhead.
const (
	phUntraced = 0
	phTraced   = 1
)

// meter collects one run's measurements.
type meter struct {
	tr     *tracer
	faults *faults

	running   atomic.Bool // the clients are looping: warm-up, window and the stop
	measuring atomic.Bool // the measured window
	phase     atomic.Int32

	attempted, failed atomic.Int64
	ops               [2]atomic.Int64
	calls             atomic.Int64 // s4rpc client calls
	wireBytes         atomic.Int64
	userBytes         atomic.Int64 // acknowledged user bytes written
	overwritten       atomic.Int64 // user bytes superseded (only where the window never expires)
	writesAcked       atomic.Int64 // durable mutations acknowledged
	histReads         atomic.Int64

	// Cleaner passes started and finished, so a write can tell whether
	// it overlapped one.
	passStarted, passEnded atomic.Int64

	mismatches atomic.Int64
	logged     atomic.Int64

	latMu sync.Mutex
	lat   [2][numClasses][]int64
	wDur  [2][2][]int64 // [phase][during pass?] write latencies
}

func newMeter() *meter {
	m := &meter{tr: newTracer(), faults: &faults{}}
	m.faults.window, m.faults.running = &m.measuring, &m.running
	return m
}

// mismatch records an output that disagrees with the bench's record.
func (m *meter) mismatch(format string, args ...any) {
	m.mismatches.Add(1)
	if m.logged.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "perfbench: MISMATCH "+format+"\n", args...)
	}
}

func (m *meter) check(got, want []byte, format string, args ...any) {
	if !bytes.Equal(got, want) {
		m.mismatch(format+fmt.Sprintf(": got %d bytes, want %d, first difference at %d", len(got), len(want), firstDiff(got, want)), args...)
	}
}

func firstDiff(a, b []byte) int {
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return min(len(a), len(b))
}

// client is one closed-loop caller: it issues its next op only after
// the previous one returns. Latency samples stay local until merge.
type client struct {
	m   *meter
	rpc *rpcProbe
	rng *rand.Rand
	lat [2][numClasses][]int64
	wd  [2][2][]int64
}

// stamp marks the start of an op.
type stamp struct {
	t                 time.Time
	started, finished int64
}

func (c *client) mark() stamp {
	return stamp{time.Now(), c.m.passStarted.Load(), c.m.passEnded.Load()}
}

// sample records a successful op's latency in the current phase.
func (c *client) sample(cls class, s stamp, err error) {
	if err != nil || !c.m.measuring.Load() {
		return
	}
	ns := time.Since(s.t).Nanoseconds()
	ph := c.m.phase.Load()
	c.lat[ph][cls] = append(c.lat[ph][cls], ns)
	if cls == clsWrite {
		// The write overlapped a pass if one was running when it
		// started or one started before it ended.
		during := 0
		if s.started != s.finished || c.m.passStarted.Load() != s.started {
			during = 1
		}
		c.wd[ph][during] = append(c.wd[ph][during], ns)
	}
}

// op counts one workload op, whichever phase of the run it ended in.
// A failed op is counted against the attempts, never dropped. Only the
// window's successful ops count toward throughput.
func (c *client) op(err error) {
	c.m.attempted.Add(1)
	if err != nil {
		c.m.failed.Add(1)
		if c.m.logged.Add(1) <= 5 {
			fmt.Fprintf(os.Stderr, "perfbench: op failed: %v\n", err)
		}
		return
	}
	if c.m.measuring.Load() {
		c.m.ops[c.m.phase.Load()].Add(1)
	}
}

func (c *client) merge() {
	c.m.latMu.Lock()
	defer c.m.latMu.Unlock()
	for ph := range c.lat {
		for cls := range c.lat[ph] {
			c.m.lat[ph][cls] = append(c.m.lat[ph][cls], c.lat[ph][cls]...)
		}
		for d := range c.wd[ph] {
			c.m.wDur[ph][d] = append(c.m.wDur[ph][d], c.wd[ph][d]...)
		}
	}
}

// windowTimes is the clock side of a measured window.
type windowTimes struct {
	spent  [2]time.Duration // wall time per phase
	rates  [2][]float64     // ops/s of each sub-slice, per phase
	allocs [2]uint64        // heap allocations per phase (traced runs)
}

// subSlices is how many pieces the window is cut into; throughput is
// the median of their rates, so a short stall elsewhere on the machine
// moves it little.
const subSlices = 20

// window runs the measured phase for the given length while the
// workload's clients loop. Tracing alternates in slices
// (U T T U U T T U U T) so drift in the drive's state falls evenly on
// both phases.
func (m *meter) window(seconds float64, traced bool) windowTimes {
	var wt windowTimes
	pattern := []int32{phUntraced}
	if traced {
		pattern = []int32{0, 1, 1, 0, 0, 1, 1, 0, 0, 1}
	}
	sub := time.Duration(seconds * float64(time.Second) / subSlices)
	per := subSlices / len(pattern)
	var ms runtime.MemStats
	m.measuring.Store(true)
	for _, ph := range pattern {
		m.phase.Store(ph)
		m.tr.on.Store(ph == phTraced)
		if traced {
			runtime.ReadMemStats(&ms)
			wt.allocs[ph] -= ms.Mallocs
		}
		for i := 0; i < per; i++ {
			t0, n0 := time.Now(), m.ops[ph].Load()
			time.Sleep(sub)
			d := time.Since(t0)
			wt.spent[ph] += d
			wt.rates[ph] = append(wt.rates[ph], float64(m.ops[ph].Load()-n0)/d.Seconds())
		}
		if traced {
			runtime.ReadMemStats(&ms)
			wt.allocs[ph] += ms.Mallocs
		}
	}
	m.measuring.Store(false)
	m.tr.on.Store(false)
	return wt
}

// ---- the rig: one drive behind one s4rpc server on loopback ----

const (
	step       = time.Millisecond // bench-clock advance before every mutation
	clientUser = types.UserID(100)
	bigWindow  = 10 * 365 * 24 * time.Hour // never expires within a run
	capacity   = 1 << 30
)

var adminKey = []byte("perfbench-admin-key")

func clientKey(id uint32) []byte { return []byte(fmt.Sprintf("perfbench-client-%d", id)) }

// rig is a drive on an in-memory device, served by a bench-owned
// s4rpc.Server on 127.0.0.1:0.
type rig struct {
	m        *meter
	clk      *vclock.Virtual
	opts     core.Options
	baseHeap int64      // live heap just before Format
	mem      *disk.Disk // the device's backing memory
	cow      *cowDev    // non-nil when the drive runs on a restarted crash image
	dev      *devProbe
	drv      *core.Drive

	srv     *s4rpc.Server
	served  chan error
	addr    string
	clients []*client
}

// newRig formats a fresh drive. The bench's fixed structures must
// exist by then: the heap measured here is heap_mb's baseline.
func newRig(m *meter, window time.Duration) (*rig, error) {
	r := &rig{m: m, clk: vclock.NewVirtual(), baseHeap: liveHeap()}
	r.opts = core.Options{Clock: r.clk, Window: window}
	r.mem = disk.New(disk.SmallDisk(capacity), nil)
	r.dev = &devProbe{dev: r.mem, tr: m.tr}
	drv, err := core.Format(r.dev, r.opts)
	if err != nil {
		return nil, fmt.Errorf("format: %w", err)
	}
	r.drv = drv
	return r, nil
}

// serve starts the server and dials n client sessions (ClientIDs 1..n).
func (r *rig) serve(n int, seed int64) error {
	keys := s4rpc.NewKeyring(adminKey)
	for id := uint32(1); id <= uint32(n); id++ {
		keys.AddClient(types.ClientID(id), clientKey(id))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	r.addr = ln.Addr().String()
	r.srv = s4rpc.NewServer(&driveProbe{Drive: r.drv, tr: r.m.tr, faults: r.m.faults}, keys)
	r.served = make(chan error, 1)
	go func() { r.served <- r.srv.Serve(lnProbe{ln, &r.m.wireBytes}) }()
	for id := uint32(1); id <= uint32(n); id++ {
		c, err := s4rpc.DialConfig(s4rpc.Config{
			Addr: r.addr, Client: types.ClientID(id), User: clientUser, Key: clientKey(id),
			// Fail a wedged call within the run's time budget rather
			// than retrying for minutes.
			CallTimeout: 10 * time.Second, MaxAttempts: 3,
		})
		if err != nil {
			r.close()
			return fmt.Errorf("dial client %d: %w", id, err)
		}
		r.clients = append(r.clients, &client{
			m:   r.m,
			rpc: &rpcProbe{c: c, id: id, m: r.m, clk: r.clk},
			rng: rand.New(rand.NewSource(seed*1000 + int64(id))),
		})
	}
	return nil
}

// close ends every session and the server, and waits for Serve to
// return. The drive is left as it is: a crash image.
func (r *rig) close() {
	for _, c := range r.clients {
		_ = c.rpc.c.Close()
	}
	if r.srv != nil {
		_ = r.srv.Close()
		<-r.served
		r.srv = nil
	}
}

// retries sums the transport retries of every session.
func (r *rig) retries() int64 {
	var n int64
	for _, c := range r.clients {
		n += int64(c.rpc.c.Stats().Retries)
	}
	return n
}

// deviceBytes is the memory the device itself holds, which heap_mb
// leaves out.
func (r *rig) deviceBytes() int64 {
	n := r.mem.AllocatedBytes()
	if r.cow != nil {
		n += r.cow.allocated()
	}
	return n
}

// image is a drive opened on a copy-on-write view of a crash image.
type image struct {
	drv *core.Drive
	dev *devProbe
	cow *cowDev
}

// reopen takes the rig's device as it stands for a crash image — the
// drive is not closed — and opens it n times, each on a fresh
// copy-on-write view, so every Open replays the same bytes and the
// rig's own drive is left untouched. It returns the last Open. In a
// traced run the Opens are traced too.
func (r *rig) reopen(n int, traced bool) (recovery, image, error) {
	tr := r.m.tr
	tr.on.Store(traced)
	tr.quiet.Store(true)
	before := tr.layerTotals()
	defer func() {
		tr.on.Store(false)
		tr.quiet.Store(false)
	}()
	var rec recovery
	var im image
	base := r.dev.dev
	for i := 0; i < n; i++ {
		cow := newCow(base)
		dev := &devProbe{dev: cow, tr: tr}
		a := tr.beginDrive("recovery.Open", nil)
		t0 := time.Now()
		drv, err := core.Open(dev, r.opts)
		d := time.Since(t0)
		tr.endDrive(a, nil)
		if err != nil {
			return rec, im, fmt.Errorf("crash restart: %w", err)
		}
		st := drv.GetStats()
		rec.opens = append(rec.opens, d.Seconds())
		rec.replay = st.RecoveryReplayEntries
		rec.indexLoads += st.IndexLoads
		rec.devReads += dev.counts().reads
		im = image{drv, dev, cow}
	}
	rec.n = n
	rec.selfNs = tr.layerTotals()["recovery"].selfN - before["recovery"].selfN
	return rec, im, nil
}

// use makes a reopened image the rig's drive.
func (r *rig) use(im image) { r.drv, r.dev, r.cow = im.drv, im.dev, im.cow }

// recovery summarizes the timed crash restarts of a run.
type recovery struct {
	n          int
	opens      []float64 // seconds per Open
	replay     int64
	indexLoads int64
	devReads   int64
	selfNs     int64 // recovery's own span time, traced runs only
}

func (rec recovery) add(v map[string]float64) {
	med := median(rec.opens)
	v["recovery_s"] = med
	v["recovery.open_ms"] = med * 1e3
	v["recovery.replay_entries"] = float64(rec.replay)
	v["recovery.index_loads"] = ratio(float64(rec.indexLoads), float64(rec.n))
	v["recovery.device_reads"] = ratio(float64(rec.devReads), float64(rec.n))
	v["recovery.self_ms"] = ratio(float64(rec.selfNs)/1e6, float64(rec.n))
}

// liveHeap is the live heap after a forced GC, in bytes.
func liveHeap() int64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return int64(ms.HeapAlloc)
}

// heapMB is the memory the drive and the server hold: the live heap
// less the device's memory, the bench's records and the baseline taken
// before Format.
func heapMB(r *rig, records int64) float64 {
	return float64(liveHeap()-r.deviceBytes()-records-r.baseHeap) / (1 << 20)
}

// ---- statistics ----

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// pct returns the p-th percentile (nearest rank) of ns samples, in µs.
func pct(ns []int64, p float64) float64 {
	if len(ns) == 0 {
		return 0
	}
	s := append([]int64(nil), ns...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(p/100*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i]) / 1e3
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
