package main

import (
	"fmt"
	"sort"
	"sync"
	"time"
	"unsafe"

	"s4/internal/core"
	"s4/internal/types"
)

// churn: overwrite-heavy history under a short window. Two clients each
// own a few objects on a drive-wide DeltaEnabled policy. The op mix is
// 70% whole-object small-diff rewrite + Sync, 20% read as of a time
// inside the window, 10% live read. A bench cleaner runs CleanOnce
// every few acknowledged writes, the way s4d runs its ticker but
// counted in ops, and the run spans several windows so cleaner cycles
// and write amplification level off. The workload stresses delta
// conversion, journal and commit, the cleaner racing foreground writes,
// and reads through delta chains.
//
// Whole objects are rewritten because single-block overwrites never
// delta-convert.

type chObj struct {
	id      types.ObjectID
	idx     int     // index into the pattern
	vers    []verAt // acknowledged versions, oldest trimmed
	tainted bool    // a rewrite failed: its outcome is unknown
}

type chEnv struct {
	r        *rig
	pat      *pattern
	window   time.Duration
	own      [][]*chObj          // per client
	acks     [][]types.Timestamp // per client: acks of its rewrites, those before the window trimmed
	cleaning sync.Mutex          // held by a cleaner pass
}

func chSetup(m *meter, sz sizes, seed int64) (*chEnv, error) {
	const clients = 2
	window := time.Duration(sz.chWindowOps) * step
	e := &chEnv{pat: newPattern(seed, clients*sz.chObjects), window: window,
		own: make([][]*chObj, clients), acks: make([][]types.Timestamp, clients)}
	r, err := newRig(m, window)
	if err != nil {
		return nil, err
	}
	e.r = r
	pol := types.Policy{Mode: types.ModeEveryVersion, DeltaEnabled: true}
	if err := r.drv.SetPolicy(types.AdminCred(), 0, pol); err != nil {
		return nil, fmt.Errorf("set policy: %w", err)
	}
	if err := r.serve(clients, seed); err != nil {
		return nil, err
	}
	acl := []types.ACLEntry{{User: types.EveryoneID, Perm: types.PermAll}}
	buf := make([]byte, objectBytes)
	for ci, c := range r.clients {
		for k := 0; k < sz.chObjects; k++ {
			idx := ci*sz.chObjects + k
			id, err := c.rpc.Create(acl, nil)
			if err != nil {
				r.close()
				return nil, fmt.Errorf("create: %w", err)
			}
			e.pat.object(buf, idx, 0)
			if err := c.rpc.Write(id, 0, buf); err != nil {
				r.close()
				return nil, fmt.Errorf("write: %w", err)
			}
			m.userBytes.Add(objectBytes)
			e.own[ci] = append(e.own[ci], &chObj{id: id, idx: idx, vers: []verAt{{types.TS(r.clk.Now()), 0}}})
		}
		if err := c.rpc.Sync(); err != nil {
			r.close()
			return nil, fmt.Errorf("sync: %w", err)
		}
	}
	return e, nil
}

// cleanerStats sums the bench cleaner's passes.
type cleanerStats struct {
	passes        int64
	busy          time.Duration
	segmentsFreed int64
	blocksCopied  int64
}

func runChurn(cfg runCfg) (map[string]float64, error) {
	m, sz := cfg.m, cfg.sizes
	e, setupS, err := timedSetups(m, sz.setupReps,
		func() (*chEnv, error) { return chSetup(m, sz, cfg.seed) },
		func(e *chEnv) { e.r.close() })
	if err != nil {
		return nil, err
	}
	r := e.r

	// The cleaner: one pass per chCleanEvery acknowledged rewrites.
	kick := make(chan struct{}, 1)
	quit := make(chan struct{})
	var cs cleanerStats
	var cleaner sync.WaitGroup
	cleaner.Add(1)
	go func() {
		defer cleaner.Done()
		for {
			select {
			case <-quit:
				return
			case <-kick:
			}
			cs.add(e.clean())
		}
	}()
	var writes sync.Mutex // orders the kick count across clients
	var acked int
	onAck := func() {
		writes.Lock()
		acked++
		due := acked%sz.chCleanEvery == 0
		writes.Unlock()
		if due {
			select {
			case kick <- struct{}{}:
			default: // a pass is already pending
			}
		}
	}
	var rec recovery
	w, err := measure(cfg, r, loop{
		warmOps: sz.chWarmOps,
		records: e.recordBytes,
		// The timed restarts open the image the warm-up left, so the log
		// they replay does not grow with the window's throughput. No
		// cleaner pass may write to the device while it is taken.
		paused: func() error {
			e.cleaning.Lock()
			defer e.cleaning.Unlock()
			var im image
			var err error
			if rec, im, err = r.reopen(sz.opens, cfg.trace); err != nil {
				return err
			}
			e.verify(im)
			return nil
		},
		body: func(c *client, next func() bool) {
			e.loop(c, int(c.rpc.id)-1, onAck, next)
		},
	})
	close(quit)
	cleaner.Wait()
	if err != nil {
		return nil, err
	}

	v := w.metrics()
	v["setup_s"] = setupS
	v["cleaner.passes"] = float64(cs.passes)
	v["cleaner.busy_ms_per_pass"] = ratio(float64(cs.busy.Microseconds())/1e3, float64(cs.passes))
	v["cleaner.segments_freed_per_pass"] = ratio(float64(cs.segmentsFreed), float64(cs.passes))
	v["cleaner.blocks_copied_per_segment_freed"] = ratio(float64(cs.blocksCopied), float64(cs.segmentsFreed))
	r.close()

	// One last pass ages out everything older than the window, so the
	// pool holds exactly what the window retains.
	e.clean()
	dev := r.dev.counts()
	v["write_amp"] = ratio(float64(dev.writeBytes), float64(m.userBytes.Load()))
	cut := types.TS(r.clk.Now()) - types.Timestamp(e.window)
	var inWindow int
	for _, acks := range e.acks {
		inWindow += len(acks) - sort.Search(len(acks), func(i int) bool { return acks[i] >= cut })
	}
	v["history_bytes_per_retained_byte"] = ratio(float64(r.drv.HistoryBytes()), float64(inWindow*objectBytes))

	rec.add(v)
	_, im, err := r.reopen(1, false)
	if err != nil {
		return nil, err
	}
	e.verify(im)
	return v, nil
}

// verify checks durability: each object's last acknowledged version
// reads back from a crash-restarted image.
func (e *chEnv) verify(im image) {
	m := e.r.m
	want := make([]byte, objectBytes)
	for _, own := range e.own {
		for _, o := range own {
			if o.tainted {
				continue
			}
			got, err := im.drv.Read(types.AdminCred(), o.id, 0, objectBytes, types.TimeNowest)
			if err != nil {
				m.mismatch("churn object %d after restart: %v", o.idx, err)
				continue
			}
			e.pat.object(want, o.idx, o.vers[len(o.vers)-1].ver)
			m.check(got, want, "churn object %d after restart", o.idx)
		}
	}
}

// recordBytes is the size of the version records.
func (e *chEnv) recordBytes() int64 {
	var n int
	for ci := range e.own {
		n += cap(e.acks[ci]) * int(unsafe.Sizeof(types.Timestamp(0)))
		for _, o := range e.own[ci] {
			n += cap(o.vers) * int(unsafe.Sizeof(verAt{}))
		}
	}
	return int64(n)
}

func (cs *cleanerStats) add(st core.CleanStats, d time.Duration) {
	cs.passes++
	cs.busy += d
	cs.segmentsFreed += int64(st.SegmentsFreed)
	cs.blocksCopied += int64(st.BlocksCopied)
}

// clean runs one cleaner pass as a drive-entering span.
func (e *chEnv) clean() (core.CleanStats, time.Duration) {
	m := e.r.m
	e.cleaning.Lock()
	defer e.cleaning.Unlock()
	m.passStarted.Add(1)
	a := m.tr.beginDrive("cleaner.CleanOnce", nil)
	t0 := time.Now()
	st, err := e.r.drv.CleanOnce()
	d := time.Since(t0)
	m.tr.endDrive(a, nil)
	m.passEnded.Add(1)
	if err != nil {
		m.mismatch("cleaner pass: %v", err)
	}
	return st, d
}

// loop is one churn client.
func (e *chEnv) loop(c *client, ci int, onAck func(), next func() bool) {
	m, rpc := c.m, c.rpc
	own := e.own[ci]
	buf := make([]byte, objectBytes)
	want := make([]byte, objectBytes)
	for next() {
		o := own[c.rng.Intn(len(own))]
		now := types.TS(rpc.clk.Now())
		switch p := c.rng.Intn(100); {
		case p < 70:
			ver := o.vers[len(o.vers)-1].ver + 1
			e.pat.object(buf, o.idx, ver)
			st := c.mark()
			err := rpc.Write(o.id, 0, buf)
			if err == nil {
				err = rpc.Sync()
			}
			c.sample(clsWrite, st, err)
			c.op(err)
			if err != nil {
				o.tainted = true
				continue
			}
			ack := types.TS(rpc.clk.Now())
			o.vers = append(o.vers, verAt{ack, ver})
			e.acks[ci] = append(e.acks[ci], ack)
			m.userBytes.Add(objectBytes)
			m.writesAcked.Add(1)
			onAck()
			e.trim(ci, o, now)
		default:
			at, cls := types.TimeNowest, clsRead
			if p < 90 {
				// A time inside the newer half of the window: the version
				// current then stays retained well past this read.
				acks := e.acks[ci]
				lo := sort.Search(len(acks), func(i int) bool { return acks[i] >= now-types.Timestamp(e.window/2) })
				if lo < len(acks) {
					at, cls = acks[lo+c.rng.Intn(len(acks)-lo)], clsHist
				}
			}
			st := c.mark()
			got, err := rpc.Read(o.id, 0, objectBytes, at)
			c.sample(cls, st, err)
			c.op(err)
			if cls == clsHist {
				m.histReads.Add(1)
			}
			if err == nil && !o.tainted {
				ver, _ := versionAt(o.vers, at)
				e.pat.object(want, o.idx, ver)
				m.check(got, want, "churn object %d at %v (version %d)", o.idx, at, ver)
			}
		}
	}
}

// trim drops records older than the window, keeping the version that
// was current when it began.
func (e *chEnv) trim(ci int, o *chObj, now types.Timestamp) {
	cut := now - types.Timestamp(e.window)
	if len(o.vers) > 64 {
		i := sort.Search(len(o.vers), func(i int) bool { return o.vers[i].ack >= cut })
		if i > 1 {
			o.vers = append(o.vers[:0], o.vers[i-1:]...)
		}
	}
	if acks := e.acks[ci]; len(acks) > 4096 {
		i := sort.Search(len(acks), func(i int) bool { return acks[i] >= cut })
		e.acks[ci] = append(acks[:0], acks[i:]...)
	}
}
