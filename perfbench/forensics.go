package main

import (
	"fmt"
	"math/rand"
	"unsafe"

	"s4/internal/types"
)

// forensics: an administrator reads back in time after an intrusion
// (§3.6). Setup builds a deep history in-process — small-diff
// single-block overwrites under the default policy, far deeper than the
// landmark interval and several times the block cache — then abandons
// the drive after its last Sync, without Close. Every timed Open starts
// from that crash image. Two clients then sweep restore-at-T over half
// the objects each. The workload stresses crash recovery, landmarks,
// the recon cache, the block cache and device reads, and bypasses the
// write path and the cleaner.

type foEnv struct {
	r    *rig
	pat  *pattern
	ids  []types.ObjectID
	hist [][]verAt         // [obj*blocksPerObject+blk], in ack order
	acks []types.Timestamp // ack of every overwrite: the incident times
	dev  devCounts         // device work of the build
	user int64             // user bytes the build wrote
}

func foSetup(m *meter, sz sizes, seed int64) (*foEnv, error) {
	n := sz.foObjects
	e := &foEnv{pat: newPattern(seed, n), hist: make([][]verAt, n*blocksPerObject)}
	r, err := newRig(m, bigWindow)
	if err != nil {
		return nil, err
	}
	e.r = r
	drv, clk := r.drv, r.clk
	owner := types.Cred{User: clientUser, Client: 1}
	acl := []types.ACLEntry{{User: types.EveryoneID, Perm: types.PermAll}}
	buf := make([]byte, objectBytes)
	for o := 0; o < n; o++ {
		clk.Advance(step)
		id, err := drv.Create(owner, acl, nil)
		if err != nil {
			return nil, fmt.Errorf("create: %w", err)
		}
		e.ids = append(e.ids, id)
		e.pat.object(buf, o, 0)
		clk.Advance(step)
		if err := drv.Write(owner, id, 0, buf); err != nil {
			return nil, fmt.Errorf("write: %w", err)
		}
		ack := types.TS(clk.Now())
		for b := 0; b < blocksPerObject; b++ {
			e.hist[o*blocksPerObject+b] = []verAt{{ack, 0}}
		}
		e.user += objectBytes
	}
	rng := rand.New(rand.NewSource(seed))
	blk := buf[:types.BlockSize]
	for i := 0; i < n*sz.foDepth; i++ {
		o, b := rng.Intn(n), rng.Intn(blocksPerObject)
		h := &e.hist[o*blocksPerObject+b]
		ver := (*h)[len(*h)-1].ver + 1
		e.pat.block(blk, o, b, ver)
		clk.Advance(step)
		if err := drv.Write(owner, e.ids[o], uint64(b*types.BlockSize), blk); err != nil {
			return nil, fmt.Errorf("overwrite: %w", err)
		}
		ack := types.TS(clk.Now())
		*h = append(*h, verAt{ack, ver})
		e.acks = append(e.acks, ack)
		e.user += types.BlockSize
		if i%64 == 63 {
			if err := drv.Sync(owner); err != nil {
				return nil, fmt.Errorf("sync: %w", err)
			}
		}
	}
	if err := drv.Sync(owner); err != nil {
		return nil, fmt.Errorf("sync: %w", err)
	}
	e.dev = r.dev.counts()
	return e, nil
}

func runForensics(cfg runCfg) (map[string]float64, error) {
	m, sz := cfg.m, cfg.sizes
	e, setupS, err := timedSetups(m, sz.setupReps,
		func() (*foEnv, error) { return foSetup(m, sz, cfg.seed) },
		func(*foEnv) {})
	if err != nil {
		return nil, err
	}
	r := e.r
	rec, im, err := r.reopen(sz.opens, cfg.trace)
	if err != nil {
		return nil, err
	}
	r.use(im)
	if err := r.serve(2, cfg.seed); err != nil {
		return nil, err
	}
	defer r.close()
	half := len(e.ids) / 2
	w, err := measure(cfg, r, loop{
		warmOps: sz.foWarmOps,
		records: e.recordBytes,
		body: func(c *client, next func() bool) {
			i := int(c.rpc.id) - 1
			e.sweep(c, i*half, (i+1)*half, next)
		},
	})
	if err != nil {
		return nil, err
	}
	v := w.metrics()
	rec.add(v)
	v["setup_s"] = setupS
	// The reads write audit records. Only the warm-up's count, so the
	// figure does not grow with the window's throughput.
	v["write_amp"] = ratio(float64(e.dev.writeBytes+w.a.dev.writeBytes), float64(e.user))
	overwritten := float64(len(e.acks) * types.BlockSize)
	v["history_bytes_per_retained_byte"] = ratio(float64(r.drv.HistoryBytes()), overwritten)
	return v, nil
}

// sweep runs restore-at-T sweeps over objects [lo, hi): pick an incident
// time T uniformly among the overwrites' acks, then read every block as
// of T. About one read in ten is of the live version instead. Each T is
// an ack on the bench clock, so it falls between two acks of every
// block and the expected version is never in doubt.
func (e *foEnv) sweep(c *client, lo, hi int, next func() bool) {
	m := c.m
	want := make([]byte, types.BlockSize)
	for {
		T := e.acks[c.rng.Intn(len(e.acks))]
		for o := lo; o < hi; o++ {
			for b := 0; b < blocksPerObject; b++ {
				if !next() {
					return
				}
				h := e.hist[o*blocksPerObject+b]
				at, cls := T, clsHist
				ver, _ := versionAt(h, T)
				if c.rng.Intn(10) == 0 {
					at, cls, ver = types.TimeNowest, clsRead, h[len(h)-1].ver
				}
				st := c.mark()
				got, err := c.rpc.Read(e.ids[o], uint64(b*types.BlockSize), types.BlockSize, at)
				c.sample(cls, st, err)
				c.op(err)
				if cls == clsHist {
					m.histReads.Add(1)
				}
				if err == nil {
					e.pat.block(want, o, b, ver)
					m.check(got, want, "forensics object %d block %d at %v (version %d)", o, b, at, ver)
				}
			}
		}
	}
}

// recordBytes is the size of the version record the history build grew.
func (e *foEnv) recordBytes() int64 {
	n := cap(e.acks) * int(unsafe.Sizeof(types.Timestamp(0)))
	for _, h := range e.hist {
		n += cap(h) * int(unsafe.Sizeof(verAt{}))
	}
	return int64(n)
}
