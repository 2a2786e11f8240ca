package main

import (
	"fmt"
	"time"

	"s4/internal/s4fs"
	"s4/internal/types"
	"s4/internal/workloads"
)

// postmark: the paper's PostMark (§5.1, Fig. 3) through s4fs with
// NFSv2 sync-per-op semantics over one s4rpc session (Fig. 1a). The
// file pool's live set fits the drive's 16MB block cache, the window
// never expires and no cleaner runs: the workload stresses s4fs, the
// wire, per-op group commit and audit, and bypasses history reads,
// delta conversion and the cleaner.

type pmEnv struct {
	r  *rig
	fs *fsProbe
	pm *workloads.PostMark
}

func pmSetup(m *meter, sz sizes, seed int64) (*pmEnv, error) {
	r, err := newRig(m, bigWindow)
	if err != nil {
		return nil, err
	}
	if err := r.serve(1, seed); err != nil {
		return nil, err
	}
	cl := r.clients[0]
	fs, err := s4fs.MkfsBackend(cl.rpc, s4fs.Options{
		Cred:       types.Cred{User: clientUser, Client: 1},
		SyncEachOp: true,
	})
	if err != nil {
		r.close()
		return nil, fmt.Errorf("mkfs: %w", err)
	}
	e := &pmEnv{r: r, fs: newFSProbe(fs, cl, cl.rpc)}
	// One transaction per TransactionPhase call, so the loop can stop
	// on time and time each transaction.
	e.pm = workloads.NewPostMark(e.fs, workloads.PostMarkConfig{
		Files: sz.pmFiles, Transactions: 1,
		MinSize: 512, MaxSize: 9216,
		ReadBias: 50, CreateBias: 50, Seed: seed,
	})
	if err := e.pm.CreatePhase(); err != nil {
		r.close()
		return nil, fmt.Errorf("postmark create phase: %w", err)
	}
	return e, nil
}

func runPostmark(cfg runCfg) (map[string]float64, error) {
	m := cfg.m
	e, setupS, err := timedSetups(m, cfg.sizes.setupReps,
		func() (*pmEnv, error) { return pmSetup(m, cfg.sizes, cfg.seed) },
		func(e *pmEnv) { e.r.close() })
	if err != nil {
		return nil, err
	}
	r := e.r
	var rec recovery
	w, err := measure(cfg, r, loop{
		warmOps: cfg.sizes.pmWarmOps,
		records: e.fs.recordBytes,
		// The timed restarts open the image the warm-up left, so the log
		// they replay does not grow with the window's throughput.
		paused: func() error {
			var im image
			var err error
			if rec, im, err = r.reopen(cfg.sizes.opens, cfg.trace); err != nil {
				return err
			}
			return e.verify(im)
		},
		body: func(cl *client, next func() bool) {
			for next() {
				cl.op(e.pm.TransactionPhase())
			}
		},
	})
	if err != nil {
		return nil, err
	}
	v := w.metrics()
	rec.add(v)
	v["setup_s"] = setupS
	dev := r.dev.counts()
	v["write_amp"] = ratio(float64(dev.writeBytes), float64(m.userBytes.Load()))
	v["history_bytes_per_retained_byte"] = ratio(float64(r.drv.HistoryBytes()), float64(m.overwritten.Load()))
	r.close()

	_, im, err := r.reopen(1, false)
	if err != nil {
		return nil, err
	}
	return v, e.verify(im)
}

// verify checks durability: the tree the bench saw acknowledged must
// read back, names and bytes, from a crash-restarted image.
func (e *pmEnv) verify(im image) error {
	fs, err := s4fs.Mount(im.drv, s4fs.Options{Cred: types.Cred{User: clientUser, Client: 1}})
	if err != nil {
		return fmt.Errorf("mount after restart: %w", err)
	}
	e.fs.verify(fs)
	return nil
}

// timedSetups runs setup reps times, discarding all but the last, and
// returns it with the median setup time.
func timedSetups[E any](m *meter, reps int, setup func() (E, error), discard func(E)) (E, float64, error) {
	var e E
	var times []float64
	for i := 0; i < reps; i++ {
		if i > 0 {
			// Drop the last setup first, so its memory is garbage by the
			// time the next one takes heap_mb's baseline.
			discard(e)
			var zero E
			e = zero
		}
		// Byte totals cover the kept setup and the run after it.
		m.userBytes.Store(0)
		m.overwritten.Store(0)
		t0 := time.Now()
		var err error
		e, err = setup()
		if err != nil {
			return e, 0, fmt.Errorf("setup: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return e, median(times), nil
}
