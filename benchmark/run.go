package main

import (
	"fmt"
	"time"

	"repro/internal/governor"
	"repro/internal/storage"
)

// config is one invocation's settings.
type config struct {
	seed    int64
	seconds float64 // how long the timed rounds of one pass run
	scale   float64 // multiplies every operation count
	dir     string  // real data directory; "" selects the in-memory device
}

// recoveryOpsPerClient is the fixed commit count of the recovery phase
// (two clients, so the issue's 20 000 commits at scale 1).
const recoveryOpsPerClient = 10000

// A recovery phase opens at least recoveryImages crash images, and keeps
// opening more (up to ten times that) while they are cheap: a
// millisecond-sized recovery needs more samples to give a steady median.
const (
	recoveryImages = 3
	recoveryCheap  = 200 * time.Millisecond
)

// setUps is how many times a run sets the workload up; setup_s is their
// median. The first three are used: timed rounds, then two recovery phases.
const setUps = 5

// passResult is what one pass over one workload produced.
type passResult struct {
	Workload  string             `json:"workload"`
	Traced    bool               `json:"traced"`
	Correct   bool               `json:"correct"`
	Wedged    bool               `json:"wedged,omitempty"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Rounds    int                `json:"rounds"`
	Samples   map[string]int     `json:"samples"` // sample count behind each metric
	Metrics   map[string]float64 `json:"metrics"`
	Error     string             `json:"error,omitempty"`
}

func newPassResult(name string, traced bool) *passResult {
	return &passResult{Workload: name, Traced: traced,
		Samples: make(map[string]int), Metrics: make(map[string]float64)}
}

// finish closes a pass: the tally's operation counts, and the verdict —
// correct means every oracle passed and no operation failed.
func (res *passResult) finish(t *tally, err error) *passResult {
	res.Attempted = int(t.attempted.Load())
	res.Failed = int(t.failed.Load())
	res.Correct = err == nil && res.Failed == 0
	if err != nil {
		res.Error = err.Error()
	}
	return res
}

// series collects one value per round for each metric and reports the
// median, so a run measures many rounds and one slow round moves nothing.
type series map[string][]float64

func (s series) add(name string, v float64) { s[name] = append(s[name], v) }

func (s series) into(res *passResult, samples map[string]int) {
	for name, vals := range s {
		res.Metrics[name] = median(vals)
		res.Samples[name] = samples[name]
	}
}

// timedRounds runs rounds of the workload's fixed operation count until
// the pass's time is used up (at least one), feeding each round to fn.
func timedRounds(p *plant, seconds float64, fn func(r *roundResult) error) (rounds int, err error) {
	deadline := nowNS() + int64(seconds*float64(time.Second))
	for rounds == 0 || nowNS() < deadline {
		r := p.round(p.opsPerRound())
		rounds++
		if err := fn(r); err != nil {
			return rounds, err
		}
	}
	return rounds, nil
}

// endToEndRound turns one round into the per-round end-to-end values.
func endToEndRound(p *plant, r *roundResult, s series, n map[string]int) error {
	ok := float64(r.ops - r.failed)
	if ok == 0 {
		return fmt.Errorf("round acknowledged no operation")
	}
	s.add("txn_per_s", ok/r.wall.Seconds())
	quant := func(p50, pHi string, q float64, samples []int32) {
		qs := quantiles(samples, 0.50, q)
		s.add(p50, qs[0]/1e3)
		s.add(pHi, qs[1]/1e3)
		n[p50] += len(samples)
		n[pHi] += len(samples)
	}
	quant("txn_p50_us", "txn_p99_us", 0.99, r.lat[kindWrite])
	quant("read_p50_us", "read_p99_us", 0.99, r.lat[kindRead])
	var react []int32
	for _, path := range r.react {
		react = append(react, path...)
	}
	quant("react_p50_us", "react_p95_us", 0.95, react)
	s.add("allocs_per_txn", float64(r.mallocs)/ok)
	s.add("wal_bytes_per_txn", float64(r.dev.walBytes)/ok)
	s.add("fsync_per_txn", float64(r.dev.syncs)/ok)
	for _, name := range []string{"txn_per_s", "allocs_per_txn", "wal_bytes_per_txn", "fsync_per_txn"} {
		n[name] += int(ok)
	}

	// Space after a checkpoint: the log's covered segments are pruned, so
	// what is left is the data file plus the active segment's residue.
	if err := p.sys.DB.Checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	stored, err := p.dev.dirBytes(p.dir)
	if err != nil {
		return err
	}
	s.add("space_amp", float64(stored)/float64(p.w.userBytes()))
	s.add("live_heap_mb", p.liveHeapMB())
	n["space_amp"]++
	n["live_heap_mb"]++
	return nil
}

// healthCheck fails the pass if the overload governor left the healthy
// state or anything reached the dead-letter queue: the workloads are
// sized so that neither happens.
func healthCheck(p *plant) error {
	if n := totalSheds(p.sys.Governor); n > 0 {
		return fmt.Errorf("governor shed %d units of work", n)
	}
	if st := p.sys.Governor.State(); st != governor.Healthy {
		return fmt.Errorf("governor state %v at end of run", st)
	}
	if n := len(p.sys.Engine.DeadLetters()); n > 0 {
		return fmt.Errorf("%d dead letters", n)
	}
	return nil
}

// totalSheds is everything the overload governor shed, over all classes.
func totalSheds(g *governor.Governor) uint64 {
	sheds := g.Sheds()
	return sheds[governor.ClassDetached] + sheds[governor.ClassDeferred] + sheds[governor.ClassWriter]
}

// runEndToEnd is the untraced pass: timed rounds and the live and
// clean-reopen oracles on the first set-up, a recovery phase on each of
// the next two, and two more set-ups only for setup_s.
func runEndToEnd(name string, newW func() workload, cfg config, t *tally) *passResult {
	res := newPassResult(name, false)
	b := newBench(newW, cfg, t)
	err := func() error {
		var setups, recoveries []float64
		s, n := series{}, map[string]int{}

		p, took, err := b.setUp(0, false)
		if err != nil {
			return err
		}
		setups = append(setups, took.Seconds())
		res.Rounds, err = timedRounds(p, cfg.seconds, func(r *roundResult) error {
			return endToEndRound(p, r, s, n)
		})
		if err == nil {
			err = p.w.verify(p)
		}
		if err == nil {
			err = healthCheck(p)
		}
		if err != nil {
			p.close()
			return err
		}
		// Clean close, then reopen: everything acknowledged is there.
		if err := p.sys.Close(); err != nil {
			return fmt.Errorf("close: %w", err)
		}
		_, _, err = reopen(p.w, b.dev, p.dir)
		b.dev.removeDir(p.dir)
		if err != nil {
			return fmt.Errorf("after close and reopen: %w", err)
		}

		for i := int64(1); i < setUps; i++ {
			recovering := i <= 2
			p, took, err := b.setUp(i, recovering)
			if err != nil {
				return err
			}
			setups = append(setups, took.Seconds())
			if recovering {
				var times []float64
				if times, _, err = recoveryPhase(p); err != nil {
					err = fmt.Errorf("recovery phase: %w", err)
				}
				recoveries = append(recoveries, times...)
			}
			if cerr := p.close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
		}
		s.into(res, n)
		res.Metrics["setup_s"], res.Samples["setup_s"] = median(setups), len(setups)
		res.Metrics["recovery_s"], res.Samples["recovery_s"] = median(recoveries), len(recoveries)
		return nil
	}()
	return res.finish(t, err)
}

// recoveryPhase commits a fixed number of operations with the
// checkpointer parked, copies the directory after the last acknowledged
// commit, and times oodb.Open on each copy, checking every persistent
// object against the script's final state.
func recoveryPhase(p *plant) (seconds []float64, records int, err error) {
	if r := p.round(max(int(recoveryOpsPerClient*p.scale), 16)); r.failed > 0 {
		return nil, 0, fmt.Errorf("%d operations failed", r.failed)
	}
	var spent time.Duration
	for i := 0; i < recoveryImages || i < 10*recoveryImages && spent < recoveryCheap; i++ {
		img := scratchDir(p.dir + "-img")
		if err := p.dev.mkdir(img); err != nil {
			return nil, 0, err
		}
		err := p.dev.copyDir(p.dir, img)
		var took time.Duration
		if err == nil {
			var st storage.Stats
			took, st, err = reopen(p.w, p.dev, img)
			records = st.RecoveryRecordsScanned
		}
		p.dev.removeDir(img)
		if err != nil {
			return nil, 0, err
		}
		seconds = append(seconds, took.Seconds())
		spent += took
	}
	return seconds, records, nil
}
