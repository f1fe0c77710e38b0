package main

import (
	"context"
	"fmt"
	"math/rand/v2"
	"runtime"
	"runtime/pprof"
	"slices"
	"time"

	"geckoftl"
)

// The device every workload runs on: 4096 blocks of 64 pages of 4 KiB on 8
// channels of 2 dies at the paper's 70% logical-to-physical ratio, which
// exposes about 183k logical pages, more than 8x the mapping cache.
const (
	blocks, pagesPerBlock, pageSize = 4096, 64, 4096
	channels, diesPerChannel        = 8, 2
	overProvision                   = 0.7
	cacheEntries                    = 16384
	// prefillChunk is the WriteBatch size of the set-up fill.
	prefillChunk = 8192
)

func deviceOptions() []geckoftl.Option {
	return []geckoftl.Option{
		geckoftl.WithGeometry(blocks, pagesPerBlock, pageSize),
		geckoftl.WithOverProvision(overProvision),
		geckoftl.WithChannels(channels, diesPerChannel),
		geckoftl.WithCacheEntries(cacheEntries),
	}
}

// bench holds one run's generated inputs and the state shared by its rounds.
type bench struct {
	ctx     context.Context
	w       *workload
	seed    int64
	logical int64
	// overwrite is the set-up's random overwrite pass, which brings the
	// freshly filled device to garbage-collection steady state.
	overwrite []geckoftl.LPN
	// in is the workload's generated input, replayed by every round.
	in any
	// tr is the tracer of the round in progress; nil when untraced.
	tr *tracer
	// lat is the latency buffer every round reuses, so that samples of
	// past rounds do not inflate the live heap the rounds measure.
	lat []int64
}

// latencies returns the empty latency buffer, sized for n requests.
func (b *bench) latencies(n int) []int64 {
	if cap(b.lat) < n {
		b.lat = make([]int64, 0, n)
	}
	return b.lat[:0]
}

func newBench(ctx context.Context, w *workload, seed int64) (*bench, error) {
	dev, err := geckoftl.Open(deviceOptions()...)
	if err != nil {
		return nil, err
	}
	b := &bench{ctx: ctx, w: w, seed: seed, logical: dev.LogicalPages()}
	if err := dev.Close(ctx); err != nil {
		return nil, err
	}
	rng := b.rng(0)
	b.overwrite = make([]geckoftl.LPN, b.logical/2)
	for i := range b.overwrite {
		b.overwrite[i] = geckoftl.LPN(rng.Int64N(b.logical))
	}
	b.in = w.generate(b)
	return b, nil
}

// rng returns the seeded generator of one input stream.
func (b *bench) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(uint64(b.seed), stream))
}

// roundResult is one round: set-up, the measured phase and its audits.
type roundResult struct {
	// setups are the host durations of every Open plus prefill in the round.
	setups   []time.Duration
	measured time.Duration
	// pageOps counts logical pages acted on in the measured phase, requests
	// the client calls they were issued in. lat holds each request's host
	// latency in nanoseconds while the round runs; the percentiles
	// summarize it.
	pageOps, requests int64
	lat               []int64
	p50, p90, p99     float64
	// chunks are host throughput samples in page ops per second: one per
	// round, or one per reboot cycle on workloads that reboot.
	chunks             []float64
	mallocs            uint64
	gcCycles           uint32
	liveHeap           uint64
	restarts, recovers []time.Duration

	attempted, failed int64
	incorrect         []string
	sim               simFigures
}

func (r *roundResult) wrong(format string, args ...any) {
	r.incorrect = append(r.incorrect, fmt.Sprintf(format, args...))
}

// simFigures are a round's simulated-device figures. They are a pure
// function of the seed, so every round of a run must produce identical ones.
type simFigures struct {
	WA, UserWA, TranslationWA, ValidityWA float64
	// The means are exact; the percentiles come from the device's latency
	// histograms, whose buckets are 6.25% wide.
	WriteMeanUS, StallMeanUS, ReadMeanUS float64
	WriteP50US, WriteP999US, ReadP999US  float64
	KIOPS                                float64
	RAMBytes                             int64

	MigrationsPerWrite      float64
	UIPSkips                int64
	MaxStall                time.Duration
	StalledP999US           float64
	QueueSubmitted          int64
	QueueDelayed, QueueShed int64
	QueueP999US             float64

	Recoveries, Restarts, AuditFailures int64
	// The recovery figures are medians over the round's Recover reports.
	RecoveryWall                time.Duration
	RecSpareReads, RecPageReads int64
	RecEntries                  int
	RecSpeedup                  float64
	CheckpointBytes             int64
}

// rounds repeats round until at least min rounds ran and their measured
// phases add up to budget.
func (b *bench) rounds(budget time.Duration, min int, tr *tracer) ([]*roundResult, error) {
	b.tr = tr
	defer func() { b.tr = nil }()
	var out []*roundResult
	var spent time.Duration
	for len(out) < min || spent < budget {
		r := &roundResult{}
		if err := b.phase(spRound, func() error { return b.w.round(b, r) }); err != nil {
			return nil, err
		}
		slices.Sort(r.lat)
		r.p50, r.p90, r.p99 = percentile(r.lat, 0.50), percentile(r.lat, 0.90), percentile(r.lat, 0.99)
		r.lat = nil
		if len(r.chunks) == 0 {
			r.chunks = []float64{float64(r.pageOps) / r.measured.Seconds()}
		}
		out = append(out, r)
		spent += r.measured
	}
	return out, nil
}

// phase runs fn as one named phase: under tracing it is a span, and CPU
// profile samples taken inside it carry the workload and phase as labels.
func (b *bench) phase(sp spanName, fn func() error) error {
	if b.tr == nil {
		return fn()
	}
	id := b.tr.open(sp)
	defer b.tr.close(id)
	// Nested phases derive from the enclosing phase's context, so that
	// pprof.Do restores the enclosing labels when the inner phase ends.
	outer := b.ctx
	defer func() { b.ctx = outer }()
	var err error
	pprof.Do(outer, pprof.Labels("workload", b.w.name, "phase", sp.String()), func(ctx context.Context) {
		b.ctx = ctx
		err = fn()
	})
	return err
}

// setup opens a device and prefills it to garbage-collection steady state:
// every logical page written once in order, then a random overwrite pass of
// half the logical space, then a Flush and a fresh statistics window.
func (b *bench) setup(r *roundResult) (*geckoftl.Device, *shadow, error) {
	var (
		dev   *geckoftl.Device
		reads int64
	)
	err := b.phase(spSetup, func() error {
		start := time.Now()
		t0 := time.Now()
		d, err := geckoftl.Open(deviceOptions()...)
		b.tr.leaf(spOpen, t0, time.Now())
		if err != nil {
			return err
		}
		dev = d
		chunk := make([]geckoftl.LPN, 0, prefillChunk)
		for p := int64(0); p < b.logical; p += prefillChunk {
			chunk = chunk[:0]
			for q := p; q < min(p+prefillChunk, b.logical); q++ {
				chunk = append(chunk, geckoftl.LPN(q))
			}
			if err := b.writeBatch(dev, chunk); err != nil {
				return err
			}
		}
		for p := 0; p < len(b.overwrite); p += prefillChunk {
			if err := b.writeBatch(dev, b.overwrite[p:min(p+prefillChunk, len(b.overwrite))]); err != nil {
				return err
			}
		}
		if b.w.warm != nil {
			if reads, err = b.w.warm(b, dev); err != nil {
				return err
			}
		}
		if err := b.flush(dev); err != nil {
			return err
		}
		dev.ResetStats()
		r.setups = append(r.setups, time.Since(start))
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("set-up: %w", err)
	}
	sh := newShadow(b.logical)
	sh.writes, sh.reads = b.logical+int64(len(b.overwrite)), reads
	return dev, sh, nil
}

func (b *bench) writeBatch(dev *geckoftl.Device, lpns []geckoftl.LPN) error {
	t0 := time.Now()
	err := dev.WriteBatch(b.ctx, lpns)
	b.tr.leaf(spWriteBatch, t0, time.Now())
	return err
}

func (b *bench) flush(dev *geckoftl.Device) error {
	t0 := time.Now()
	err := dev.Flush(b.ctx)
	b.tr.leaf(spFlush, t0, time.Now())
	return err
}

func (b *bench) snapshot(dev *geckoftl.Device) geckoftl.Snapshot {
	t0 := time.Now()
	s := dev.Snapshot()
	b.tr.leaf(spSnapshot, t0, time.Now())
	return s
}

func (b *bench) close(dev *geckoftl.Device) error {
	t0 := time.Now()
	err := dev.Close(b.ctx)
	b.tr.leaf(spClose, t0, time.Now())
	return err
}

// restart runs a warm Restart, timed, and audits the device afterwards.
func (b *bench) restart(dev *geckoftl.Device, sh *shadow, r *roundResult, m *meter) error {
	t0 := time.Now()
	rep, err := dev.Restart(b.ctx)
	t1 := time.Now()
	b.tr.leaf(spRestart, t0, t1)
	if err != nil {
		return fmt.Errorf("restart: %w", err)
	}
	r.restarts = append(r.restarts, t1.Sub(t0))
	r.sim.Restarts++
	r.sim.CheckpointBytes = max(r.sim.CheckpointBytes, rep.CheckpointBytes)
	sh.flushed()
	m.pause()
	defer m.resume()
	r.attempted++
	if msg := b.auditRecovered(dev, sh); msg != "" {
		r.failed++
		r.sim.AuditFailures++
		fmt.Printf("audit failure after Restart: %s\n", msg)
		return errAuditFailed
	}
	return nil
}

// crash pulls the plug on a quiescent device, recovers it, timed, and
// audits it with the flushed-state oracle.
func (b *bench) crash(dev *geckoftl.Device, sh *shadow, r *roundResult, m *meter, reps *[]*geckoftl.RecoveryReport) error {
	t0 := time.Now()
	err := dev.PowerFail()
	b.tr.leaf(spPowerFail, t0, time.Now())
	if err != nil {
		return fmt.Errorf("power-fail: %w", err)
	}
	t0 = time.Now()
	rep, err := dev.Recover(b.ctx)
	t1 := time.Now()
	b.tr.leaf(spRecover, t0, t1)
	if err != nil {
		return fmt.Errorf("recover: %w", err)
	}
	r.recovers = append(r.recovers, t1.Sub(t0))
	r.sim.Recoveries++
	*reps = append(*reps, rep)
	m.pause()
	defer m.resume()
	r.attempted++
	if msg := b.auditRecovered(dev, sh); msg != "" {
		r.failed++
		r.sim.AuditFailures++
		fmt.Printf("audit failure after PowerFail+Recover: %s\n", msg)
		return errAuditFailed
	}
	return nil
}

// meter times a measured phase and counts its heap allocations and garbage
// collections, excluding the intervals in which it is paused (audits and
// the re-set-up after a failed one). A nil meter measures nothing.
type meter struct {
	start   time.Time
	elapsed time.Duration
	ms      runtime.MemStats
	mallocs uint64
	gcs     uint32
	m0      uint64
	gc0     uint32
}

func (m *meter) resume() {
	if m == nil {
		return
	}
	runtime.ReadMemStats(&m.ms)
	m.m0, m.gc0 = m.ms.Mallocs, m.ms.NumGC
	m.start = time.Now()
}

// running returns the measured time so far; the meter must be running.
func (m *meter) running() time.Duration { return m.elapsed + time.Since(m.start) }

func (m *meter) pause() {
	if m == nil {
		return
	}
	m.elapsed += time.Since(m.start)
	runtime.ReadMemStats(&m.ms)
	m.mallocs += m.ms.Mallocs - m.m0
	m.gcs += m.ms.NumGC - m.gc0
}

// finish records the meter's totals and the live heap into r.
func (m *meter) finish(r *roundResult) {
	r.measured, r.mallocs, r.gcCycles = m.elapsed, m.mallocs, m.gcs
	runtime.GC()
	runtime.ReadMemStats(&m.ms)
	r.liveHeap = m.ms.HeapAlloc
}
