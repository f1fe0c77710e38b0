package main

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"time"

	"geckoftl"
)

// workload is one benchmark input family: how its ops are generated from
// the seed, how one round runs them, and which layers it must load.
type workload struct {
	name, why string
	generate  func(b *bench) any
	hotSet    int64
	// warm, when set, runs at the end of set-up and returns the reads it
	// issued.
	warm      func(b *bench, dev *geckoftl.Device) (int64, error)
	round     func(b *bench, r *roundResult) error
	selfCheck func(b *bench, f *simFigures) string
}

var workloads = []*workload{
	{
		name:      "sync-uniform",
		why:       "synchronous 70/30 write/read over all logical pages, 11x the mapping cache: mapcache misses, translation and validity IO, GC",
		generate:  genSyncUniform,
		round:     roundSync,
		selfCheck: checkSyncUniform,
	},
	{
		name:      "async-zipf",
		why:       "windowed SubmitWrite/SubmitRead tickets, 50/50 on Zipfian keys whose hot set fits the cache: the queue and handoff path, no translation IO",
		generate:  genAsyncZipf,
		hotSet:    zipfHotSet,
		warm:      warmHotSet,
		round:     roundAsync,
		selfCheck: checkAsyncZipf,
	},
	{
		name:      "extent-trim-crash",
		why:       "64-page WriteBatch/TrimBatch/ReadBatch extents with Flushes, alternating warm Restart and PowerFail+Recover: fan-out, trim, checkpoint, GeckoRec",
		generate:  genExtent,
		round:     roundExtent,
		selfCheck: checkExtent,
	},
}

func workloadByName(name string) (*workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return nil, false
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// Workload sizes. Each round replays the same generated stream; the sizes
// make one measured phase last two to four host seconds.
const (
	syncOps       = 400_000
	syncWriteFrac = 0.7
	asyncOps      = 600_000
	// asyncWindow caps the tickets in flight.
	asyncWindow = 2 * channels
	zipfHotSet  = cacheEntries / 2
	zipfSkew    = 1.1
	extentPages = 64
	extentOps   = 2048
	// Every flushEvery extents the client flushes; every rebootEvery
	// extents it reboots the device, alternating a warm Restart with
	// PowerFail+Recover. rebootOffset places the reboot 28 extents (1792
	// pages) after a flush, so each crash window holds writes and trims.
	// The first extent after a reboot runs tens of times slower than the
	// rest; at one reboot per 128 extents those extents are 0.8% of the
	// requests, far above host_op_p90_us. A round reboots 16 times, so the
	// median Restart and Recover times rest on 8 calls each per round.
	flushEvery   = 32
	rebootEvery  = 128
	rebootOffset = 124
	// probes is the number of Restart and PowerFail+Recover pairs run after
	// the measured phase of the workloads that do not reboot on their own;
	// probeWrites is the crash window each such PowerFail cuts into. Only
	// the first Restart of a round follows the measured phase's full dirty
	// cache; the rest follow a Recover, so with four probes the median
	// Restart time is that of a restart after recovery.
	probes      = 4
	probeWrites = 4096
)

// translationFloor separates "well above zero" translation
// write-amplification (sync-uniform, whose working set dwarfs the cache)
// from "near zero" (async-zipf, whose hot set fits it).
const translationFloor = 0.005

type pageOp struct {
	lpn   geckoftl.LPN
	write bool
}

// pageInput is the generated input of the single-page workloads: the
// measured op stream, the writes of each reboot probe's crash window and,
// for async-zipf, the hot set's pages by Zipfian rank.
type pageInput struct {
	ops    []pageOp
	probes [probes][]geckoftl.LPN
	hot    []geckoftl.LPN
}

func genProbes(b *bench, in *pageInput) {
	rng := b.rng(2)
	for i := range in.probes {
		in.probes[i] = make([]geckoftl.LPN, probeWrites)
		for j := range in.probes[i] {
			in.probes[i][j] = geckoftl.LPN(rng.Int64N(b.logical))
		}
	}
}

func genSyncUniform(b *bench) any {
	rng := b.rng(1)
	in := &pageInput{ops: make([]pageOp, syncOps)}
	for i := range in.ops {
		in.ops[i] = pageOp{lpn: geckoftl.LPN(rng.Int64N(b.logical)), write: rng.Float64() < syncWriteFrac}
	}
	genProbes(b, in)
	return in
}

// hotPages scatters the Zipfian ranks over the logical space with a fixed
// stride coprime to it, so the hot set spreads over every shard.
func hotPages(b *bench) []geckoftl.LPN {
	stride := b.logical/3 | 1
	for gcd(stride, b.logical) != 1 {
		stride += 2
	}
	hot := make([]geckoftl.LPN, zipfHotSet)
	for k := range hot {
		hot[k] = geckoftl.LPN(int64(k) * stride % b.logical)
	}
	return hot
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

func genAsyncZipf(b *bench) any {
	rng := b.rng(1)
	z := rand.NewZipf(rng, zipfSkew, 1, zipfHotSet-1)
	in := &pageInput{ops: make([]pageOp, asyncOps), hot: hotPages(b)}
	for i := range in.ops {
		in.ops[i] = pageOp{lpn: in.hot[z.Uint64()], write: rng.IntN(2) == 0}
	}
	genProbes(b, in)
	return in
}

// warmHotSet reads every hot page once, so the mapping cache holds the hot
// set before measurement starts.
func warmHotSet(b *bench, dev *geckoftl.Device) (int64, error) {
	hot := b.in.(*pageInput).hot
	for _, lpn := range hot {
		t0 := time.Now()
		err := dev.Read(b.ctx, lpn)
		b.tr.leaf(spRead, t0, time.Now())
		if err != nil {
			return 0, err
		}
	}
	return int64(len(hot)), nil
}

// roundSync runs the sync-uniform stream: one client, one synchronous call
// per op.
func roundSync(b *bench, r *roundResult) error {
	in := b.in.(*pageInput)
	dev, sh, err := b.setup(r)
	if err != nil {
		return err
	}
	s0 := b.snapshot(dev)
	r.lat = b.latencies(len(in.ops))
	var m meter
	_ = b.phase(spMeasure, func() error {
		m.resume()
		for _, op := range in.ops {
			t0 := time.Now()
			var err error
			if op.write {
				err = dev.Write(b.ctx, op.lpn)
			} else {
				err = dev.Read(b.ctx, op.lpn)
			}
			t1 := time.Now()
			r.lat = append(r.lat, int64(t1.Sub(t0)))
			if op.write {
				b.tr.leaf(spWrite, t0, t1)
				sh.write(int64(op.lpn))
			} else {
				b.tr.leaf(spRead, t0, t1)
				sh.reads++
			}
			if err != nil {
				r.failed++
				r.wrong("op on page %d outside any crash window failed: %v", op.lpn, err)
			}
		}
		m.pause()
		return nil
	})
	b.measured(dev, r, s0, int64(len(in.ops)))
	m.finish(r)
	r.incorrect = append(r.incorrect, b.auditLive(dev, sh)...)
	return b.finishProbed(dev, sh, r)
}

// roundAsync runs the async-zipf stream: one submitter keeps up to
// asyncWindow tickets in flight and waits on the oldest, in FIFO order.
//
// The public API stamps each submission's virtual arrival with its shard's
// clock at submission time. So that the simulated figures are a function of
// the seed alone and not of host scheduling, the submitter never submits to
// a shard that still has a ticket in flight: it waits, oldest first, until
// that shard is idle. The shard follows the engine's routing of logical
// page l to shard l mod shards; should that routing change, the rounds'
// simulated figures stop repeating and the correctness gate fails.
func roundAsync(b *bench, r *roundResult) error {
	in := b.in.(*pageInput)
	dev, sh, err := b.setup(r)
	if err != nil {
		return err
	}
	s0 := b.snapshot(dev)
	r.lat = b.latencies(len(in.ops))
	type pending struct {
		tk    *geckoftl.Ticket
		shard int
		at    time.Time
	}
	// fifo is a ring of the tickets in flight, oldest at head.
	var (
		fifo       [asyncWindow]pending
		head, size int
		busy       [channels]bool
	)
	// first and last bound each shard's completion instants: shards keep
	// their own virtual clocks, so the makespan is the longest shard's.
	var first, last [channels]time.Duration
	var m meter
	wait := func() {
		p := fifo[head]
		head, size = (head+1)%asyncWindow, size-1
		t0 := time.Now()
		err := p.tk.Wait(b.ctx)
		t1 := time.Now()
		b.tr.leaf(spWait, t0, t1)
		r.lat = append(r.lat, int64(t1.Sub(p.at)))
		busy[p.shard] = false
		if err != nil {
			r.failed++
			r.wrong("ticket outside any crash window failed: %v", err)
			return
		}
		at := p.tk.CompletedAt()
		if first[p.shard] == 0 || at < first[p.shard] {
			first[p.shard] = at
		}
		last[p.shard] = max(last[p.shard], at)
	}
	_ = b.phase(spMeasure, func() error {
		m.resume()
		for _, op := range in.ops {
			s := int(int64(op.lpn) % channels)
			for busy[s] || size == asyncWindow {
				wait()
			}
			t0 := time.Now()
			var tk *geckoftl.Ticket
			var err error
			if op.write {
				tk, err = dev.SubmitWrite(b.ctx, op.lpn)
			} else {
				tk, err = dev.SubmitRead(b.ctx, op.lpn)
			}
			t1 := time.Now()
			if op.write {
				b.tr.leaf(spSubmitWrite, t0, t1)
				sh.write(int64(op.lpn))
			} else {
				b.tr.leaf(spSubmitRead, t0, t1)
				sh.reads++
			}
			if err != nil {
				r.failed++
				r.wrong("submission of page %d failed: %v", op.lpn, err)
				continue
			}
			busy[s] = true
			fifo[(head+size)%asyncWindow] = pending{tk: tk, shard: s, at: t0}
			size++
		}
		for size > 0 {
			wait()
		}
		m.pause()
		return nil
	})
	n := int64(len(in.ops))
	s1 := b.measured(dev, r, s0, n)
	var makespan time.Duration
	for s := range last {
		makespan = max(makespan, last[s]-first[s])
	}
	r.sim.KIOPS = ratio(float64(n), makespan.Seconds()) / 1e3
	q := s1.Queue
	if q.Submitted != n || q.Completed != n || q.Shed != 0 || q.Cancelled != 0 || q.InFlight != 0 {
		r.wrong("Snapshot.Queue submitted/completed/shed/cancelled/in-flight = %d/%d/%d/%d/%d, client submitted %d",
			q.Submitted, q.Completed, q.Shed, q.Cancelled, q.InFlight, n)
	}
	m.finish(r)
	r.incorrect = append(r.incorrect, b.auditLive(dev, sh)...)
	return b.finishProbed(dev, sh, r)
}

// measured records the single-window measured phase of a single-page
// workload: n page ops, one client call each, since snapshot s0. It returns
// the closing snapshot.
func (b *bench) measured(dev *geckoftl.Device, r *roundResult, s0 geckoftl.Snapshot, n int64) geckoftl.Snapshot {
	r.pageOps, r.requests, r.attempted = n, n, r.attempted+n
	s1 := b.snapshot(dev)
	var acc windowAcc
	acc.add(s1)
	acc.into(&r.sim)
	var seg segmentAcc
	seg.add(s0, s1, n)
	seg.into(&r.sim)
	return s1
}

// finishProbed runs the reboot probes of a single-page workload after its
// measured phase, then closes the device. Each probe is a warm Restart,
// then a crash window of uniform writes ended by PowerFail+Recover; both
// are timed and audited.
func (b *bench) finishProbed(dev *geckoftl.Device, sh *shadow, r *roundResult) error {
	in := b.in.(*pageInput)
	var reps []*geckoftl.RecoveryReport
	err := b.phase(spReboot, func() error {
		for _, writes := range in.probes {
			if err := b.restart(dev, sh, r, nil); err != nil {
				return err
			}
			for _, lpn := range writes {
				t0 := time.Now()
				err := dev.Write(b.ctx, lpn)
				b.tr.leaf(spWrite, t0, time.Now())
				if err != nil {
					return fmt.Errorf("probe write: %w", err)
				}
				sh.write(int64(lpn))
			}
			if err := b.crash(dev, sh, r, nil, &reps); err != nil {
				return err
			}
		}
		return nil
	})
	recoveryFigures(&r.sim, reps)
	if err != nil && err != errAuditFailed {
		return err
	}
	return b.close(dev)
}

// extentOp is one extent request of extent-trim-crash.
type extentOp struct {
	start geckoftl.LPN
	kind  spanName // spWriteBatch, spTrimBatch or spReadBatch
}

func genExtent(b *bench) any {
	rng := b.rng(1)
	ops := make([]extentOp, extentOps)
	for i := range ops {
		op := extentOp{start: geckoftl.LPN(rng.Int64N(b.logical - extentPages)), kind: spWriteBatch}
		switch x := rng.Float64(); {
		case x < 0.2:
			op.kind = spTrimBatch
		case x < 0.3:
			op.kind = spReadBatch
		}
		ops[i] = op
	}
	return ops
}

// roundExtent runs the extent-trim-crash stream: one client issuing one
// 64-page batch call per op, flushing every flushEvery ops and rebooting
// every rebootEvery. A reboot whose audit fails is counted, and the stream
// continues on a freshly set-up device.
func roundExtent(b *bench, r *roundResult) error {
	ops := b.in.([]extentOp)
	dev, sh, err := b.setup(r)
	if err != nil {
		return err
	}
	s0 := b.snapshot(dev)
	r.lat = b.latencies(len(ops))
	var (
		acc    windowAcc
		seg    segmentAcc
		reps   []*geckoftl.RecoveryReport
		m      meter
		lpns   = make([]geckoftl.LPN, extentPages)
		crash  bool
		segOps int64
		// cycleStart and mark are the op index and measured time at which
		// the current reboot cycle began.
		cycleStart int
		mark       time.Duration
	)
	// endSegment closes the device segment that started at s0.
	endSegment := func() geckoftl.Snapshot {
		s := b.snapshot(dev)
		seg.add(s0, s, segOps)
		segOps = 0
		return s
	}
	err = b.phase(spMeasure, func() error {
		m.resume()
		for i, op := range ops {
			for j := range lpns {
				lpns[j] = op.start + geckoftl.LPN(j)
			}
			t0 := time.Now()
			var err error
			switch op.kind {
			case spWriteBatch:
				err = dev.WriteBatch(b.ctx, lpns)
			case spTrimBatch:
				err = dev.TrimBatch(b.ctx, lpns)
			default:
				err = dev.ReadBatch(b.ctx, lpns)
			}
			t1 := time.Now()
			b.tr.leaf(op.kind, t0, t1)
			r.lat = append(r.lat, int64(t1.Sub(t0)))
			r.attempted++
			segOps += extentPages
			for _, l := range lpns {
				switch op.kind {
				case spWriteBatch:
					sh.write(int64(l))
				case spTrimBatch:
					sh.trim(int64(l))
				default:
					sh.reads++
				}
			}
			if err != nil {
				r.failed++
				r.wrong("extent op %d at page %d failed outside any crash window: %v", i, op.start, err)
			}
			if (i+1)%flushEvery == 0 {
				if err := b.flush(dev); err != nil {
					return fmt.Errorf("flush: %w", err)
				}
				sh.flushed()
			}
			if (i+1)%rebootEvery != rebootOffset {
				continue
			}
			acc.add(b.snapshot(dev))
			if crash {
				err = b.crash(dev, sh, r, &m, &reps)
			} else {
				err = b.restart(dev, sh, r, &m)
			}
			crash = !crash
			if err == errAuditFailed {
				// Start over on a fresh device; the re-set-up is not
				// measured.
				m.pause()
				endSegment()
				if err := b.close(dev); err != nil {
					return err
				}
				if dev, sh, err = b.setup(r); err != nil {
					return err
				}
				s0 = b.snapshot(dev)
				m.resume()
			} else if err != nil {
				return err
			}
			// Each reboot closes one throughput sample: the extents, flushes
			// and reboot since the previous one.
			now := m.running()
			r.chunks = append(r.chunks, float64((i+1-cycleStart)*extentPages)/(now-mark).Seconds())
			cycleStart, mark = i+1, now
		}
		m.pause()
		return nil
	})
	if err != nil {
		return err
	}
	n := int64(len(ops))
	r.pageOps, r.requests = n*extentPages, n
	s1 := endSegment()
	acc.add(s1)
	acc.into(&r.sim)
	seg.into(&r.sim)
	recoveryFigures(&r.sim, reps)
	m.finish(r)
	r.incorrect = append(r.incorrect, b.auditLive(dev, sh)...)
	return b.close(dev)
}

func checkSyncUniform(b *bench, f *simFigures) string {
	switch {
	case b.logical < 8*cacheEntries:
		return fmt.Sprintf("%d logical pages is less than 8x the %d cache entries", b.logical, cacheEntries)
	case f.QueueSubmitted != 0:
		return fmt.Sprintf("%d ops went through the submission queue", f.QueueSubmitted)
	case f.TranslationWA < translationFloor:
		return fmt.Sprintf("translation write-amplification %.4f is not well above zero", f.TranslationWA)
	}
	return ""
}

func checkAsyncZipf(b *bench, f *simFigures) string {
	switch {
	case zipfHotSet > cacheEntries:
		return fmt.Sprintf("hot set of %d pages exceeds the %d cache entries", zipfHotSet, cacheEntries)
	case f.QueueSubmitted != asyncOps:
		return fmt.Sprintf("%d of %d page ops went through tickets", f.QueueSubmitted, asyncOps)
	case f.TranslationWA >= translationFloor:
		return fmt.Sprintf("translation write-amplification %.4f is not near zero", f.TranslationWA)
	}
	return ""
}

func checkExtent(b *bench, f *simFigures) string {
	ops := b.in.([]extentOp)
	switch {
	case !slices.ContainsFunc(ops, func(op extentOp) bool { return op.kind == spTrimBatch }):
		return "the stream holds no trims"
	case f.Restarts == 0 || f.Recoveries == 0:
		return fmt.Sprintf("%d warm restarts and %d recoveries ran; want at least one of each", f.Restarts, f.Recoveries)
	}
	return ""
}
