package main

import (
	"fmt"
	"slices"
	"time"

	"geckoftl"
)

// windowAcc aggregates Snapshot measurement windows. A workload with one
// window reports it as is; extent-trim-crash, whose reboots each start a
// new window, reports write-amplification weighted by WindowWrites and each
// latency percentile weighted by its distribution's count.
type windowAcc struct {
	writes, wa, user, trans, val float64
	wN, wMean, wP50, wP999       float64
	rN, rMean, rP999             float64
	sN, sMean, sP999             float64
	maxStall                     time.Duration
	last                         geckoftl.Snapshot
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func (a *windowAcc) add(s geckoftl.Snapshot) {
	w := float64(s.WindowWrites)
	a.writes += w
	a.wa += w * s.WriteAmplification
	a.user += w * s.UserWA
	a.trans += w * s.TranslationWA
	a.val += w * s.ValidityWA
	n := float64(s.WriteLatency.Count)
	a.wN += n
	a.wMean += n * us(s.WriteLatency.Mean)
	a.wP50 += n * us(s.WriteLatency.P50)
	a.wP999 += n * us(s.WriteLatency.P999)
	n = float64(s.ReadLatency.Count)
	a.rN += n
	a.rMean += n * us(s.ReadLatency.Mean)
	a.rP999 += n * us(s.ReadLatency.P999)
	n = float64(s.GCStalledWrites.Count)
	a.sN += n
	a.sMean += n * us(s.GCStalledWrites.Mean)
	a.sP999 += n * us(s.GCStalledWrites.P999)
	a.maxStall = max(a.maxStall, s.GC.MaxStall)
	a.last = s
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

func (a *windowAcc) into(f *simFigures) {
	f.WA = ratio(a.wa, a.writes)
	f.UserWA = ratio(a.user, a.writes)
	f.TranslationWA = ratio(a.trans, a.writes)
	f.ValidityWA = ratio(a.val, a.writes)
	f.WriteMeanUS = ratio(a.wMean, a.wN)
	f.ReadMeanUS = ratio(a.rMean, a.rN)
	f.StallMeanUS = ratio(a.sMean, a.sN)
	f.WriteP50US = ratio(a.wP50, a.wN)
	f.WriteP999US = ratio(a.wP999, a.wN)
	f.ReadP999US = ratio(a.rP999, a.rN)
	f.StalledP999US = ratio(a.sP999, a.sN)
	f.MaxStall = a.maxStall
	f.RAMBytes = a.last.RAMBytes
	q := a.last.Queue
	f.QueueSubmitted, f.QueueDelayed, f.QueueShed = q.Submitted, q.Delayed, q.Shed
	f.QueueP999US = us(q.Latency.P999)
}

// segmentAcc sums the cumulative counters over device segments: from the
// end of one device's set-up to the end of its use.
type segmentAcc struct {
	writes, migrations, uipSkips float64
	simTime                      time.Duration
	pageOps                      float64
}

func (a *segmentAcc) add(s0, s1 geckoftl.Snapshot, pageOps int64) {
	a.writes += float64(s1.Ops.Writes - s0.Ops.Writes)
	a.migrations += float64(s1.GC.Migrations - s0.GC.Migrations)
	a.uipSkips += float64(s1.GC.UIPSkips - s0.GC.UIPSkips)
	a.simTime += s1.SimulatedTime - s0.SimulatedTime
	a.pageOps += float64(pageOps)
}

// into sets the segment figures. KIOPS is page ops per second of device
// time averaged over the dies; a workload with a better-defined virtual
// makespan overrides it.
func (a *segmentAcc) into(f *simFigures) {
	f.MigrationsPerWrite = ratio(a.migrations, a.writes)
	f.UIPSkips = int64(a.uipSkips)
	f.KIOPS = ratio(a.pageOps*channels*diesPerChannel, a.simTime.Seconds()) / 1e3
}

// recoveryFigures sets the medians of the round's Recover reports.
func recoveryFigures(f *simFigures, reps []*geckoftl.RecoveryReport) {
	if len(reps) == 0 {
		return
	}
	f.RecoveryWall = medianOf(reps, func(r *geckoftl.RecoveryReport) time.Duration { return r.WallClock })
	f.RecSpareReads = medianOf(reps, func(r *geckoftl.RecoveryReport) int64 { return r.SpareReads })
	f.RecPageReads = medianOf(reps, func(r *geckoftl.RecoveryReport) int64 { return r.PageReads })
	f.RecEntries = medianOf(reps, func(r *geckoftl.RecoveryReport) int { return r.RecoveredMappingEntries })
	f.RecSpeedup = medianOf(reps, func(r *geckoftl.RecoveryReport) float64 { return r.Speedup() })
}

// medianOf returns the median of key over xs (the upper median for an even
// count); zero for none.
func medianOf[T any, K int | int64 | uint64 | float64 | time.Duration](xs []T, key func(T) K) K {
	if len(xs) == 0 {
		return 0
	}
	ks := make([]K, len(xs))
	for i, x := range xs {
		ks[i] = key(x)
	}
	slices.Sort(ks)
	return ks[len(ks)/2]
}

func ident[K any](k K) K { return k }

// quartiles returns the first, second and third quartile of xs (nearest
// rank).
func quartiles(xs []float64) [3]float64 {
	s := slices.Sorted(slices.Values(xs))
	n := len(s) - 1
	return [3]float64{s[n/4], s[n/2], s[3*n/4]}
}

// percentile returns the p-th percentile (nearest rank) of sorted xs.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)))
	return float64(sorted[min(i, len(sorted)-1)])
}

// opsPerSec is the median host throughput sample of rounds.
func opsPerSec(rounds []*roundResult) float64 {
	return medianOf(chunks(rounds), ident)
}

func chunks(rounds []*roundResult) []float64 {
	var all []float64
	for _, r := range rounds {
		all = append(all, r.chunks...)
	}
	return all
}

// endToEnd sets the end-to-end metrics of untraced rounds: host figures as
// medians over rounds (or over every set-up, reboot or throughput sample),
// simulated figures from the first round (all rounds agree).
func endToEnd(m map[string]metric, rounds []*roundResult) {
	var setups, restarts, recovers []time.Duration
	var mallocs, pageOps, requests float64
	for _, r := range rounds {
		setups = append(setups, r.setups...)
		restarts = append(restarts, r.restarts...)
		recovers = append(recovers, r.recovers...)
		requests += float64(r.requests)
		mallocs += float64(r.mallocs)
		pageOps += float64(r.pageOps)
	}
	sim := rounds[0].sim
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	set("setup_s", "s", medianOf(setups, ident).Seconds())
	set("host_ops_per_s", "ops/s", opsPerSec(rounds))
	set("host_op_p50_us", "us", medianOf(rounds, func(r *roundResult) float64 { return r.p50 })/1e3)
	set("host_op_p90_us", "us", medianOf(rounds, func(r *roundResult) float64 { return r.p90 })/1e3)
	set("host_allocs_per_op", "allocs/op", mallocs/pageOps)
	set("host_live_heap_mb", "MiB", float64(medianOf(rounds, func(r *roundResult) uint64 { return r.liveHeap }))/(1<<20))
	set("host_recover_ms", "ms", float64(medianOf(recovers, ident))/1e6)
	set("host_restart_ms", "ms", float64(medianOf(restarts, ident))/1e6)
	set("wa", "ratio", sim.WA)
	set("sim_write_mean_us", "us", sim.WriteMeanUS)
	set("sim_stall_mean_us", "us", sim.StallMeanUS)
	set("sim_kiops", "kops/s", sim.KIOPS)
	set("sim_recovery_ms", "ms", float64(sim.RecoveryWall)/1e6)
	set("ram_kb", "KiB", float64(sim.RAMBytes)/1024)
	fmt.Printf("host latency samples: %.0f requests over %d rounds\n", requests, len(rounds))
	if c := chunks(rounds); len(c) > 1 {
		q := quartiles(c)
		fmt.Printf("host throughput samples: %d, quartiles %.0f / %.0f / %.0f ops/s\n", len(c), q[0], q[1], q[2])
	}
}

// perLayer sets the per-layer metrics of a traced run: counters from the
// simulated figures, host figures from the traced rounds' spans and CPU
// profile, and the tracing overhead against the untraced rounds.
func perLayer(m map[string]metric, b *bench, tr *tracer, plain, traced []*roundResult) error {
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	shares, samples, err := cpuShares(tr.profilePath(), b.w.name, spMeasure.String())
	if err != nil {
		return fmt.Errorf("CPU profile: %w", err)
	}
	for _, bucket := range cpuBuckets {
		set("cpu."+bucket, "share", shares[bucket])
	}
	set("cpu.samples", "count", float64(samples))

	sim := plain[0].sim
	set("wa.user", "ratio", sim.UserWA)
	set("wa.translation", "ratio", sim.TranslationWA)
	set("wa.validity", "ratio", sim.ValidityWA)
	set("sim.write_p50_us", "us", sim.WriteP50US)
	set("sim.write_p999_us", "us", sim.WriteP999US)
	set("sim.read_p999_us", "us", sim.ReadP999US)
	set("sim.read_mean_us", "us", sim.ReadMeanUS)
	set("gc.migrations_per_write", "ratio", sim.MigrationsPerWrite)
	set("gc.uip_skips", "count", float64(sim.UIPSkips))
	set("gc.max_stall_us", "us", us(sim.MaxStall))
	set("gc.stalled_write_p999_us", "us", sim.StalledP999US)
	set("queue.sim_latency_p999_us", "us", sim.QueueP999US)
	set("queue.delayed", "count", float64(sim.QueueDelayed))
	set("queue.shed", "count", float64(sim.QueueShed))
	set("recover.spare_reads", "count", float64(sim.RecSpareReads))
	set("recover.page_reads", "count", float64(sim.RecPageReads))
	set("recover.entries", "count", float64(sim.RecEntries))
	set("recover.speedup", "ratio", sim.RecSpeedup)
	set("recover.audit_failures", "count", float64(sim.AuditFailures))
	set("checkpoint.kb", "KiB", float64(sim.CheckpointBytes)/1024)

	set("queue.submit_ns", "ns", max(tr.callMedian(spSubmitWrite), tr.callMedian(spSubmitRead)))
	set("span.write_p50_us", "us", tr.callMedian(spWrite)/1e3)
	set("span.read_p50_us", "us", tr.callMedian(spRead)/1e3)
	set("span.ticket_wait_p50_us", "us", tr.callMedian(spWait)/1e3)
	set("span.write_batch_p50_us", "us", tr.callMedian(spWriteBatch)/1e3)
	set("span.trim_batch_p50_us", "us", tr.callMedian(spTrimBatch)/1e3)
	set("span.flush_p50_us", "us", tr.callMedian(spFlush)/1e3)

	var gcs, ops float64
	for _, r := range plain {
		gcs += float64(r.gcCycles)
		ops += float64(r.pageOps)
	}
	set("gc_cycles_per_mop", "count/Mop", gcs/ops*1e6)
	set("host.op_p99_us", "us", medianOf(plain, func(r *roundResult) float64 { return r.p99 })/1e3)
	set("trace.overhead", "ratio", opsPerSec(plain)/opsPerSec(traced))
	return nil
}
