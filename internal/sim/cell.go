package sim

import (
	"context"
	"fmt"

	"geckoftl/internal/flash"
	"geckoftl/internal/ftl"
	"geckoftl/internal/model"
	"geckoftl/internal/workload"
)

// cell is one grid point of an engine sweep: a device, the FTL its shards
// run, and the workload that warms and measures it. Every engine sweep is a
// grid of cells; warm builds a cell and brings it to steady state (two full
// overwrites of the logical space), so the recipe device -> engine ->
// warm-up -> measured window lives here alone.
type cell struct {
	// spec is the device, with Channels and Blocks already set.
	spec DeviceSpec
	// opts configures every shard (one per channel). Its CacheEntries is the
	// engine-wide budget, divided evenly across the shards.
	opts ftl.Options
	// gen builds the workload for the engine's logical page count.
	gen func(logicalPages int64) (workload.Generator, error)
	// batch is the number of operations per engine batch; zero or less
	// means perDie operations per die.
	batch, perDie int
	// mergeReserve scales the garbage-collection reserve with the shard
	// size: a Logarithmic Gecko merge grows with the shard's capacity and
	// must fit inside the reserve, which the large single-shard points of
	// the capacity dimensions would otherwise exhaust mid-merge.
	mergeReserve bool
}

// named is the cell workload constructor for a workload.ByName generator.
func named(name string, seed int64) func(int64) (workload.Generator, error) {
	return func(logicalPages int64) (workload.Generator, error) {
		return workload.ByName(name, logicalPages, seed)
	}
}

// warmCell is a cell's device and engine after warm-up.
type warmCell struct {
	dev   *flash.Device
	eng   *ftl.Engine
	cfg   flash.Config
	gen   workload.Generator
	batch int
	// warmup is the number of logical writes the warm-up issued.
	warmup int64
}

// warm builds the cell's device and engine and pumps the warm-up writes, so
// that whatever is measured next runs in steady-state garbage collection.
func (c cell) warm() (*warmCell, error) {
	channels := c.spec.Channels
	if err := checkChannels(channels); err != nil {
		return nil, err
	}
	dev, err := c.spec.NewDevice()
	if err != nil {
		return nil, err
	}
	opts := c.opts
	opts.CacheEntries /= channels
	if reserve := 4 + c.spec.Blocks/channels/128; c.mergeReserve && reserve > opts.GCFreeBlockReserve {
		opts.GCFreeBlockReserve = reserve
	}
	eng, err := ftl.NewEngine(dev, opts, 0)
	if err != nil {
		return nil, err
	}
	gen, err := c.gen(eng.LogicalPages())
	if err != nil {
		return nil, err
	}
	w := &warmCell{dev: dev, eng: eng, cfg: dev.Config(), gen: gen, batch: c.batch, warmup: 2 * eng.LogicalPages()}
	if w.batch <= 0 {
		w.batch = c.perDie * w.cfg.Dies()
	}
	if err := w.pump(w.warmup); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

// checkChannels rejects a channel count below one. Sweeps check their whole
// list before running any point; warm checks again for its own cell.
func checkChannels(channels ...int) error {
	for _, c := range channels {
		if c < 1 {
			return fmt.Errorf("channel count %d must be at least 1", c)
		}
	}
	return nil
}

// pump dispatches batches until n logical writes have been served. A
// batch's trims go to TrimBatch before its writes go to WriteBatch and do
// not count toward n; reads in the stream are dropped.
func (w *warmCell) pump(n int64) error {
	ctx := context.Background()
	for done := int64(0); done < n; {
		_, writes, trims := workload.SplitBatch(workload.TakeBatch(w.gen, w.batch))
		if len(trims) > 0 {
			if err := w.eng.TrimBatch(ctx, trims); err != nil {
				return err
			}
		}
		if len(writes) == 0 {
			continue
		}
		if err := w.eng.WriteBatch(ctx, writes); err != nil {
			return err
		}
		done += int64(len(writes))
	}
	return nil
}

// mark is the start of a measured window.
type mark struct {
	counters flash.Counters
	ops      ftl.Stats
}

// window is what a warmed cell did between a mark and the end of its
// measurement.
type window struct {
	// counters is the window's device IO, ops its engine counters
	// (ops.LogicalWrites and ops.LogicalTrims count what it served).
	counters flash.Counters
	ops      ftl.Stats
	// latency holds the window's distributions alone (its Ops field is
	// cumulative; use ops).
	latency ftl.EngineStats
	// wa and its per-purpose split, per logical write (see waByPurpose).
	wa, userWA, translationWA, validityWA float64
}

// mark empties the latency histograms and snapshots the counters.
func (w *warmCell) mark() mark {
	w.eng.ResetLatencyStats()
	return mark{counters: w.dev.Counters(), ops: w.eng.Stats()}
}

// since closes the window opened by m.
func (w *warmCell) since(m mark) window {
	win := window{
		counters: w.dev.Counters().Sub(m.counters),
		ops:      w.eng.Stats().Sub(m.ops),
		latency:  w.eng.LatencyStats(),
	}
	win.wa, win.userWA, win.translationWA, win.validityWA = waByPurpose(win.counters, win.ops.LogicalWrites, w.cfg.Latency.WriteReadRatio())
	return win
}

// measure pumps a window of at least writes logical writes and reports it.
func (w *warmCell) measure(writes int64) (window, error) {
	m := w.mark()
	if err := w.pump(writes); err != nil {
		return window{}, fmt.Errorf("measurement: %w", err)
	}
	return w.since(m), nil
}

// waByPurpose computes write-amplification and breaks it down by purpose as
// in Figure 13 bottom: user data (application writes plus GC migrations of
// user data), translation metadata and page-validity metadata.
func waByPurpose(c flash.Counters, writes int64, delta float64) (total, user, translation, validity float64) {
	return c.WriteAmplification(writes, delta),
		c.PurposeWriteAmplification(flash.PurposeUserWrite, writes, delta) +
			c.PurposeWriteAmplification(flash.PurposeGCMigration, writes, delta),
		c.PurposeWriteAmplification(flash.PurposeTranslation, writes, delta),
		c.PurposeWriteAmplification(flash.PurposePageValidity, writes, delta)
}

// MinSweepShardBlocks is the fewest blocks an engine sweep allows per shard.
// Below roughly this size a GeckoFTL shard's fixed overheads (active blocks,
// GC reserve, Gecko runs) eat the over-provisioned space and garbage
// collection cannot converge.
const MinSweepShardBlocks = 32

// minSweepShardCache is the fewest mapping-cache entries an engine sweep
// allows per shard.
const minSweepShardCache = 16

// fitShards grows the device and the cache budget so that an engine
// channels wide keeps workable shards: shards that are too small live-lock
// their garbage collector (every victim stays nearly fully valid), and
// dividing the budget must leave a workable per-shard cache. A sweep grows
// its scale once, for its widest point, and every point uses the grown
// values, which keeps the points comparable.
func (s ExperimentScale) fitShards(channels int) ExperimentScale {
	s.Device.Blocks = max(s.Device.Blocks, MinSweepShardBlocks*channels)
	s.CacheEntries = max(s.CacheEntries, minSweepShardCache*channels)
	return s
}

// modelParams is the analytic model's default parameter set resized to a
// simulated device and an engine-wide cache budget.
func modelParams(cfg flash.Config, cacheEntries int) model.Parameters {
	mp := model.Default()
	mp.Blocks = int64(cfg.Blocks)
	mp.PagesPerBlock = int64(cfg.PagesPerBlock)
	mp.PageSize = int64(cfg.PageSize)
	mp.OverProvision = cfg.OverProvision
	mp.CacheEntries = int64(cacheEntries)
	mp.Latency = cfg.Latency
	return mp
}

// ftlScheme is one of the paper's five FTL configurations.
type ftlScheme struct {
	name string
	opts func(cacheEntries int) ftl.Options
	kind model.FTLKind
}

// ftlSchemes lists the five FTLs in the paper's order.
func ftlSchemes() []ftlScheme {
	return []ftlScheme{
		{"DFTL", ftl.DFTLOptions, model.DFTL},
		{"LazyFTL", ftl.LazyFTLOptions, model.LazyFTL},
		{"uFTL", ftl.MuFTLOptions, model.MuFTL},
		{"IB-FTL", ftl.IBFTLOptions, model.IBFTL},
		{"GeckoFTL", ftl.GeckoFTLOptions, model.GeckoFTL},
	}
}

// schemeNamed looks an FTL up in ftlSchemes.
func schemeNamed(name string) (ftlScheme, error) {
	for _, s := range ftlSchemes() {
		if s.name == name {
			return s, nil
		}
	}
	return ftlScheme{}, fmt.Errorf("sim: unknown FTL %q", name)
}
