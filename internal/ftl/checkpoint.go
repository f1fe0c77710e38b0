package ftl

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"

	"geckoftl/internal/checkpoint"
	"geckoftl/internal/flash"
	"geckoftl/internal/gecko"
	"geckoftl/internal/mapcache"
)

// Checkpoint section kinds. A checkpoint file holds exactly one engine
// section followed by, for each shard in index order, one section of each
// per-shard kind in the order listed here. The shard index lives in the
// upper bits of the section ID.
const (
	sectionEngine uint32 = 0x01

	sectionShardBlocks uint32 = 0x10
	sectionShardGMD    uint32 = 0x11
	sectionShardCache  uint32 = 0x12
	sectionShardGecko  uint32 = 0x13
	sectionShardHeat   uint32 = 0x14
)

// shardKinds lists the per-shard section kinds in their required file order.
var shardKinds = [...]uint32{sectionShardBlocks, sectionShardGMD, sectionShardCache, sectionShardGecko, sectionShardHeat}

// shardSectionID composes a per-shard section ID from a kind and a shard
// index.
func shardSectionID(kind uint32, shard int) uint32 { return kind | uint32(shard)<<8 }

// Minimum encoded bytes per record of each repeated sequence; Reader.Count
// uses them to bound slice pre-allocation by the input size.
const (
	blockRecordBytes   = 30 // flags + group + writePointer + valid + firstWriteSeq + lastWriteSeq + eraseCount
	gmdRecordBytes     = 8  // translation-page location
	cacheRecordBytes   = 17 // lpn + ppn + flags
	runHeaderBytes     = 24 // id + createSeq + level + page count
	runPageRecordBytes = 16 // ppn + packed min/max keys
	heatRecordBytes    = 12 // float32 heat + last-touch clock
)

// ErrCheckpointUnsupported reports that this engine configuration cannot be
// checkpointed. Warm restart is a GeckoFTL feature: battery-backed FTLs
// flush at failure time and the comparison schemes keep validity state this
// format does not cover, so they always start cold.
var ErrCheckpointUnsupported = errors.New("ftl: checkpointing requires the GeckoFTL scheme without battery")

// shardCheckpoint is the decoded RAM state of one shard.
type shardCheckpoint struct {
	blocks  []blockInfo
	free    []flash.BlockID
	active  [numFrontiers]flash.BlockID
	lastSeq uint64

	gmd []flash.PPN

	// cacheLRUFirst holds the mapping-cache entries ordered least recently
	// used first, so re-inserting them in order reproduces the LRU order.
	cacheLRUFirst []mapcache.Entry

	runs []gecko.RunExport

	heatEnabled bool
	heatClock   int64
	heat        []float32
	heatLast    []int64
}

// engineCheckpoint is the decoded engine-wide state.
type engineCheckpoint struct {
	fingerprint    uint64
	shards         int
	globalWriteSeq uint64
	logicalPages   int64
	perShard       []*shardCheckpoint
}

// checkpointFingerprint hashes the configuration facets that determine the
// meaning of checkpointed state. A checkpoint taken under one configuration
// must never be imported under another: geometry or option skew changes
// what every index in the file refers to.
func (e *Engine) checkpointFingerprint() uint64 {
	cfg := e.dev.Config()
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%d|%d|%d|%d|%d|%d|%d|%t|%t|%d|%g",
		cfg.Blocks, cfg.PagesPerBlock, cfg.PageSize, cfg.Channels, cfg.DiesPerChannel,
		len(e.shards), e.opts.Scheme, e.opts.CacheEntries,
		e.opts.HotColdSeparation, e.opts.WearAwareAllocation,
		e.opts.HeatHalfLife, e.opts.HeatThreshold)
	return h.Sum64()
}

// ExportCheckpoint snapshots the engine's complete RAM metadata as a
// checkpoint file. The caller should Flush first so the snapshot describes
// durable state; every shard lock is held for the duration, so the snapshot
// is a consistent cut even with concurrent callers. Only battery-less
// GeckoFTL engines support checkpointing (ErrCheckpointUnsupported
// otherwise), and a power-failed engine cannot be exported.
func (e *Engine) ExportCheckpoint() (*checkpoint.File, error) {
	e.powerMu.Lock()
	defer e.powerMu.Unlock()
	if e.failed {
		return nil, fmt.Errorf("ftl: checkpoint export on a power-failed engine: %w", flash.ErrPowerFailed)
	}
	if e.opts.Scheme != SchemeGecko || e.opts.Battery {
		return nil, ErrCheckpointUnsupported
	}
	for _, sh := range e.shards {
		sh.mu.Lock()
		defer sh.mu.Unlock()
	}

	file := &checkpoint.File{Version: checkpoint.Version}
	var w checkpoint.Writer
	w.U64(e.checkpointFingerprint())
	w.U32(uint32(len(e.shards)))
	w.U64(e.dev.GlobalWriteSeq())
	w.I64(e.logicalPages)
	file.Sections = append(file.Sections, checkpoint.Section{ID: sectionEngine, Payload: w.Bytes()})

	for i, sh := range e.shards {
		file.Sections = append(file.Sections, sh.ftl.exportShardSections(i)...)
	}
	return file, nil
}

// exportShardSections encodes one shard's RAM state into its per-shard
// sections. Callers hold the shard lock.
func (f *FTL) exportShardSections(shard int) []checkpoint.Section {
	sections := make([]checkpoint.Section, 0, len(shardKinds))

	var blocks checkpoint.Writer
	blocks.U32(uint32(len(f.bm.blocks)))
	for i := range f.bm.blocks {
		b := &f.bm.blocks[i]
		var flags uint8
		if b.allocated {
			flags |= 1
		}
		if b.retired {
			flags |= 2
		}
		blocks.U8(flags)
		blocks.U8(uint8(b.group))
		blocks.U32(uint32(b.writePointer))
		blocks.U32(uint32(b.valid))
		blocks.U64(b.firstWriteSeq)
		blocks.U64(b.lastWriteSeq)
		blocks.U32(uint32(b.eraseCount))
	}
	blocks.U32(uint32(len(f.bm.free)))
	for _, id := range f.bm.free {
		blocks.U32(uint32(id))
	}
	blocks.U8(uint8(len(f.bm.active)))
	for _, id := range f.bm.active {
		blocks.I64(int64(id))
	}
	blocks.U64(f.bm.lastSeq)
	sections = append(sections, checkpoint.Section{ID: shardSectionID(sectionShardBlocks, shard), Payload: blocks.Bytes()})

	var gmd checkpoint.Writer
	gmd.U32(uint32(f.table.Pages()))
	for tp := 0; tp < f.table.Pages(); tp++ {
		gmd.I64(int64(f.table.GMDLocation(tp)))
	}
	sections = append(sections, checkpoint.Section{ID: shardSectionID(sectionShardGMD, shard), Payload: gmd.Bytes()})

	var cache checkpoint.Writer
	entries := f.cache.Entries() // most recently used first
	cache.U32(uint32(len(entries)))
	for i := len(entries) - 1; i >= 0; i-- { // store LRU-first
		e := entries[i]
		cache.I64(int64(e.Logical))
		cache.I64(int64(e.Physical))
		var flags uint8
		if e.Dirty {
			flags |= 1
		}
		if e.UIP {
			flags |= 2
		}
		if e.Uncertain {
			flags |= 4
		}
		if e.Trimmed {
			flags |= 8
		}
		cache.U8(flags)
	}
	sections = append(sections, checkpoint.Section{ID: shardSectionID(sectionShardCache, shard), Payload: cache.Bytes()})

	var lg checkpoint.Writer
	runs := f.lg.ExportDirectories()
	lg.U32(uint32(len(runs)))
	for _, r := range runs {
		lg.U64(r.ID)
		lg.U64(r.CreateSeq)
		lg.U32(uint32(r.Level))
		lg.U32(uint32(len(r.Pages)))
		for _, p := range r.Pages {
			lg.I64(p.PPN)
			lg.U32(p.MinKey)
			lg.U32(p.MaxKey)
		}
	}
	sections = append(sections, checkpoint.Section{ID: shardSectionID(sectionShardGecko, shard), Payload: lg.Bytes()})

	var heat checkpoint.Writer
	heat.Bool(f.heat.enabled)
	if f.heat.enabled {
		heat.I64(f.heat.clock)
		heat.U32(uint32(len(f.heat.heat)))
		for i := range f.heat.heat {
			heat.U32(math.Float32bits(f.heat.heat[i]))
			heat.I64(f.heat.last[i])
		}
	}
	sections = append(sections, checkpoint.Section{ID: shardSectionID(sectionShardHeat, shard), Payload: heat.Bytes()})

	return sections
}

// decodeCheckpoint parses a checkpoint file's sections into engine state,
// enforcing the fixed section order. Structural damage (wrong counts, bad
// framing, short payloads) wraps checkpoint.ErrInvalid.
func decodeCheckpoint(file *checkpoint.File) (*engineCheckpoint, error) {
	if len(file.Sections) == 0 || file.Sections[0].ID != sectionEngine {
		return nil, fmt.Errorf("%w: first section is not the engine header", checkpoint.ErrInvalid)
	}
	r := checkpoint.NewReader(file.Sections[0].Payload)
	ec := &engineCheckpoint{
		fingerprint:    r.U64(),
		shards:         int(r.U32()),
		globalWriteSeq: r.U64(),
		logicalPages:   r.I64(),
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("engine section: %w", err)
	}
	if ec.shards < 1 || ec.shards > 1<<16 {
		return nil, fmt.Errorf("%w: implausible shard count %d", checkpoint.ErrInvalid, ec.shards)
	}
	if want := 1 + ec.shards*len(shardKinds); len(file.Sections) != want {
		return nil, fmt.Errorf("%w: %d sections for %d shards, want %d", checkpoint.ErrInvalid, len(file.Sections), ec.shards, want)
	}
	for shard := 0; shard < ec.shards; shard++ {
		sc := &shardCheckpoint{}
		for k, kind := range shardKinds {
			s := file.Sections[1+shard*len(shardKinds)+k]
			if s.ID != shardSectionID(kind, shard) {
				return nil, fmt.Errorf("%w: section %#x out of order (want kind %#x of shard %d)", checkpoint.ErrInvalid, s.ID, kind, shard)
			}
			if err := sc.decodeSection(kind, s.Payload); err != nil {
				return nil, fmt.Errorf("shard %d section %#x: %w", shard, kind, err)
			}
		}
		ec.perShard = append(ec.perShard, sc)
	}
	return ec, nil
}

// decodeSection parses one per-shard section payload.
func (sc *shardCheckpoint) decodeSection(kind uint32, payload []byte) error {
	r := checkpoint.NewReader(payload)
	switch kind {
	case sectionShardBlocks:
		n := r.Count(blockRecordBytes)
		sc.blocks = make([]blockInfo, n)
		for i := range sc.blocks {
			b := &sc.blocks[i]
			flags := r.U8()
			if flags&^uint8(3) != 0 {
				return fmt.Errorf("%w: unknown block flags %#x", checkpoint.ErrInvalid, flags)
			}
			b.allocated = flags&1 != 0
			b.retired = flags&2 != 0
			b.group = Group(r.U8())
			b.writePointer = int(r.U32())
			b.valid = int(r.U32())
			b.firstWriteSeq = r.U64()
			b.lastWriteSeq = r.U64()
			b.eraseCount = int(r.U32())
		}
		nFree := r.Count(4)
		sc.free = make([]flash.BlockID, nFree)
		for i := range sc.free {
			sc.free[i] = flash.BlockID(r.U32())
		}
		if got := int(r.U8()); got != numFrontiers {
			return fmt.Errorf("%w: %d write frontiers, want %d", checkpoint.ErrInvalid, got, numFrontiers)
		}
		for i := range sc.active {
			sc.active[i] = flash.BlockID(r.I64())
		}
		sc.lastSeq = r.U64()
	case sectionShardGMD:
		n := r.Count(gmdRecordBytes)
		sc.gmd = make([]flash.PPN, n)
		for i := range sc.gmd {
			sc.gmd[i] = flash.PPN(r.I64())
		}
	case sectionShardCache:
		n := r.Count(cacheRecordBytes)
		sc.cacheLRUFirst = make([]mapcache.Entry, n)
		for i := range sc.cacheLRUFirst {
			e := &sc.cacheLRUFirst[i]
			e.Logical = flash.LPN(r.I64())
			e.Physical = flash.PPN(r.I64())
			flags := r.U8()
			if flags&^uint8(15) != 0 {
				return fmt.Errorf("%w: unknown cache-entry flags %#x", checkpoint.ErrInvalid, flags)
			}
			e.Dirty = flags&1 != 0
			e.UIP = flags&2 != 0
			e.Uncertain = flags&4 != 0
			e.Trimmed = flags&8 != 0
		}
	case sectionShardGecko:
		n := r.Count(runHeaderBytes)
		sc.runs = make([]gecko.RunExport, n)
		for i := range sc.runs {
			run := &sc.runs[i]
			run.ID = r.U64()
			run.CreateSeq = r.U64()
			run.Level = int(r.U32())
			pages := r.Count(runPageRecordBytes)
			run.Pages = make([]gecko.RunPageExport, pages)
			for j := range run.Pages {
				run.Pages[j] = gecko.RunPageExport{PPN: r.I64(), MinKey: r.U32(), MaxKey: r.U32()}
			}
		}
	case sectionShardHeat:
		sc.heatEnabled = r.Bool()
		if sc.heatEnabled {
			sc.heatClock = r.I64()
			n := r.Count(heatRecordBytes)
			sc.heat = make([]float32, n)
			sc.heatLast = make([]int64, n)
			for i := range sc.heat {
				sc.heat[i] = math.Float32frombits(r.U32())
				sc.heatLast[i] = r.I64()
			}
		}
	default:
		return fmt.Errorf("%w: unknown section kind %#x", checkpoint.ErrInvalid, kind)
	}
	return r.Done()
}

// verifyEngineCheckpoint checks the engine-level facts of a decoded
// checkpoint against this engine and, crucially, against device truth: the
// global write sequence must match exactly, or the checkpoint describes a
// different moment of the flash than the one in front of us.
func (e *Engine) verifyEngineCheckpoint(ec *engineCheckpoint) error {
	if got, want := ec.fingerprint, e.checkpointFingerprint(); got != want {
		return fmt.Errorf("%w: configuration fingerprint %#x, this engine is %#x", checkpoint.ErrInvalid, got, want)
	}
	if ec.shards != len(e.shards) {
		return fmt.Errorf("%w: %d shards, this engine has %d", checkpoint.ErrInvalid, ec.shards, len(e.shards))
	}
	if ec.logicalPages != e.logicalPages {
		return fmt.Errorf("%w: %d logical pages, this engine has %d", checkpoint.ErrInvalid, ec.logicalPages, e.logicalPages)
	}
	if got, want := ec.globalWriteSeq, e.dev.GlobalWriteSeq(); got != want {
		return fmt.Errorf("%w: stale checkpoint (content sequence %d, device is at %d)", checkpoint.ErrInvalid, got, want)
	}
	return nil
}

// verifyShardCheckpoint checks one shard's decoded state against the
// shard's configuration and its partition's device truth (write pointers,
// erase counters, the bad-block table — all controller bookkeeping, no
// flash IO). The shard's partition must be powered; callers hold the shard
// lock. Nothing is mutated.
func (f *FTL) verifyShardCheckpoint(sc *shardCheckpoint) error {
	if len(sc.blocks) != f.cfg.Blocks {
		return fmt.Errorf("%w: %d blocks, shard has %d", checkpoint.ErrInvalid, len(sc.blocks), f.cfg.Blocks)
	}
	inFree := make([]bool, f.cfg.Blocks)
	for _, id := range sc.free {
		if id < 0 || int(id) >= f.cfg.Blocks {
			return fmt.Errorf("%w: free block %d out of range", checkpoint.ErrInvalid, id)
		}
		if inFree[id] {
			return fmt.Errorf("%w: free pool repeats block %d", checkpoint.ErrInvalid, id)
		}
		inFree[id] = true
	}
	for id := range sc.blocks {
		b := &sc.blocks[id]
		block := flash.BlockID(id)
		if int(b.group) >= int(numGroups) {
			return fmt.Errorf("%w: block %d in unknown group %d", checkpoint.ErrInvalid, id, b.group)
		}
		if b.writePointer < 0 || b.writePointer > f.cfg.PagesPerBlock {
			return fmt.Errorf("%w: block %d write pointer %d of %d pages", checkpoint.ErrInvalid, id, b.writePointer, f.cfg.PagesPerBlock)
		}
		if b.valid < 0 || b.valid > f.cfg.PagesPerBlock {
			return fmt.Errorf("%w: block %d validity count %d of %d pages", checkpoint.ErrInvalid, id, b.valid, f.cfg.PagesPerBlock)
		}
		if b.allocated && inFree[id] {
			return fmt.Errorf("%w: block %d both allocated and free", checkpoint.ErrInvalid, id)
		}
		if b.retired && inFree[id] {
			return fmt.Errorf("%w: block %d both retired and free", checkpoint.ErrInvalid, id)
		}
		bad, err := f.dev.BadBlock(block)
		if err != nil {
			return fmt.Errorf("ftl: checkpoint verification: %w", err)
		}
		if b.retired != bad {
			return fmt.Errorf("%w: block %d retirement disagrees with the device bad-block table", checkpoint.ErrInvalid, id)
		}
		erases, err := f.dev.EraseCount(block)
		if err != nil {
			return fmt.Errorf("ftl: checkpoint verification: %w", err)
		}
		if b.eraseCount != erases {
			return fmt.Errorf("%w: block %d erase count %d, device says %d", checkpoint.ErrInvalid, id, b.eraseCount, erases)
		}
		if !b.retired {
			wp, err := f.dev.WritePointer(block)
			if err != nil {
				return fmt.Errorf("ftl: checkpoint verification: %w", err)
			}
			if b.writePointer != wp {
				return fmt.Errorf("%w: block %d write pointer %d, device says %d", checkpoint.ErrInvalid, id, b.writePointer, wp)
			}
		}
	}
	for i, id := range sc.active {
		if id == flash.InvalidBlock {
			continue
		}
		if id < 0 || int(id) >= f.cfg.Blocks {
			return fmt.Errorf("%w: frontier %d block %d out of range", checkpoint.ErrInvalid, i, id)
		}
		if !sc.blocks[id].allocated {
			return fmt.Errorf("%w: frontier %d block %d is not allocated", checkpoint.ErrInvalid, i, id)
		}
	}

	if len(sc.gmd) != f.table.Pages() {
		return fmt.Errorf("%w: %d translation pages, shard has %d", checkpoint.ErrInvalid, len(sc.gmd), f.table.Pages())
	}
	for tp, ppn := range sc.gmd {
		if ppn == flash.InvalidPPN {
			continue
		}
		if err := f.checkProgrammed(sc, ppn, GroupTranslation); err != nil {
			return fmt.Errorf("%w: translation page %d: %w", checkpoint.ErrInvalid, tp, err)
		}
	}
	for _, r := range sc.runs {
		for _, p := range r.Pages {
			if err := f.checkProgrammed(sc, flash.PPN(p.PPN), GroupMeta); err != nil {
				return fmt.Errorf("%w: gecko run %d: %w", checkpoint.ErrInvalid, r.ID, err)
			}
		}
	}

	shardPages := flash.PPN(int64(f.cfg.Blocks) * int64(f.cfg.PagesPerBlock))
	if len(sc.cacheLRUFirst) > f.cache.Capacity() {
		return fmt.Errorf("%w: %d cached entries over the %d-entry budget", checkpoint.ErrInvalid, len(sc.cacheLRUFirst), f.cache.Capacity())
	}
	for _, e := range sc.cacheLRUFirst {
		if e.Logical < 0 || int64(e.Logical) >= f.logicalPages {
			return fmt.Errorf("%w: cached mapping for logical page %d of %d", checkpoint.ErrInvalid, e.Logical, f.logicalPages)
		}
		if e.Physical != flash.InvalidPPN && (e.Physical < 0 || e.Physical >= shardPages) {
			return fmt.Errorf("%w: cached mapping %d -> %d out of range", checkpoint.ErrInvalid, e.Logical, e.Physical)
		}
	}

	if err := f.lg.ValidateDirectories(sc.runs); err != nil {
		return fmt.Errorf("%w: %w", checkpoint.ErrInvalid, err)
	}

	if sc.heatEnabled != f.heat.enabled {
		return fmt.Errorf("%w: heat classifier enabled=%t, shard has %t", checkpoint.ErrInvalid, sc.heatEnabled, f.heat.enabled)
	}
	if sc.heatEnabled && len(sc.heat) != len(f.heat.heat) {
		return fmt.Errorf("%w: heat state for %d pages, shard tracks %d", checkpoint.ErrInvalid, len(sc.heat), len(f.heat.heat))
	}
	return nil
}

// checkProgrammed checks, without IO, that ppn is a programmed page of an
// allocated group-g block in the checkpoint's device-verified block table.
func (f *FTL) checkProgrammed(sc *shardCheckpoint, ppn flash.PPN, g Group) error {
	if ppn < 0 || int64(ppn) >= int64(f.cfg.Blocks)*int64(f.cfg.PagesPerBlock) {
		return fmt.Errorf("page %d out of range", ppn)
	}
	block := flash.BlockOf(ppn, f.cfg.PagesPerBlock)
	b := &sc.blocks[block]
	if b.group != g || !b.allocated {
		return fmt.Errorf("page %d points into block %d of group %d", ppn, block, b.group)
	}
	if flash.OffsetOf(ppn, f.cfg.PagesPerBlock) >= b.writePointer {
		return fmt.Errorf("page %d points past block %d's write pointer", ppn, block)
	}
	return nil
}

// importShardCheckpoint rebuilds one crashed shard's RAM state from a
// decoded checkpoint instead of running GeckoRec: zero flash IO. The shard
// must be power-failed (RAM already dropped); on any error the shard is
// returned to the crashed state — partial imports never survive — and the
// caller falls back to ordinary recovery.
func (f *FTL) importShardCheckpoint(sc *shardCheckpoint) error {
	if f.dev.Powered() {
		return fmt.Errorf("ftl: checkpoint import without a preceding PowerFail")
	}
	f.dev.PowerOn()
	if err := f.verifyShardCheckpoint(sc); err != nil {
		f.recrash()
		return err
	}

	f.bm.blocks = sc.blocks
	f.bm.free = sc.free
	f.bm.active = sc.active
	f.bm.lastSeq = sc.lastSeq
	f.bm.restoreFreeOrder()

	for tp, ppn := range sc.gmd {
		f.table.SetGMDLocation(tp, ppn)
	}

	if err := f.lg.ImportDirectories(sc.runs); err != nil {
		f.recrash()
		return fmt.Errorf("%w: %w", checkpoint.ErrInvalid, err)
	}

	f.cache.Clear()
	f.dirtyCount = 0
	for _, e := range sc.cacheLRUFirst {
		f.cache.Put(e)
		if e.Dirty {
			f.dirtyCount++
		}
	}

	if f.heat.enabled {
		f.heat.clock = sc.heatClock
		copy(f.heat.heat, sc.heat)
		copy(f.heat.last, sc.heatLast)
	}
	return nil
}

// recrash returns the shard to the crashed state after a failed import:
// power off, all RAM state dropped, exactly as PowerFail leaves it (minus
// the battery flush, which checkpointing excludes by construction).
func (f *FTL) recrash() {
	f.dev.PowerFail()
	f.cache.Clear()
	f.dirtyCount = 0
	f.crashGC()
	f.table.CrashRAM()
	f.bm.CrashRAM()
	f.heat.CrashRAM()
	if f.lg != nil {
		f.lg.CrashRAM()
	}
	if crasher, ok := f.validity.(interface{ CrashRAM() }); ok {
		crasher.CrashRAM()
	}
}

// ValidateCheckpoint checks a decoded checkpoint against a live engine
// without mutating anything: configuration fingerprint, shard layout,
// staleness versus the device's global write sequence, and every shard's
// state against its partition's device truth. A nil return means
// RestoreCheckpoint would accept the file in the engine's current state.
func (e *Engine) ValidateCheckpoint(file *checkpoint.File) error {
	e.powerMu.Lock()
	defer e.powerMu.Unlock()
	if e.failed {
		return fmt.Errorf("ftl: checkpoint validation on a power-failed engine: %w", flash.ErrPowerFailed)
	}
	if e.opts.Scheme != SchemeGecko || e.opts.Battery {
		return ErrCheckpointUnsupported
	}
	ec, err := decodeCheckpoint(file)
	if err != nil {
		return err
	}
	if err := e.verifyEngineCheckpoint(ec); err != nil {
		return err
	}
	for i, sh := range e.shards {
		sh.mu.Lock()
		err := sh.ftl.verifyShardCheckpoint(ec.perShard[i])
		sh.mu.Unlock()
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// RestoreCheckpoint performs a warm restart: it rebuilds every shard's RAM
// state from a checkpoint instead of running GeckoRec, at zero flash IO.
// The engine must be power-failed (as after PowerFail or a clean shutdown's
// simulated reboot). The checkpoint is validated — structure, configuration
// fingerprint, staleness against the device's global write sequence, and
// per-shard device truth — before any state is kept; on any failure every
// shard is returned to the crashed state and the error is reported so the
// caller can fall back to Engine.Recover. Partial state never survives.
func (e *Engine) RestoreCheckpoint(file *checkpoint.File) error {
	e.powerMu.Lock()
	defer e.powerMu.Unlock()
	if !e.failed {
		return fmt.Errorf("ftl: checkpoint restore without a preceding PowerFail")
	}
	if e.opts.Scheme != SchemeGecko || e.opts.Battery {
		return ErrCheckpointUnsupported
	}
	ec, err := decodeCheckpoint(file)
	if err != nil {
		return err
	}
	if err := e.verifyEngineCheckpoint(ec); err != nil {
		return err
	}
	e.dev.PowerOn()
	for i, sh := range e.shards {
		sh.mu.Lock()
		err := sh.ftl.importShardCheckpoint(ec.perShard[i])
		sh.mu.Unlock()
		if err != nil {
			// Roll every shard back to the crashed state: shards imported so
			// far drop their rebuilt RAM, untouched shards are already
			// crashed, and the rail is cut again so Engine.Recover starts
			// from a clean engine-wide crash.
			for _, sh2 := range e.shards {
				sh2.mu.Lock()
				sh2.ftl.recrash()
				sh2.mu.Unlock()
			}
			e.dev.PowerFail()
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	e.failed = false
	return nil
}
