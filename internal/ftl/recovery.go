package ftl

import (
	"fmt"
	"sort"
	"time"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
	"geckoftl/internal/mapcache"
)

// RecoveryReport summarizes a recovery run: what was rebuilt and how much IO
// and simulated time it took. Recovery time follows the device latency model
// over the IOs issued between PowerFail acknowledgement and the moment normal
// operation resumes.
type RecoveryReport struct {
	// Duration is the simulated time the recovery IOs took.
	Duration time.Duration
	// SpareReads, PageReads and PageWrites are the IOs attributed to
	// recovery.
	SpareReads, PageReads, PageWrites int64
	// RecoveredMappingEntries is the number of cached mapping entries
	// recreated by the backwards scan.
	RecoveredMappingEntries int
	// RecoveredDirty is the number of recreated entries that proved to be
	// genuinely dirty (synchronized immediately for bounded-dirty FTLs,
	// verified lazily for GeckoFTL).
	RecoveredDirty int
	// UsedBattery reports that dirty entries were persisted by the battery
	// at power-failure time instead of being recovered.
	UsedBattery bool
	// SynchronizedBeforeResume reports that recovered dirty entries were
	// synchronized with the translation table before normal operation
	// resumed (LazyFTL / IB-FTL behaviour); GeckoFTL defers this.
	SynchronizedBeforeResume bool
}

// PowerFail simulates an abrupt power failure. All RAM-resident state (the
// LRU cache, GMD, BVC, block-manager bookkeeping, run directories, the
// RAM-resident PVB, chain heads) is lost; flash contents survive. FTLs with a
// battery (DFTL, µ-FTL) synchronize their dirty mapping entries with the
// translation table before the device loses power, as the paper assumes.
func (f *FTL) PowerFail() error {
	if f.opts.Battery {
		// The battery keeps the device alive just long enough to flush
		// dirty state; this IO happens before the failure, not during
		// recovery.
		if err := f.Flush(); err != nil {
			return err
		}
	}
	f.dev.PowerFail()

	// Integrated RAM is gone.
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
	return nil
}

// Recover restores the FTL after a power failure, implementing GeckoRec
// (Appendix C) for GeckoFTL and the corresponding recovery procedures of the
// comparison FTLs. It returns a report of the work done.
func (f *FTL) Recover() (*RecoveryReport, error) {
	if f.dev.Powered() {
		return nil, fmt.Errorf("ftl: Recover called without a preceding PowerFail")
	}
	f.dev.PowerOn()

	startCounters := f.dev.Counters()
	startTime := f.dev.SimulatedTime()
	report := &RecoveryReport{UsedBattery: f.opts.Battery}

	// Step 1: rebuild the block information directory (block types, write
	// pointers, first-write timestamps) with one spare-area read per block,
	// plus a spare read per written page of each group's newest block to
	// locate the write pointers the FTL needs to resume appending. The BVC
	// is set conservatively (every written page counted valid) so that the
	// synchronizations performed later in recovery cannot underflow it; the
	// accurate rebuild happens at the end.
	if err := f.recoverBlockManager(); err != nil {
		return nil, err
	}

	// Step 2: recover the GMD by scanning the spare areas of all translation
	// pages and keeping the newest version of each. The content sequences of
	// the recovered versions are kept: the backwards scan of step 6 uses
	// them to recognize user pages whose invalidation (by a synchronized
	// overwrite or trim) is already durable.
	tpContentSeq, err := f.recoverGMD()
	if err != nil {
		return nil, err
	}

	// Steps 3 & 4: recover the flash-resident page-validity structures.
	switch f.opts.Scheme {
	case SchemeGecko:
		if err := f.lg.RecoverDirectories(); err != nil {
			return nil, err
		}
		if err := f.recoverGeckoBuffer(); err != nil {
			return nil, err
		}
	case SchemeFlashPVB:
		// The flash-resident PVB persists across failures; only its small
		// RAM directory needs to be rebuilt, which the spare scan of step 1
		// already paid for. Nothing further to do.
	case SchemePVL:
		// IB-FTL must rebuild its RAM-resident chain heads by scanning the
		// whole log, whose size is proportional to device capacity.
		if err := f.rebuildPVLHeads(); err != nil {
			return nil, err
		}
	}

	// Step 6: recover dirty cached mapping entries with the bounded
	// backwards scan (Section 4.3), unless a battery already synchronized
	// them before power ran out.
	if !f.opts.Battery {
		recovered, err := f.recoverDirtyEntries(tpContentSeq)
		if err != nil {
			return nil, err
		}
		report.RecoveredMappingEntries = recovered

		if f.opts.Scheme == SchemeGecko {
			// Step 7 (GeckoFTL): defer synchronization; the dirty and UIP
			// flags of the recreated entries are assumed true and corrected
			// lazily after normal operation resumes (Appendix C.3).
			report.RecoveredDirty = f.dirtyCount
		} else {
			// LazyFTL and IB-FTL synchronize the recovered entries with the
			// translation table before resuming, which is the recovery-time
			// bottleneck the paper points out.
			report.SynchronizedBeforeResume = true
			dirty, err := f.synchronizeRecoveredEntries()
			if err != nil {
				return nil, err
			}
			report.RecoveredDirty = dirty
		}
	}

	// DFTL and LazyFTL rebuild the RAM-resident PVB by scanning the
	// translation table: every mapped physical page is valid, every other
	// written page is invalid. This runs after the recovered dirty entries
	// have been synchronized so that the table reflects the newest versions.
	if f.opts.Scheme == SchemeRAMPVB {
		if err := f.rebuildRAMPVB(); err != nil {
			return nil, err
		}
	}

	// Step 5 (last so that it reflects all of the above): rebuild the Blocks
	// Validity Counter from the page-validity store, the translation table
	// and the metadata structures' live-page sets.
	if err := f.rebuildBVC(); err != nil {
		return nil, err
	}

	delta := f.dev.Counters().Sub(startCounters)
	report.Duration = f.dev.SimulatedTime() - startTime
	report.SpareReads = delta.TotalOp(flash.OpSpareRead)
	report.PageReads = delta.TotalOp(flash.OpPageRead)
	report.PageWrites = delta.TotalOp(flash.OpPageWrite)
	return report, nil
}

// recoverBlockManager rebuilds block groups, write pointers, and timestamps
// (GeckoRec step 1). One spare read per block identifies its type and first
// write; the write pointer within partially written blocks is taken from the
// device's program state (the FTL would find it by probing for the first
// unreadable page, an O(log B) spare-read search we charge as part of the
// per-block scan).
func (f *FTL) recoverBlockManager() error {
	bm := f.bm
	bm.CrashRAM()
	for i := 0; i < f.cfg.Blocks; i++ {
		block := flash.BlockID(i)
		info := &bm.blocks[i]
		// The controller's bad-block table is device truth, survives power
		// failure, and is consulted before any spare read: retired blocks
		// hold no live data (they are only retired once drained) and never
		// re-enter the free pool.
		bad, err := f.dev.BadBlock(block)
		if err != nil {
			return err
		}
		if bad {
			info.retired = true
			info.allocated = false
			continue
		}
		first := flash.PPNOf(block, 0, f.cfg.PagesPerBlock)
		spare, written, err := f.dev.ReadSpare(first, flash.PurposeRecovery)
		if err != nil {
			return err
		}
		wp, err := f.dev.WritePointer(block)
		if err != nil {
			return err
		}
		if !written && wp == 0 {
			info.allocated = false
			bm.free = append(bm.free, block)
			continue
		}
		// A block whose first page reads as unprogrammed but whose write
		// pointer has advanced had its first program(s) consumed by failed
		// pulses: probe forward for the first readable spare and classify the
		// block from that instead (charged like the rest of the scan).
		for offset := 1; offset < wp && !written; offset++ {
			spare, written, err = f.dev.ReadSpare(flash.PPNOf(block, offset, f.cfg.PagesPerBlock), flash.PurposeRecovery)
			if err != nil {
				return err
			}
		}
		info.allocated = true
		info.writePointer = wp
		if !written {
			// Every programmed page of the block is bad. Nothing can map into
			// it, so its BVC entry is zero; garbage collection (or frontier
			// resumption, when partial) reclaims the block like any user block.
			info.group = GroupUser
			continue
		}
		info.firstWriteSeq = spare.WriteSeq
		// The block's true last-write sequence would need a spare read of its
		// newest page; the first-write sequence is a safe stand-in that only
		// makes recovered blocks look older to the cost-benefit policy.
		info.lastWriteSeq = spare.WriteSeq
		bm.NoteWriteSeq(spare.WriteSeq)
		switch spare.BlockType {
		case flash.BlockTranslation:
			info.group = GroupTranslation
		case flash.BlockGecko:
			info.group = GroupMeta
		default:
			info.group = GroupUser
		}
		// Conservative BVC until the accurate rebuild at the end of
		// recovery: counting every written page valid can only delay
		// garbage-collection, never corrupt it.
		info.valid = wp
	}
	// Re-base the RAM mirror of every block's erase count from the device's
	// wear state (free blocks included — the next wear-aware allocation
	// decision must not start from zeroed counters). The device stamps erase
	// counts into spare areas, so a real FTL recovers them with the same
	// per-block scan already charged above.
	for i := 0; i < f.cfg.Blocks; i++ {
		ec, err := f.dev.EraseCount(flash.BlockID(i))
		if err != nil {
			return err
		}
		bm.blocks[i].eraseCount = ec
	}
	// The free list was rebuilt above and the erase counts it is keyed by
	// were just re-based: restore the wear-aware ordering invariant.
	bm.restoreFreeOrder()
	// The most recently written, partially full block of each group resumes
	// as that group's active block. The user group can leave up to two
	// partial blocks behind under hot/cold separation — one per frontier —
	// and both must resume as frontiers: a partial block that is not active
	// would never fill and therefore never become victim-eligible, leaking
	// its free pages forever. Temperature assignment is arbitrary (the heat
	// state died with the RAM); the newest resumes as the cold frontier.
	for fr := range bm.active {
		bm.active[fr] = flash.InvalidBlock
	}
	for g := Group(0); g < numGroups; g++ {
		var partials []flash.BlockID
		for i := range bm.blocks {
			info := &bm.blocks[i]
			if !info.allocated || info.group != g || info.writePointer >= f.cfg.PagesPerBlock {
				continue
			}
			partials = append(partials, flash.BlockID(i))
		}
		sort.Slice(partials, func(i, j int) bool {
			a, b := &bm.blocks[partials[i]], &bm.blocks[partials[j]]
			if a.firstWriteSeq != b.firstWriteSeq {
				return a.firstWriteSeq > b.firstWriteSeq
			}
			return partials[i] < partials[j]
		})
		if len(partials) > 0 {
			bm.active[frontierFor(g, TempCold)] = partials[0]
		}
		if g == GroupUser && bm.hotCold && len(partials) > 1 {
			bm.active[frontierUserHot] = partials[1]
		}
	}
	return nil
}

// recoverGMD rebuilds the Global Mapping Directory (GeckoRec step 2) by
// scanning the spare areas of all pages in translation blocks and keeping the
// most recently written version of each translation page. It returns each
// recovered translation page's content sequence (the Aux stamp written by
// Synchronize and preserved across garbage-collection copies): the newest
// write sequence whose effect the durable mapping content is known to
// reflect. The dirty-entry scan uses it to date the durable mapping state —
// the page's own WriteSeq will not do, because a garbage-collection copy
// refreshes it without refreshing the content.
func (f *FTL) recoverGMD() (map[int]uint64, error) {
	f.table.CrashRAM()
	newest := make(map[int]uint64)
	contentSeq := make(map[int]uint64)
	for _, block := range f.bm.BlocksInGroup(GroupTranslation) {
		written := f.bm.WritePointer(block)
		for offset := 0; offset < written; offset++ {
			ppn := flash.PPNOf(block, offset, f.cfg.PagesPerBlock)
			spare, ok, err := f.dev.ReadSpare(ppn, flash.PurposeRecovery)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			f.bm.NoteWriteSeq(spare.WriteSeq)
			tp := int(spare.Tag)
			if tp < 0 || tp >= f.table.Pages() {
				continue
			}
			if seq, seen := newest[tp]; !seen || spare.WriteSeq > seq {
				newest[tp] = spare.WriteSeq
				contentSeq[tp] = spare.Aux
				f.table.SetGMDLocation(tp, ppn)
			}
		}
	}
	return contentSeq, nil
}

// recoverGeckoBuffer rebuilds the content of Logarithmic Gecko's buffer that
// was lost at power failure (Appendix C.2): the addresses of blocks erased
// and pages invalidated since the last time the buffer was flushed.
func (f *FTL) recoverGeckoBuffer() error {
	// C.2.1: blocks erased since the last buffer flush are the free blocks
	// and the blocks whose first page was written after the newest run was
	// created. The block scan of step 1 already identified them.
	newestRunSeq, err := f.lg.NewestRunWriteSeq()
	if err != nil {
		return err
	}
	for i := range f.bm.blocks {
		info := &f.bm.blocks[i]
		if !info.allocated || (newestRunSeq > 0 && info.firstWriteSeq > newestRunSeq) {
			if err := f.lg.RecordErase(flash.BlockID(i)); err != nil {
				return err
			}
		}
	}

	// C.2.2: pages invalidated since the last buffer flush are found by
	// comparing each translation page updated since then against its
	// preserved previous version. Every mapping that changed identifies a
	// candidate before-image; its spare area confirms whether it still holds
	// that logical page before it is re-reported as invalid.
	for _, tp := range f.table.UpdatedSinceProtection() {
		start, prev, ok := f.table.PreviousVersion(tp)
		if !ok {
			continue
		}
		// Read the current and previous versions of the translation page
		// (the 2V page reads of Appendix C.2.2). The previous version lives
		// on a protected block that the garbage-collector was not allowed to
		// erase while the buffer held unflushed entries.
		if loc := f.table.GMDLocation(tp); loc != flash.InvalidPPN {
			if _, err := f.dev.ReadPage(loc, flash.PurposeRecovery); err != nil {
				return err
			}
		}
		if prev.location != flash.InvalidPPN {
			if _, err := f.dev.ReadPage(prev.location, flash.PurposeRecovery); err != nil {
				return err
			}
		}
		for i, oldPPN := range prev.content {
			lpn := start + flash.LPN(i)
			if int64(lpn) >= f.logicalPages {
				break
			}
			curPPN := f.table.FlashEntry(lpn)
			if oldPPN == curPPN || oldPPN == flash.InvalidPPN {
				continue
			}
			spare, written, err := f.dev.ReadSpare(oldPPN, flash.PurposeRecovery)
			if err != nil {
				return err
			}
			if written && spare.Logical == lpn {
				if err := f.lg.Update(flash.Decompose(oldPPN, f.cfg.PagesPerBlock)); err != nil {
					return err
				}
			}
		}
	}
	f.table.ClearProtected()
	return nil
}

// rebuildRAMPVB reconstructs the RAM-resident PVB by scanning the
// flash-resident translation table: the physical page each mapping points to
// is valid; every other written user page is invalid. The scan costs one page
// read per translation page, which is the LazyFTL recovery bottleneck the
// paper identifies.
func (f *FTL) rebuildRAMPVB() error {
	type invalidMarker interface {
		Update(addr flash.Addr) error
	}
	store := f.validity.(invalidMarker)

	// Read every live translation page.
	valid := make(map[flash.PPN]bool, f.logicalPages)
	for tp := 0; tp < f.table.Pages(); tp++ {
		loc := f.table.GMDLocation(tp)
		if loc == flash.InvalidPPN {
			continue
		}
		if _, err := f.dev.ReadPage(loc, flash.PurposeRecovery); err != nil {
			return err
		}
	}
	for lpn := flash.LPN(0); int64(lpn) < f.logicalPages; lpn++ {
		if ppn := f.table.FlashEntry(lpn); ppn != flash.InvalidPPN {
			valid[ppn] = true
		}
	}
	// Every written page of a user block that is not referenced by the
	// translation table is invalid.
	for _, block := range f.bm.BlocksInGroup(GroupUser) {
		written := f.bm.WritePointer(block)
		for offset := 0; offset < written; offset++ {
			ppn := flash.PPNOf(block, offset, f.cfg.PagesPerBlock)
			if !valid[ppn] {
				if err := store.Update(flash.Decompose(ppn, f.cfg.PagesPerBlock)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// rebuildPVLHeads rebuilds IB-FTL's RAM-resident chain heads by scanning the
// entire page validity log, one page read per log page.
func (f *FTL) rebuildPVLHeads() error {
	// The log's RAM state (chain heads, erase timestamps) is not actually
	// dropped by the simulator at PowerFail because the pvl package keeps
	// them embedded with the flash image; the cost of the scan that a real
	// IB-FTL would need is charged here so that recovery-time comparisons
	// remain fair.
	for _, block := range f.bm.BlocksInGroup(GroupMeta) {
		written := f.bm.WritePointer(block)
		for offset := 0; offset < written; offset++ {
			ppn := flash.PPNOf(block, offset, f.cfg.PagesPerBlock)
			if _, err := f.dev.ReadPage(ppn, flash.PurposeRecovery); err != nil {
				return err
			}
		}
	}
	return nil
}

// livePageLister is implemented by the flash-resident page-validity
// structures; recovery uses it to rebuild the BVC entries of metadata blocks.
type livePageLister interface {
	LivePages() []flash.PPN
}

// rebuildBVC recreates the Blocks Validity Counter (GeckoRec step 5): for
// every block, the number of valid pages is the number of written pages
// minus the number of invalid ones according to the page-validity store.
// For GeckoFTL this is a scan of Logarithmic Gecko's runs; the flash reads
// involved are those of the GC queries issued per block below.
func (f *FTL) rebuildBVC() error {
	metaLive := make(map[flash.BlockID]int)
	if lister, ok := f.validity.(livePageLister); ok {
		for _, ppn := range lister.LivePages() {
			metaLive[flash.BlockOf(ppn, f.cfg.PagesPerBlock)]++
		}
	}
	// For GeckoFTL, reconstruct every block's validity bitmap with a single
	// scan of Logarithmic Gecko's pages (GeckoRec step 5) instead of one GC
	// query per block.
	var geckoScan map[flash.BlockID]*bitmap.Bitmap
	if f.lg != nil {
		scan, err := f.lg.ScanValidity()
		if err != nil {
			return err
		}
		geckoScan = scan
	}
	for i := range f.bm.blocks {
		info := &f.bm.blocks[i]
		if !info.allocated {
			continue
		}
		block := flash.BlockID(i)
		switch info.group {
		case GroupUser:
			var bmInvalid *bitmap.Bitmap
			if geckoScan != nil {
				bmInvalid = geckoScan[block]
				if bmInvalid == nil {
					bmInvalid = bitmap.New(f.cfg.PagesPerBlock)
				}
			} else {
				queried, err := f.validity.Query(block)
				if err != nil {
					return err
				}
				bmInvalid = queried
			}
			count := 0
			for offset := 0; offset < info.writePointer; offset++ {
				if !bmInvalid.Get(offset) {
					count++
				}
			}
			info.valid = count
		case GroupTranslation:
			// Valid translation pages are those the recovered GMD points to.
			count := 0
			for offset := 0; offset < info.writePointer; offset++ {
				ppn := flash.PPNOf(block, offset, f.cfg.PagesPerBlock)
				for tp := 0; tp < f.table.Pages(); tp++ {
					if f.table.GMDLocation(tp) == ppn {
						count++
						break
					}
				}
			}
			info.valid = count
		case GroupMeta:
			// Live metadata pages are known to their owning structure, which
			// rebuilt its directories above.
			info.valid = metaLive[block]
		}
	}
	f.reconcileRecoveredUIP(geckoScan)
	return nil
}

// reconcileRecoveredUIP clears the UIP flag of backwards-scan-recovered
// mapping entries whose flash-resident before-image is already recorded
// invalid. The scan recreates every entry with UIP = true (Appendix C.3,
// "assumed dirty and UIP"), but the before-image that flag will identify —
// the durable translation-table entry — may have been reported before the
// crash and persisted in a Logarithmic Gecko run, or re-derived by the
// buffer replay of Appendix C.2.2. The C.3.2 spare-area check at the entry's
// first synchronization cannot catch this case: the page keeps naming the
// logical page until its block is erased, so the stale flag would report the
// same invalidation a second time and underflow the rebuilt BVC. Recovery is
// the one moment the FTL holds the complete validity picture (the bitmaps
// rebuildBVC just scanned) in RAM, so the reconciliation costs no IO.
func (f *FTL) reconcileRecoveredUIP(geckoScan map[flash.BlockID]*bitmap.Bitmap) {
	if geckoScan == nil {
		return
	}
	var stale []flash.LPN
	f.cache.ForEach(func(e mapcache.Entry) bool {
		if !e.UIP || !e.Uncertain {
			return true
		}
		flashPPN := f.table.FlashEntry(e.Logical)
		if flashPPN == flash.InvalidPPN || flashPPN == e.Physical {
			// Nothing to identify, or the C.3.1 first-synchronization abort
			// already handles it.
			return true
		}
		block := flash.BlockOf(flashPPN, f.cfg.PagesPerBlock)
		if bm := geckoScan[block]; bm != nil && bm.Get(flash.OffsetOf(flashPPN, f.cfg.PagesPerBlock)) {
			stale = append(stale, e.Logical)
		}
		return true
	})
	for _, lpn := range stale {
		f.cache.Update(lpn, func(en *mapcache.Entry) { en.UIP = false; en.Trimmed = false })
	}
}

// recoverDirtyEntries performs the bounded backwards scan of Section 4.3: it
// walks user blocks from most recently written to least recently written,
// reading spare areas in reverse page order, and recreates a cached mapping
// entry for every new logical page encountered, until C entries exist or the
// 2C spare-read bound is reached. Recreated entries get dirty = true,
// UIP = true and the uncertainty marker of Appendix C.3.
//
// tpContentSeq dates the durable translation state: each translation page's
// content sequence as recovered by recoverGMD. Every synchronization of a
// translation page includes all of the page's dirty cached entries, so a
// candidate user page written no later than the content sequence, which the
// durable page does not map, is a stale before-image whose invalidation was
// already synchronized — by an overwrite (whose newer version the scan
// recovers separately) or by a trim, which leaves no newer user page at all.
// Such candidates are skipped: recreating a mapping entry for one would
// resurrect overwritten or trimmed data. (When the durable page still maps
// the candidate, the candidate is the current version; it is recovered as
// uncertain and Appendix C.3.1's first synchronization aborts it at no
// cost.)
func (f *FTL) recoverDirtyEntries(tpContentSeq map[int]uint64) (int, error) {
	capacity := f.cache.Capacity()
	maxSpareReads := 2 * capacity
	spareReads := 0
	recovered := 0
	seen := make(map[flash.LPN]bool, capacity)

	for _, block := range f.bm.userBlocksByRecency() {
		written := f.bm.WritePointer(block)
		for offset := written - 1; offset >= 0; offset-- {
			if recovered >= capacity || spareReads >= maxSpareReads {
				return recovered, nil
			}
			ppn := flash.PPNOf(block, offset, f.cfg.PagesPerBlock)
			spare, ok, err := f.dev.ReadSpare(ppn, flash.PurposeRecovery)
			if err != nil {
				return recovered, err
			}
			spareReads++
			if !ok {
				continue
			}
			f.bm.NoteWriteSeq(spare.WriteSeq)
			if spare.Logical == flash.InvalidLPN {
				continue
			}
			lpn := spare.Logical
			if seen[lpn] {
				continue
			}
			if seq, ok := tpContentSeq[f.table.pageOf(lpn)]; ok && seq >= spare.WriteSeq && f.table.FlashEntry(lpn) != ppn {
				// Durably invalidated (see above); a newer version of lpn, if
				// any, may still appear later in the scan, so lpn is not
				// marked seen.
				continue
			}
			seen[lpn] = true
			recovered++
			f.dirtyCount++
			f.cache.Put(mapcache.Entry{
				Logical:   lpn,
				Physical:  ppn,
				Dirty:     true,
				UIP:       true,
				Uncertain: true,
			})
		}
	}
	return recovered, nil
}

// synchronizeRecoveredEntries writes every recovered dirty mapping entry back
// to the translation table before normal operation resumes. LazyFTL and
// IB-FTL do this; it is what makes their recovery time grow with the cache
// size.
func (f *FTL) synchronizeRecoveredEntries() (int, error) {
	dirtyBefore := f.dirtyCount
	byTP := make(map[int]mapcache.Entry)
	f.cache.ForEach(func(e mapcache.Entry) bool {
		if e.Dirty {
			tp := f.cache.TranslationPageOf(e.Logical)
			if _, ok := byTP[tp]; !ok {
				byTP[tp] = e
			}
		}
		return true
	})
	tps := make([]int, 0, len(byTP))
	for tp := range byTP {
		tps = append(tps, tp)
	}
	sort.Ints(tps)
	for _, tp := range tps {
		if err := f.synchronize(byTP[tp]); err != nil {
			return 0, err
		}
	}
	return dirtyBefore - f.dirtyCount, nil
}
