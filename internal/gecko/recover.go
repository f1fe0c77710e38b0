package gecko

import (
	"fmt"
	"sort"

	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

// CrashRAM simulates the loss of integrated RAM at power failure: the buffer
// contents and the run directories disappear. The flash-resident runs (their
// pages and spare areas) survive on the device; RecoverDirectories rebuilds
// the RAM state from them.
func (g *Gecko) CrashRAM() {
	g.buf.clear()
	g.levels = make([][]*run, g.cfg.Levels()+1)
}

// NewestRunWriteSeq returns the device write-sequence number of the first
// page of the most recently created run, or zero when no runs exist. The
// FTL's recovery uses it to find blocks erased since the last buffer flush.
func (g *Gecko) NewestRunWriteSeq() (uint64, error) {
	runs := g.runsNewestFirst()
	if len(runs) == 0 {
		return 0, nil
	}
	r := runs[0]
	if len(r.pages) == 0 {
		return 0, nil
	}
	spare, ok, err := g.store.ReadSpare(r.pages[0].ppn)
	if err != nil {
		return 0, err
	}
	if !ok {
		return 0, fmt.Errorf("gecko: newest run %d has an unwritten first page", r.id)
	}
	return spare.WriteSeq, nil
}

// RecoverDirectories rebuilds the run directories after a power failure
// (Appendix C.1 of the paper).
//
// It scans the spare area of every page in the store's blocks (one cheap
// spare-area read per page, the same asymptotic cost as the paper's scan of
// all Gecko pages), groups pages into runs by the run ID recorded in their
// spare areas, and discards runs that are incomplete (some of their pages
// were never written before power failed) or obsolete. Obsolete runs are
// detected with the recency invariant of the merge policy: among live runs,
// creation time strictly decreases as the level grows, so any recovered run
// that is older than a recovered run at a higher level must have been merged
// already and is dropped.
//
// The store must implement metastore.BlockLister so the scan knows which
// blocks to visit. The rebuilt directories replace the current RAM state.
func (g *Gecko) RecoverDirectories() error {
	lister, ok := g.store.(metastore.BlockLister)
	if !ok {
		return fmt.Errorf("gecko: store of type %T cannot enumerate blocks for recovery", g.store)
	}

	// Step 1: spare-area scan of every page in every Gecko block.
	pagesByRun := make(map[uint64][]runPageMeta)
	for _, block := range lister.Blocks() {
		for offset := 0; offset < g.cfg.PagesPerBlock; offset++ {
			ppn := flash.PPNOf(block, offset, g.cfg.PagesPerBlock)
			spare, written, err := g.store.ReadSpare(ppn)
			if err != nil {
				return fmt.Errorf("gecko: recovery scan of %v: %w", ppn, err)
			}
			if !written {
				continue
			}
			meta := decodeRunPageSpare(spare, ppn)
			pagesByRun[meta.runID] = append(pagesByRun[meta.runID], meta)
		}
	}

	// Step 2: keep only complete runs (all totalPages present exactly once).
	type candidate struct {
		id        uint64
		createSeq uint64
		pages     []runPageMeta
	}
	var candidates []candidate
	for id, metas := range pagesByRun {
		if len(metas) == 0 {
			continue
		}
		total := metas[0].totalPages
		if len(metas) != total {
			continue
		}
		sort.Slice(metas, func(i, j int) bool { return metas[i].pageIndex < metas[j].pageIndex })
		complete := true
		for i, m := range metas {
			if m.pageIndex != i || m.totalPages != total {
				complete = false
				break
			}
		}
		if !complete {
			continue
		}
		candidates = append(candidates, candidate{id: id, createSeq: metas[0].writeSeq, pages: metas})
	}
	// candidates was assembled in map-iteration order; pin a total order so
	// step 3's strict > comparison resolves createSeq ties to the lowest run
	// ID on every recovery, not to whichever run the map yielded first.
	// Recovery must replay identically or post-crash GC diverges between
	// runs of the same crash image.
	sort.Slice(candidates, func(i, j int) bool { return candidates[i].id < candidates[j].id })

	// Step 3: newest complete run per level.
	newestPerLevel := make(map[int]candidate)
	for _, c := range candidates {
		level := g.cfg.LevelOfRunPages(len(c.pages))
		cur, ok := newestPerLevel[level]
		if !ok || c.createSeq > cur.createSeq {
			newestPerLevel[level] = c
		}
	}

	// Step 4: enforce the recency invariant from the largest level down.
	levels := make([]int, 0, len(newestPerLevel))
	for level := range newestPerLevel {
		levels = append(levels, level)
	}
	sort.Sort(sort.Reverse(sort.IntSlice(levels)))
	var live []candidate
	liveLevels := make([]int, 0, len(levels))
	minSeqOfLarger := uint64(0)
	for _, level := range levels {
		c := newestPerLevel[level]
		if c.createSeq <= minSeqOfLarger {
			continue // older than a live run at a higher level: obsolete
		}
		minSeqOfLarger = c.createSeq
		live = append(live, c)
		liveLevels = append(liveLevels, level)
	}

	// Step 5: rebuild the in-RAM run directories. The entries themselves
	// stay on flash, where queries and merges read them.
	g.levels = make([][]*run, g.cfg.Levels()+1)
	for i, c := range live {
		r := &run{id: c.id, createSeq: c.createSeq, level: liveLevels[i]}
		for _, m := range c.pages {
			r.pages = append(r.pages, runPage{ppn: m.ppn, minKey: m.minKey, maxKey: m.maxKey})
		}
		// Keep logical sequencing consistent for future runs and merges.
		if c.createSeq > g.seq {
			g.seq = c.createSeq
		}
		if c.id >= g.nextRunID {
			g.nextRunID = c.id + 1
		}
		g.placeRun(r)
	}
	return nil
}
