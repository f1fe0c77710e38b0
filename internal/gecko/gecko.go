package gecko

import (
	"fmt"
	"sort"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

// Stats counts Logarithmic Gecko's logical operations. Flash IO is accounted
// by the device counters under flash.PurposePageValidity; these counters
// describe the data structure's own activity.
type Stats struct {
	// Updates is the number of invalid-page reports (Algorithm 1 calls).
	Updates int64
	// Erases is the number of block-erase reports (Algorithm 2 calls).
	Erases int64
	// Queries is the number of GC queries served.
	Queries int64
	// Flushes is the number of buffer flushes to level 0.
	Flushes int64
	// Merges is the number of merge operations performed.
	Merges int64
	// MergedRuns is the total number of input runs consumed by merges.
	MergedRuns int64
	// QueryPageReads is the number of run pages read by GC queries.
	QueryPageReads int64
}

// Gecko is a Logarithmic Gecko instance: a RAM-resident buffer and run
// directories, plus leveled sorted runs of Gecko entries stored in flash
// through a metastore.Storage.
//
// Gecko is not safe for concurrent use; the FTL serializes access to it.
type Gecko struct {
	cfg   Config
	store metastore.Storage

	buf    *buffer
	levels [][]*run // levels[i] holds the runs currently at level i (usually 0 or 1)

	nextRunID uint64
	seq       uint64 // logical creation sequence for runs
	stats     Stats
}

// New creates a Logarithmic Gecko over the given flash-backed store.
func New(cfg Config, store metastore.Storage) (*Gecko, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, fmt.Errorf("gecko: nil store")
	}
	return &Gecko{
		cfg:       cfg,
		store:     store,
		buf:       newBuffer(cfg),
		levels:    make([][]*run, cfg.Levels()+1),
		nextRunID: 1,
	}, nil
}

// Config returns the configuration.
func (g *Gecko) Config() Config { return g.cfg }

// Stats returns a copy of the operation counters.
func (g *Gecko) Stats() Stats { return g.stats }

// BufferLen returns the number of distinct entries currently buffered.
func (g *Gecko) BufferLen() int { return g.buf.len() }

// RunCount returns the number of live runs across all levels.
func (g *Gecko) RunCount() int {
	n := 0
	for _, lvl := range g.levels {
		n += len(lvl)
	}
	return n
}

// FlashPages returns the number of flash pages currently occupied by live
// runs. Space-amplification tests use it.
func (g *Gecko) FlashPages() int {
	n := 0
	for _, lvl := range g.levels {
		for _, r := range lvl {
			n += len(r.pages)
		}
	}
	return n
}

// RAMBytes returns the integrated-RAM footprint of the structure: the
// one-page buffer plus the run directories (Appendix B).
func (g *Gecko) RAMBytes() int64 {
	total := int64(g.cfg.PageSize)
	if g.cfg.MultiWayMerge {
		// Multi-way merging needs up to L input buffers plus one output
		// buffer (Appendix A / Appendix B, "Logarithmic Gecko's Buffers").
		total = int64(g.cfg.PageSize) * int64(2+g.cfg.Levels())
	}
	for _, lvl := range g.levels {
		for _, r := range lvl {
			total += r.ramBytes()
		}
	}
	return total
}

// Update reports that the physical page at the given address has become
// invalid (Algorithm 1). It may trigger a buffer flush and merges.
func (g *Gecko) Update(addr flash.Addr) error {
	if addr.Block < 0 || int(addr.Block) >= g.cfg.Blocks {
		return fmt.Errorf("gecko: block %d out of range [0,%d)", addr.Block, g.cfg.Blocks)
	}
	if addr.Offset < 0 || addr.Offset >= g.cfg.PagesPerBlock {
		return fmt.Errorf("gecko: page offset %d out of range [0,%d)", addr.Offset, g.cfg.PagesPerBlock)
	}
	g.stats.Updates++
	g.buf.recordInvalid(addr.Block, addr.Offset)
	return g.maybeFlush()
}

// RecordErase reports that a block has been erased (Algorithm 2), so that all
// older page-validity metadata for it becomes obsolete.
func (g *Gecko) RecordErase(block flash.BlockID) error {
	if block < 0 || int(block) >= g.cfg.Blocks {
		return fmt.Errorf("gecko: block %d out of range [0,%d)", block, g.cfg.Blocks)
	}
	g.stats.Erases++
	g.buf.recordErase(block)
	return g.maybeFlush()
}

// Query answers a GC query: it returns a bitmap with one bit per page of the
// block, where a set bit means the page is invalid. It traverses the buffer
// and then the runs from most recently created to least recently created,
// reading at most one page per run (two when a block's partitioned
// sub-entries straddle a page boundary), and stops early when it encounters
// an erase entry for the block.
func (g *Gecko) Query(block flash.BlockID) (*bitmap.Bitmap, error) {
	if block < 0 || int(block) >= g.cfg.Blocks {
		return nil, fmt.Errorf("gecko: block %d out of range [0,%d)", block, g.cfg.Blocks)
	}
	g.stats.Queries++
	result := bitmap.New(g.cfg.PagesPerBlock)

	chunks, erased := g.buf.query(block)
	g.fold(result, chunks)
	if erased {
		return result, nil
	}

	for _, r := range g.runsNewestFirst() {
		pageIdxs := r.directoryLookupAll(block)
		stop := false
		for _, pi := range pageIdxs {
			entries, err := g.readRunPage(r, pi)
			if err != nil {
				return nil, err
			}
			g.stats.QueryPageReads++
			chunks, erased := entriesForBlock(entries, block)
			g.fold(result, chunks)
			if erased {
				stop = true
			}
		}
		if stop {
			break
		}
	}
	return result, nil
}

// readRunPage reads page i of run r and returns the entries stored on it.
func (g *Gecko) readRunPage(r *run, i int) ([]Entry, error) {
	payload, err := g.store.Read(r.pages[i].ppn)
	if err != nil {
		return nil, fmt.Errorf("gecko: reading run %d page %d: %w", r.id, i, err)
	}
	entries, ok := payload.([]Entry)
	if !ok {
		return nil, fmt.Errorf("gecko: run %d page %d at %d holds no entries", r.id, i, r.pages[i].ppn)
	}
	return entries, nil
}

// fold ORs partitioned chunk entries into a full-block bitmap.
func (g *Gecko) fold(result *bitmap.Bitmap, chunks []Entry) {
	bits := g.cfg.BitsPerEntry()
	for _, c := range chunks {
		if c.Bits == nil {
			continue
		}
		offset := 0
		if g.cfg.PartitionFactor > 1 {
			offset = c.SubKey * bits
		}
		// The last chunk of a block may extend past B when S does not
		// divide B; clamp it.
		width := c.Bits.Len()
		if offset+width > result.Len() {
			width = result.Len() - offset
		}
		if width <= 0 {
			continue
		}
		result.OrRange(offset, c.Bits.Slice(0, width))
	}
}

// runsNewestFirst returns all live runs ordered from most recently created to
// least recently created.
func (g *Gecko) runsNewestFirst() []*run {
	var runs []*run
	for _, lvl := range g.levels {
		runs = append(runs, lvl...)
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].createSeq > runs[j].createSeq })
	return runs
}

// Flush forces the buffer to flash even if it is not full. The FTL calls it
// before a clean shutdown; tests use it to make state deterministic.
func (g *Gecko) Flush() error {
	if g.buf.len() == 0 {
		return nil
	}
	return g.flushBuffer()
}

// maybeFlush flushes the buffer when it has filled up.
func (g *Gecko) maybeFlush() error {
	if !g.buf.full() {
		return nil
	}
	return g.flushBuffer()
}

// flushBuffer writes the buffer as a new run into level 0 and triggers
// merging.
func (g *Gecko) flushBuffer() error {
	entries := g.buf.drain()
	if len(entries) == 0 {
		return nil
	}
	g.stats.Flushes++
	r, err := g.writeRun(entries)
	if err != nil {
		return err
	}
	g.placeRun(r)
	return g.mergeIfNeeded()
}

// writeRun persists a non-empty sorted slice of entries as a new run and
// returns it. Each page holds up to V consecutive entries as its payload; its
// key range goes into the spare area and the run directory.
func (g *Gecko) writeRun(entries []Entry) (*run, error) {
	v := g.cfg.EntriesPerPage()
	n := (len(entries) + v - 1) / v
	g.seq++
	r := &run{
		id:        g.nextRunID,
		createSeq: g.seq,
		level:     g.cfg.LevelOfRunPages(n),
		pages:     make([]runPage, n),
	}
	g.nextRunID++
	for i := range r.pages {
		group := entries[i*v : min((i+1)*v, len(entries))]
		p := &r.pages[i]
		p.minKey, p.maxKey = group[0].key(), group[len(group)-1].key()
		ppn, err := g.store.Append(encodeRunPageSpare(r.id, i, n, p.minKey, p.maxKey), group)
		if err != nil {
			return nil, fmt.Errorf("gecko: writing run %d page %d: %w", r.id, i, err)
		}
		p.ppn = ppn
	}
	return r, nil
}

// placeRun inserts a run into the level its size dictates (but never below
// r.level, which merges set to the largest input level so that merge outputs
// are only ever promoted, keeping the newer-runs-at-smaller-levels invariant
// that directory recovery relies on), growing the level table if necessary.
func (g *Gecko) placeRun(r *run) {
	if sizeLevel := g.cfg.LevelOfRunPages(len(r.pages)); sizeLevel > r.level {
		r.level = sizeLevel
	}
	for r.level >= len(g.levels) {
		g.levels = append(g.levels, nil)
	}
	g.levels[r.level] = append(g.levels[r.level], r)
}

// mergeIfNeeded merges runs until no level holds more than one run.
// With MultiWayMerge enabled, a cascade that would touch several levels is
// collapsed into a single multi-way merge (Appendix A).
func (g *Gecko) mergeIfNeeded() error {
	for {
		level := -1
		for i := range g.levels {
			if len(g.levels[i]) >= 2 {
				level = i
				break
			}
		}
		if level < 0 {
			return nil
		}
		inputs := g.takeMergeInputs(level)
		merged, err := g.mergeRuns(inputs)
		if err != nil {
			return err
		}
		if merged != nil {
			// A merge output never drops below the largest level it consumed.
			floor := 0
			for _, in := range inputs {
				if in.level > floor {
					floor = in.level
				}
			}
			merged.level = floor
			g.placeRun(merged)
		}
	}
}

// takeMergeInputs removes and returns the runs that will participate in the
// next merge, starting from the given level. The two-way policy takes just
// the runs of that level; the multi-way policy (Appendix A) also pulls in the
// single run of each higher level that the result would cascade into.
func (g *Gecko) takeMergeInputs(level int) []*run {
	inputs := g.levels[level]
	g.levels[level] = nil
	if !g.cfg.MultiWayMerge {
		return inputs
	}
	// Foresee the cascade: if the merged run would be promoted into a level
	// that already holds a run, include that run in the same merge.
	pages := 0
	for _, r := range inputs {
		pages += len(r.pages)
	}
	for next := level + 1; next < len(g.levels); next++ {
		if len(g.levels[next]) == 0 {
			break
		}
		if g.cfg.LevelOfRunPages(pages) < next {
			break
		}
		inputs = append(inputs, g.levels[next]...)
		for _, r := range g.levels[next] {
			pages += len(r.pages)
		}
		g.levels[next] = nil
	}
	return inputs
}

// mergeRuns merges the given runs (any number >= 1) into a single new run.
// Every input page is read, the entries are sort-merged with the collision
// rules of Algorithm 3 (generalized to whole-block erase entries), the result
// is written as a new run, and only then are the input pages invalidated: a
// power cut during the write leaves the inputs intact on flash, where
// recovery finds them.
func (g *Gecko) mergeRuns(inputs []*run) (*run, error) {
	if len(inputs) == 0 {
		return nil, nil
	}
	g.stats.Merges++
	g.stats.MergedRuns += int64(len(inputs))

	// Read every input page (the IO cost of the merge).
	streams := make([]stream, len(inputs))
	for k, r := range inputs {
		streams[k].createSeq = r.createSeq
		for i := range r.pages {
			entries, err := g.readRunPage(r, i)
			if err != nil {
				return nil, err
			}
			streams[k].entries = append(streams[k].entries, entries...)
		}
	}

	var out *run
	if merged := mergeEntryStreams(streams); len(merged) > 0 {
		var err error
		if out, err = g.writeRun(merged); err != nil {
			return nil, err
		}
	}

	// The output is durable: the input pages are now obsolete.
	for _, r := range inputs {
		for i := range r.pages {
			if err := g.store.Invalidate(r.pages[i].ppn); err != nil {
				return nil, fmt.Errorf("gecko: invalidating run %d: %w", r.id, err)
			}
		}
	}
	return out, nil
}

// stream is one merge input: a run's entries in key order and the run's
// creation sequence, which ranks its recency.
type stream struct {
	createSeq uint64
	entries   []Entry
}

// mergeEntryStreams performs the k-way sort-merge of the input runs' entries.
// The inputs may come in any order; recency is taken from each stream's
// createSeq. For every block, the newest erase entry (if any) discards all
// entries from strictly older runs; colliding chunk entries from surviving
// runs are OR-merged (Algorithm 3).
func mergeEntryStreams(inputs []stream) []Entry {
	// Order inputs newest first so that "first occurrence wins" rules are
	// easy to express.
	ordered := append([]stream(nil), inputs...)
	sort.Slice(ordered, func(i, j int) bool { return ordered[i].createSeq > ordered[j].createSeq })

	// cursor walks one run's entries in key order.
	type cursor struct {
		entries []Entry
		pos     int
		recency int // 0 = newest
	}
	cursors := make([]*cursor, 0, len(ordered))
	for rank, in := range ordered {
		if len(in.entries) > 0 {
			cursors = append(cursors, &cursor{entries: in.entries, recency: rank})
		}
	}

	var out []Entry
	// eraseCut maps a block to the recency rank of the newest run holding an
	// erase entry for it; entries from runs older than the cut are dropped.
	// Because WholeBlock sorts before all real sub-keys, the erase entry for
	// a block is always processed before the block's chunk entries.
	eraseCut := make(map[flash.BlockID]int)

	for {
		// Find the smallest key among the cursors.
		best := -1
		var bestKey key
		for i, c := range cursors {
			if c.pos >= len(c.entries) {
				continue
			}
			k := c.entries[c.pos].key()
			if best < 0 || k.less(bestKey) {
				best = i
				bestKey = k
			}
		}
		if best < 0 {
			break
		}

		// Collect every entry with that key, newest run first.
		var colliding []*cursor
		for _, c := range cursors {
			if c.pos < len(c.entries) && c.entries[c.pos].key() == bestKey {
				colliding = append(colliding, c)
			}
		}
		sort.Slice(colliding, func(i, j int) bool { return colliding[i].recency < colliding[j].recency })

		cut, hasCut := eraseCut[bestKey.block]

		var result *Entry
		for _, c := range colliding {
			e := c.entries[c.pos]
			c.pos++
			if hasCut && c.recency > cut {
				// Entry predates the newest erase of this block.
				continue
			}
			if e.EraseFlag && e.SubKey == WholeBlock {
				if !hasCut || c.recency < cut {
					cut, hasCut = c.recency, true
					eraseCut[bestKey.block] = cut
				}
			}
			if result == nil {
				cloned := e.Clone()
				result = &cloned
				continue
			}
			merged := mergeCollision(*result, e)
			result = &merged
		}
		if result != nil {
			out = append(out, *result)
		}
	}
	return out
}
