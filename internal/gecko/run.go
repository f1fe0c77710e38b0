package gecko

import (
	"fmt"

	"geckoftl/internal/flash"
)

// runPage is the run directory's record of one flash page of a run: its
// physical location and the key range used to route GC queries to the single
// page that may contain a given block. The page's up to V entries, sorted by
// key, are its flash payload.
type runPage struct {
	ppn    flash.PPN
	minKey key
	maxKey key
}

// run is a sorted run of Gecko entries stored in flash, together with its
// RAM-resident run directory (the per-page key ranges and physical
// locations). The directory is what is lost at power failure and recovered
// by Appendix C.1; the entries stay on flash.
type run struct {
	id        uint64
	level     int
	createSeq uint64
	pages     []runPage
}

// packKey encodes a composite (block, sub-key) into 32 bits for storage in a
// spare area: block in the high bits, sub-key+1 in the low 8 bits so that
// WholeBlock (-1) encodes as 0.
func packKey(k key) uint32 {
	return uint32(k.block)<<8 | uint32(k.subKey+1)&0xff
}

// unpackKey reverses packKey.
func unpackKey(v uint32) key {
	return key{block: flash.BlockID(v >> 8), subKey: int(v&0xff) - 1}
}

// runPageMeta is the decoded form of a run page's spare area.
type runPageMeta struct {
	runID      uint64
	pageIndex  int
	totalPages int
	minKey     key
	maxKey     key
	writeSeq   uint64
	ppn        flash.PPN
}

// encodeRunPageSpare packs run-page metadata into a spare area. It carries
// everything Appendix C.1 needs to rebuild run directories from a spare-area
// scan: the run ID, the page's index and the run's total page count (to
// detect partially written runs), and the page's key range. The run's level
// is not stored; recovery derives it from the total page count via
// Config.LevelOfRunPages. The layout uses the two free-form 64-bit fields of
// the simulated spare area:
//
//	Tag = runID (32 bits) | pageIndex (16 bits) | totalPages (16 bits)
//	Aux = packed minKey (32 bits) | packed maxKey (32 bits)
func encodeRunPageSpare(runID uint64, pageIndex, totalPages int, minKey, maxKey key) flash.SpareArea {
	return flash.SpareArea{
		Logical:   flash.InvalidLPN,
		BlockType: flash.BlockGecko,
		Tag:       (runID&0xffffffff)<<32 | uint64(pageIndex&0xffff)<<16 | uint64(totalPages&0xffff),
		Aux:       uint64(packKey(minKey))<<32 | uint64(packKey(maxKey)),
	}
}

// decodeRunPageSpare reverses encodeRunPageSpare.
func decodeRunPageSpare(spare flash.SpareArea, ppn flash.PPN) runPageMeta {
	return runPageMeta{
		runID:      spare.Tag >> 32,
		pageIndex:  int(spare.Tag >> 16 & 0xffff),
		totalPages: int(spare.Tag & 0xffff),
		minKey:     unpackKey(uint32(spare.Aux >> 32)),
		maxKey:     unpackKey(uint32(spare.Aux)),
		writeSeq:   spare.WriteSeq,
		ppn:        ppn,
	}
}

// directoryLookup returns the index of the page of r whose key range may
// contain entries for the given block, or -1 when no page overlaps it. Run
// directories let a GC query read at most one page per run.
func (r *run) directoryLookup(block flash.BlockID) int {
	lo := key{block, WholeBlock}
	hi := key{block, int(^uint(0) >> 1)}
	for i := range r.pages {
		p := &r.pages[i]
		if p.maxKey.less(lo) {
			continue
		}
		if hi.less(p.minKey) {
			return -1
		}
		return i
	}
	return -1
}

// directoryLookupAll returns the indices of every page of r whose key range
// overlaps the block. With entry-partitioning a block's sub-entries can
// straddle a page boundary, in which case a GC query must read both pages.
func (r *run) directoryLookupAll(block flash.BlockID) []int {
	lo := key{block, WholeBlock}
	hi := key{block, int(^uint(0) >> 1)}
	var out []int
	for i := range r.pages {
		p := &r.pages[i]
		if p.maxKey.less(lo) {
			continue
		}
		if hi.less(p.minKey) {
			break
		}
		out = append(out, i)
	}
	return out
}

// entriesForBlock returns the entries of a single run page that belong to the
// block, and whether one of them carries the erase flag.
func entriesForBlock(entries []Entry, block flash.BlockID) (chunks []Entry, erased bool) {
	for i := range entries {
		e := &entries[i]
		if e.Block != block {
			continue
		}
		if e.EraseFlag {
			erased = true
		}
		if e.SubKey != WholeBlock {
			chunks = append(chunks, e.Clone())
		}
	}
	return chunks, erased
}

// ramBytes returns the integrated-RAM footprint of the run's directory: one
// (key range, physical address) record per page, 2*4 bytes of key bounds plus
// 8 bytes of address, matching the Appendix B accounting of two I4 integers
// per directory entry (the paper charges 8 bytes; we charge the full 16 to be
// conservative about the packed key bounds).
func (r *run) ramBytes() int64 {
	return int64(len(r.pages)) * 16
}

func (r *run) String() string {
	return fmt.Sprintf("run(id=%d level=%d pages=%d)", r.id, r.level, len(r.pages))
}
