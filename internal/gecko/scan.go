package gecko

import (
	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
)

// ScanValidity reads every live run page once (newest run to oldest) and
// returns the reconstructed page-validity bitmap of every block that has at
// least one invalid page. A set bit means the page is invalid.
//
// This is the bulk counterpart of Query used by GeckoRec step 5 (Appendix C):
// rebuilding the Blocks Validity Counter needs the validity of every block,
// and scanning the O(K*B/P) Gecko pages once is far cheaper than issuing K
// separate GC queries. The IO charged is one page read per live run page.
func (g *Gecko) ScanValidity() (map[flash.BlockID]*bitmap.Bitmap, error) {
	result := make(map[flash.BlockID]*bitmap.Bitmap)
	// skip holds blocks whose erase entry has been seen in a newer source;
	// entries for them in older sources are obsolete.
	skip := make(map[flash.BlockID]bool)

	fold := func(entries []Entry) []flash.BlockID {
		var erased []flash.BlockID
		for _, e := range entries {
			if skip[e.Block] {
				continue
			}
			if e.EraseFlag && e.SubKey == WholeBlock {
				erased = append(erased, e.Block)
				continue
			}
			if e.Bits == nil {
				continue
			}
			bm, ok := result[e.Block]
			if !ok {
				bm = bitmap.New(g.cfg.PagesPerBlock)
				result[e.Block] = bm
			}
			offset := 0
			if g.cfg.PartitionFactor > 1 && e.SubKey > 0 {
				offset = e.SubKey * g.cfg.BitsPerEntry()
			}
			width := e.Bits.Len()
			if offset+width > bm.Len() {
				width = bm.Len() - offset
			}
			if width > 0 {
				bm.OrRange(offset, e.Bits.Slice(0, width))
			}
		}
		return erased
	}

	// The buffer is the newest source.
	for _, block := range fold(g.buf.snapshot()) {
		skip[block] = true
	}
	for _, r := range g.runsNewestFirst() {
		var erasedInRun []flash.BlockID
		for i := range r.pages {
			entries, err := g.readRunPage(r, i)
			if err != nil {
				return nil, err
			}
			erasedInRun = append(erasedInRun, fold(entries)...)
		}
		// Entries within the same run as an erase entry postdate the erase,
		// so the block is only skipped for older runs.
		for _, block := range erasedInRun {
			skip[block] = true
		}
	}
	return result, nil
}
