package gecko

import "geckoftl/internal/flash"

// LivePages returns the physical addresses of every flash page currently
// occupied by a live run. The FTL's recovery procedure uses it to rebuild the
// Blocks Validity Counter entries of metadata blocks, and the examples use it
// to report space usage.
func (g *Gecko) LivePages() []flash.PPN {
	var out []flash.PPN
	for _, lvl := range g.levels {
		for _, r := range lvl {
			for i := range r.pages {
				out = append(out, r.pages[i].ppn)
			}
		}
	}
	return out
}

// IsLive reports whether the given flash page belongs to a live run.
// GeckoFTL's metadata-aware garbage-collector never needs this (it never
// targets metadata blocks), but the greedy-policy ablation does: a greedy
// collector that picks a Gecko block must know which of its pages to migrate.
func (g *Gecko) IsLive(ppn flash.PPN) bool {
	return g.findPage(ppn) != nil
}

// Relocate informs the structure that the garbage-collector moved one of its
// live run pages, payload included, to a new location, updating the run
// directory. It reports whether the old location was live.
func (g *Gecko) Relocate(old, new flash.PPN) bool {
	p := g.findPage(old)
	if p == nil {
		return false
	}
	p.ppn = new
	return true
}

// findPage returns the directory record of the live run page at ppn, or nil.
func (g *Gecko) findPage(ppn flash.PPN) *runPage {
	for _, lvl := range g.levels {
		for _, r := range lvl {
			for i := range r.pages {
				if r.pages[i].ppn == ppn {
					return &r.pages[i]
				}
			}
		}
	}
	return nil
}
