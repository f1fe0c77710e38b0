package ftl

import (
	"fmt"
	"sort"

	"geckoftl/internal/flash"
)

// mappingEntryBytes is the size of one mapping entry in a translation page:
// a 4-byte physical address, as in Section 2 of the paper.
const mappingEntryBytes = 4

// translationTable is the flash-resident page-associative translation table
// of DFTL-style FTLs, together with its RAM-resident Global Mapping Directory
// (GMD).
//
// The table maps every logical page to the physical page that holds its
// current flash-resident version. Mapping entries are grouped into
// translation pages of entriesPerPage consecutive logical pages; the GMD
// records where the newest version of each translation page lives. The table
// also keeps, per logical page, the mapping value as stored in flash: this
// mirror is the translation pages' content. It stays in RAM, not in page
// payloads, because it is updated in place per logical page; moving it to
// flash means a copy-on-write of each translation page at every sync.
// Cached, possibly newer values live in the FTL's LRU cache and reach the
// table only through synchronization operations.
// prevVersion preserves the location and content of a translation page as it
// was before the first update since the last Gecko buffer flush; buffer
// recovery (Appendix C.2.2) diffs against it.
type prevVersion struct {
	location flash.PPN
	content  []flash.PPN
}

type translationTable struct {
	bm            *blockManager
	logicalPages  int64
	entriesPerTP  int
	pages         int
	gmd           []flash.PPN // current location of each translation page
	flashMapping  []flash.PPN // flash-resident mapping value per logical page
	prevVersions  map[int]prevVersion
	protectBlocks map[flash.BlockID]bool
	syncOps       int64
	aborted       int64
}

// newTranslationTable creates the table for the given number of logical
// pages. Every mapping starts out unmapped (InvalidPPN) and no translation
// page exists in flash until the first synchronization touches it.
func newTranslationTable(bm *blockManager, logicalPages int64, pageSize int) *translationTable {
	entriesPerTP := pageSize / mappingEntryBytes
	pages := int((logicalPages + int64(entriesPerTP) - 1) / int64(entriesPerTP))
	t := &translationTable{
		bm:            bm,
		logicalPages:  logicalPages,
		entriesPerTP:  entriesPerTP,
		pages:         pages,
		gmd:           make([]flash.PPN, pages),
		flashMapping:  make([]flash.PPN, logicalPages),
		prevVersions:  make(map[int]prevVersion),
		protectBlocks: make(map[flash.BlockID]bool),
	}
	for i := range t.gmd {
		t.gmd[i] = flash.InvalidPPN
	}
	for i := range t.flashMapping {
		t.flashMapping[i] = flash.InvalidPPN
	}
	return t
}

// EntriesPerPage returns the number of mapping entries per translation page.
func (t *translationTable) EntriesPerPage() int { return t.entriesPerTP }

// Pages returns the number of translation pages.
func (t *translationTable) Pages() int { return t.pages }

// SyncOps returns the number of synchronization operations performed.
func (t *translationTable) SyncOps() int64 { return t.syncOps }

// AbortedSyncOps returns the number of synchronization operations aborted
// because every participating entry turned out to be clean (Appendix C.3.1).
func (t *translationTable) AbortedSyncOps() int64 { return t.aborted }

// pageOf returns the translation page index covering a logical page.
func (t *translationTable) pageOf(lpn flash.LPN) int {
	return int(int64(lpn) / int64(t.entriesPerTP))
}

// FlashEntry returns the mapping for lpn as currently recorded in flash.
func (t *translationTable) FlashEntry(lpn flash.LPN) flash.PPN {
	return t.flashMapping[lpn]
}

// ReadEntry performs the flash read of the translation page covering lpn (a
// cache miss path) and returns the flash-resident mapping. If the translation
// page has never been written, no IO happens and the mapping is unmapped.
func (t *translationTable) ReadEntry(lpn flash.LPN, p flash.Purpose) (flash.PPN, error) {
	tp := t.pageOf(lpn)
	if loc := t.gmd[tp]; loc != flash.InvalidPPN {
		if _, err := t.bm.dev.ReadPage(loc, p); err != nil {
			return flash.InvalidPPN, err
		}
	}
	return t.flashMapping[lpn], nil
}

// dirtyUpdate is one cached mapping entry participating in a synchronization
// operation.
type dirtyUpdate struct {
	Logical  flash.LPN
	Physical flash.PPN
}

// Synchronize performs a synchronization operation on one translation page
// (Section 4, "Synchronization Operations"): it reads the current version of
// the translation page, applies the dirty cached mapping entries that belong
// to it, writes the updated page out-of-place into the translation block
// group, updates the GMD and invalidates the old version.
//
// It returns the physical pages that held the previous versions of the
// updated logical pages (the before-images): the caller reports them to the
// page-validity store, which is how invalid user pages are identified lazily
// (Section 4.1).
//
// If updates is empty the operation is aborted at no cost beyond the read
// that discovered it (Appendix C.3.1 relies on this).
func (t *translationTable) Synchronize(tp int, updates []dirtyUpdate) (beforeImages []flash.PPN, err error) {
	if tp < 0 || tp >= t.pages {
		return nil, fmt.Errorf("ftl: translation page %d out of range [0,%d)", tp, t.pages)
	}
	old := t.gmd[tp]
	if old != flash.InvalidPPN {
		if _, err := t.bm.dev.ReadPage(old, flash.PurposeTranslation); err != nil {
			return nil, err
		}
	}
	if len(updates) == 0 {
		t.aborted++
		return nil, nil
	}
	t.syncOps++

	// Preserve the previous content of this translation page so that the
	// recovery procedure can rebuild Logarithmic Gecko's buffer by diffing
	// translation-page versions (Appendix C.2.2). The snapshot is dropped
	// when the Gecko buffer flushes (ClearProtected).
	if _, ok := t.prevVersions[tp]; !ok {
		t.prevVersions[tp] = prevVersion{location: old, content: t.snapshot(tp)}
		if old != flash.InvalidPPN {
			t.protectBlocks[flash.BlockOf(old, t.bm.cfg.PagesPerBlock)] = true
		}
	}

	for _, u := range updates {
		if t.pageOf(u.Logical) != tp {
			return nil, fmt.Errorf("ftl: update for logical page %d does not belong to translation page %d", u.Logical, tp)
		}
		prev := t.flashMapping[u.Logical]
		if prev != flash.InvalidPPN && prev != u.Physical {
			beforeImages = append(beforeImages, prev)
		}
		t.flashMapping[u.Logical] = u.Physical
	}

	// Aux carries the content sequence: the newest write sequence the
	// mapping content of this version reflects. Synchronize includes every
	// dirty cached entry of the translation page, so the content is current
	// up to this instant. Garbage-collection copies of the page refresh its
	// WriteSeq but preserve Aux, which is what lets recovery date the
	// durable mapping state (see recoverDirtyEntries).
	spare := flash.SpareArea{Logical: flash.InvalidLPN, Tag: uint64(tp), Aux: t.bm.LastWriteSeq()}
	loc, err := t.bm.AllocatePage(GroupTranslation, spare, nil, flash.PurposeTranslation)
	if err != nil {
		return nil, err
	}
	if old != flash.InvalidPPN {
		if err := t.bm.InvalidatePage(old); err != nil {
			return nil, err
		}
	}
	t.gmd[tp] = loc
	return beforeImages, nil
}

// snapshot copies the current flash-resident mapping values of a translation
// page.
func (t *translationTable) snapshot(tp int) []flash.PPN {
	start := int64(tp) * int64(t.entriesPerTP)
	end := start + int64(t.entriesPerTP)
	if end > t.logicalPages {
		end = t.logicalPages
	}
	out := make([]flash.PPN, end-start)
	copy(out, t.flashMapping[start:end])
	return out
}

// PreviousVersion returns the preserved pre-update version of a translation
// page, if one is protected, together with the first logical page it covers.
func (t *translationTable) PreviousVersion(tp int) (start flash.LPN, prev prevVersion, ok bool) {
	prev, ok = t.prevVersions[tp]
	return flash.LPN(int64(tp) * int64(t.entriesPerTP)), prev, ok
}

// UpdatedSinceProtection returns the translation pages with a protected
// previous version, i.e. those updated since the last Gecko buffer flush.
// The result is sorted: recovery replays invalidations in this order into
// Logarithmic Gecko's buffer, and a map-ordered replay could flush different
// buffer contents on different runs of the same seeded simulation (the
// buffer drains whenever it fills mid-replay), breaking reproducibility.
func (t *translationTable) UpdatedSinceProtection() []int {
	out := make([]int, 0, len(t.prevVersions))
	for tp := range t.prevVersions {
		out = append(out, tp)
	}
	sort.Ints(out)
	return out
}

// ProtectedBlocks returns the blocks that must not be erased because they
// hold previous translation-page versions needed for buffer recovery.
func (t *translationTable) ProtectedBlocks() map[flash.BlockID]bool { return t.protectBlocks }

// ClearProtected drops the protected previous versions; the FTL calls it
// whenever Logarithmic Gecko's buffer is flushed.
func (t *translationTable) ClearProtected() {
	t.prevVersions = make(map[int]prevVersion)
	t.protectBlocks = make(map[flash.BlockID]bool)
}

// GMDLocation returns the current flash location of a translation page.
func (t *translationTable) GMDLocation(tp int) flash.PPN { return t.gmd[tp] }

// SetGMDLocation restores a GMD entry; recovery uses it.
func (t *translationTable) SetGMDLocation(tp int, ppn flash.PPN) { t.gmd[tp] = ppn }

// RAMBytes returns the integrated-RAM footprint of the GMD: 4 bytes per
// translation page, as in Section 2 of the paper.
func (t *translationTable) RAMBytes() int64 { return int64(t.pages) * 4 }

// CrashRAM models the loss of the GMD at power failure. The flash-resident
// mapping content survives (it is flash), as do the protected previous
// versions (they are flash pages that were deliberately not erased).
func (t *translationTable) CrashRAM() {
	for i := range t.gmd {
		t.gmd[i] = flash.InvalidPPN
	}
}
