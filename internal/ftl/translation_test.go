package ftl

import (
	"testing"

	"geckoftl/internal/flash"
)

func newTestTable(t *testing.T) (*blockManager, *translationTable, *flash.Device) {
	t.Helper()
	dev := newTestDevice(t, 16, 8, 512)
	bm := newBlockManager(dev, 2, false, false)
	table := newTranslationTable(bm, int64(dev.Config().LogicalPages()), dev.Config().PageSize)
	return bm, table, dev
}

func TestTranslationTableGeometry(t *testing.T) {
	_, table, dev := newTestTable(t)
	if got, want := table.EntriesPerPage(), dev.Config().PageSize/4; got != want {
		t.Errorf("EntriesPerPage = %d, want %d", got, want)
	}
	logical := int64(dev.Config().LogicalPages())
	wantPages := int((logical + int64(table.EntriesPerPage()) - 1) / int64(table.EntriesPerPage()))
	if table.Pages() != wantPages {
		t.Errorf("Pages = %d, want %d", table.Pages(), wantPages)
	}
	if table.RAMBytes() != int64(wantPages)*4 {
		t.Errorf("RAMBytes = %d, want %d", table.RAMBytes(), wantPages*4)
	}
}

func TestTranslationTableUnmappedReadsAreFree(t *testing.T) {
	_, table, dev := newTestTable(t)
	ppn, err := table.ReadEntry(5, flash.PurposeTranslation)
	if err != nil {
		t.Fatal(err)
	}
	if ppn != flash.InvalidPPN {
		t.Errorf("unmapped entry = %d, want InvalidPPN", ppn)
	}
	c := dev.Counters()
	if c.TotalOp(flash.OpPageRead) != 0 {
		t.Error("reading an entry of a never-written translation page cost IO")
	}
}

func TestTranslationTableSynchronizeRoundTrip(t *testing.T) {
	bm, table, dev := newTestTable(t)
	updates := []dirtyUpdate{{Logical: 1, Physical: 100}, {Logical: 2, Physical: 200}}
	before, err := table.Synchronize(0, updates)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 0 {
		t.Errorf("first synchronization returned before-images %v", before)
	}
	if table.FlashEntry(1) != 100 || table.FlashEntry(2) != 200 {
		t.Error("flash mapping not updated")
	}
	loc := table.GMDLocation(0)
	if loc == flash.InvalidPPN {
		t.Fatal("GMD not updated")
	}
	if g, ok := bm.GroupOf(flash.BlockOf(loc, dev.Config().PagesPerBlock)); !ok || g != GroupTranslation {
		t.Error("translation page not written into the translation block group")
	}

	// A second synchronization that changes page 1 returns its before-image
	// and invalidates the old translation page in the BVC.
	oldLoc := loc
	before, err = table.Synchronize(0, []dirtyUpdate{{Logical: 1, Physical: 111}})
	if err != nil {
		t.Fatal(err)
	}
	if len(before) != 1 || before[0] != 100 {
		t.Errorf("before-images = %v, want [100]", before)
	}
	if table.GMDLocation(0) == oldLoc {
		t.Error("GMD still points at the old translation page")
	}
	if bm.ValidCount(flash.BlockOf(oldLoc, dev.Config().PagesPerBlock)) != 1 {
		t.Errorf("old translation page not invalidated in BVC")
	}
	if table.SyncOps() != 2 {
		t.Errorf("SyncOps = %d, want 2", table.SyncOps())
	}
}

func TestTranslationTableAbortsEmptySynchronization(t *testing.T) {
	_, table, dev := newTestTable(t)
	if _, err := table.Synchronize(0, []dirtyUpdate{{Logical: 3, Physical: 30}}); err != nil {
		t.Fatal(err)
	}
	writesBefore := dev.Counters()
	if _, err := table.Synchronize(0, nil); err != nil {
		t.Fatal(err)
	}
	delta := dev.Counters().Sub(writesBefore)
	if delta.TotalOp(flash.OpPageWrite) != 0 {
		t.Error("aborted synchronization wrote a page")
	}
	if table.AbortedSyncOps() != 1 {
		t.Errorf("AbortedSyncOps = %d, want 1", table.AbortedSyncOps())
	}
}

func TestTranslationTableRejectsForeignUpdates(t *testing.T) {
	_, table, _ := newTestTable(t)
	if _, err := table.Synchronize(-1, nil); err == nil {
		t.Error("negative translation page accepted")
	}
	if _, err := table.Synchronize(table.Pages(), nil); err == nil {
		t.Error("out-of-range translation page accepted")
	}
	// An update whose logical page belongs to another translation page.
	foreign := flash.LPN(int64(table.EntriesPerPage()))
	if int(foreign) < int(table.logicalPages) {
		if _, err := table.Synchronize(0, []dirtyUpdate{{Logical: foreign, Physical: 9}}); err == nil {
			t.Error("update for a foreign translation page accepted")
		}
	}
}

func TestTranslationTableProtectsPreviousVersions(t *testing.T) {
	_, table, dev := newTestTable(t)
	if _, err := table.Synchronize(0, []dirtyUpdate{{Logical: 1, Physical: 10}}); err != nil {
		t.Fatal(err)
	}
	firstLoc := table.GMDLocation(0)
	// A Gecko buffer flush clears the protection window; the next update to
	// the translation page starts a new one whose snapshot is the state as
	// of that flush.
	table.ClearProtected()
	if _, err := table.Synchronize(0, []dirtyUpdate{{Logical: 1, Physical: 20}}); err != nil {
		t.Fatal(err)
	}
	tps := table.UpdatedSinceProtection()
	if len(tps) != 1 || tps[0] != 0 {
		t.Fatalf("UpdatedSinceProtection = %v", tps)
	}
	start, prev, ok := table.PreviousVersion(0)
	if !ok || start != 0 {
		t.Fatalf("PreviousVersion missing: start=%d ok=%v", start, ok)
	}
	if prev.content[1] != 10 {
		t.Errorf("previous content of logical 1 = %d, want 10", prev.content[1])
	}
	if prev.location != firstLoc {
		t.Errorf("previous location = %d, want %d", prev.location, firstLoc)
	}
	if !table.ProtectedBlocks()[flash.BlockOf(firstLoc, dev.Config().PagesPerBlock)] {
		t.Error("block of the previous version not protected")
	}
	table.ClearProtected()
	if len(table.UpdatedSinceProtection()) != 0 || len(table.ProtectedBlocks()) != 0 {
		t.Error("ClearProtected left state behind")
	}
}

func TestTranslationTableCrashDropsGMDOnly(t *testing.T) {
	_, table, _ := newTestTable(t)
	if _, err := table.Synchronize(0, []dirtyUpdate{{Logical: 1, Physical: 10}}); err != nil {
		t.Fatal(err)
	}
	table.CrashRAM()
	if table.GMDLocation(0) != flash.InvalidPPN {
		t.Error("GMD survived CrashRAM")
	}
	// The flash-resident mapping content survives (it models flash).
	if table.FlashEntry(1) != 10 {
		t.Error("flash mapping lost at CrashRAM")
	}
}

func TestGroupStoreRoundTrip(t *testing.T) {
	bm, _, dev := newTestTable(t)
	store := &groupStore{bm: bm}
	ppn, err := store.Append(flash.SpareArea{Tag: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Read(ppn); err != nil {
		t.Fatal(err)
	}
	spare, ok, err := store.ReadSpare(ppn)
	if err != nil || !ok || spare.Tag != 7 {
		t.Fatalf("spare = %+v ok=%v err=%v", spare, ok, err)
	}
	if err := store.Invalidate(ppn); err != nil {
		t.Fatal(err)
	}
	blocks := store.Blocks()
	if len(blocks) != 1 || blocks[0] != flash.BlockOf(ppn, dev.Config().PagesPerBlock) {
		t.Errorf("Blocks = %v", blocks)
	}
	if g, ok := bm.GroupOf(blocks[0]); !ok || g != GroupMeta {
		t.Error("group store did not allocate from the metadata group")
	}
	c := dev.Counters()
	if c.Count(flash.OpPageWrite, flash.PurposePageValidity) != 1 {
		t.Error("group store write not attributed to page-validity")
	}
}
