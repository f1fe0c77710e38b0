package ftl

import (
	"testing"

	"geckoftl/internal/flash"
)

func newTestDevice(t *testing.T, blocks, pagesPerBlock, pageSize int) *flash.Device {
	t.Helper()
	cfg := flash.ScaledConfig(blocks)
	cfg.PagesPerBlock = pagesPerBlock
	cfg.PageSize = pageSize
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestGroupNamesAndTypes(t *testing.T) {
	if GroupUser.String() != "user" || GroupTranslation.String() != "translation" || GroupMeta.String() != "meta" {
		t.Error("group names wrong")
	}
	if Group(9).String() == "" {
		t.Error("unknown group has empty name")
	}
	if GroupUser.blockType() != flash.BlockUser || GroupTranslation.blockType() != flash.BlockTranslation || GroupMeta.blockType() != flash.BlockGecko {
		t.Error("group block types wrong")
	}
	if GroupUser.purpose() != flash.PurposeUserWrite || GroupTranslation.purpose() != flash.PurposeTranslation || GroupMeta.purpose() != flash.PurposePageValidity {
		t.Error("group purposes wrong")
	}
	if VictimGreedy.String() != "greedy" || VictimMetadataAware.String() != "metadata-aware" {
		t.Error("victim policy names wrong")
	}
}

func TestBlockManagerAllocation(t *testing.T) {
	dev := newTestDevice(t, 8, 4, 512)
	bm := newBlockManager(dev, 2, false, false)
	if bm.FreeBlocks() != 8 {
		t.Fatalf("FreeBlocks = %d, want 8", bm.FreeBlocks())
	}
	// Allocate five user pages: they fill one block and start a second.
	var ppns []flash.PPN
	for i := 0; i < 5; i++ {
		ppn, err := bm.AllocatePage(GroupUser, flash.SpareArea{Logical: flash.LPN(i)}, nil, flash.PurposeUserWrite)
		if err != nil {
			t.Fatal(err)
		}
		ppns = append(ppns, ppn)
	}
	firstBlock := flash.BlockOf(ppns[0], 4)
	secondBlock := flash.BlockOf(ppns[4], 4)
	if firstBlock == secondBlock {
		t.Error("five pages with 4 pages/block stayed in one block")
	}
	if g, ok := bm.GroupOf(firstBlock); !ok || g != GroupUser {
		t.Errorf("first block group = %v, %v", g, ok)
	}
	if bm.ValidCount(firstBlock) != 4 {
		t.Errorf("BVC of full block = %d, want 4", bm.ValidCount(firstBlock))
	}
	if bm.FreeBlocks() != 6 {
		t.Errorf("FreeBlocks = %d, want 6", bm.FreeBlocks())
	}
	// The block type is stamped on the first page of each block.
	spare, ok, err := dev.ReadSpare(ppns[0], flash.PurposeRecovery)
	if err != nil || !ok || spare.BlockType != flash.BlockUser {
		t.Errorf("first page spare = %+v", spare)
	}
}

func TestBlockManagerGroupsAreSeparate(t *testing.T) {
	dev := newTestDevice(t, 8, 4, 512)
	bm := newBlockManager(dev, 2, false, false)
	up, _ := bm.AllocatePage(GroupUser, flash.SpareArea{}, nil, flash.PurposeUserWrite)
	tp, _ := bm.AllocatePage(GroupTranslation, flash.SpareArea{}, nil, flash.PurposeTranslation)
	mp, _ := bm.AllocatePage(GroupMeta, flash.SpareArea{}, nil, flash.PurposePageValidity)
	blocks := map[flash.BlockID]bool{}
	for _, ppn := range []flash.PPN{up, tp, mp} {
		blocks[flash.BlockOf(ppn, 4)] = true
	}
	if len(blocks) != 3 {
		t.Errorf("groups share blocks: %v", blocks)
	}
	if got := bm.BlocksInGroup(GroupUser); len(got) != 1 {
		t.Errorf("user group blocks = %v", got)
	}
}

func TestBlockManagerInvalidateAndErase(t *testing.T) {
	dev := newTestDevice(t, 8, 4, 512)
	bm := newBlockManager(dev, 2, false, false)
	var ppns []flash.PPN
	for i := 0; i < 8; i++ { // two full user blocks
		ppn, err := bm.AllocatePage(GroupUser, flash.SpareArea{}, nil, flash.PurposeUserWrite)
		if err != nil {
			t.Fatal(err)
		}
		ppns = append(ppns, ppn)
	}
	block := flash.BlockOf(ppns[0], 4)
	for _, ppn := range ppns[:4] {
		if err := bm.InvalidatePage(ppn); err != nil {
			t.Fatal(err)
		}
	}
	if bm.ValidCount(block) != 0 {
		t.Errorf("BVC = %d, want 0", bm.ValidCount(block))
	}
	if err := bm.InvalidatePage(ppns[0]); err == nil {
		t.Error("BVC underflow not detected")
	}
	fully := bm.FullyInvalidBlocks(GroupUser)
	if len(fully) != 1 || fully[0] != block {
		t.Errorf("FullyInvalidBlocks = %v, want [%d]", fully, block)
	}
	if err := bm.Erase(block, flash.PurposeGCErase); err != nil {
		t.Fatal(err)
	}
	if bm.FreeBlocks() != 6+1 {
		t.Errorf("FreeBlocks after erase = %d", bm.FreeBlocks())
	}
	if _, allocated := bm.GroupOf(block); allocated {
		t.Error("erased block still allocated")
	}
	if bm.Erases() != 1 {
		t.Errorf("Erases = %d, want 1", bm.Erases())
	}
}

func TestBlockManagerEraseGuards(t *testing.T) {
	dev := newTestDevice(t, 8, 4, 512)
	bm := newBlockManager(dev, 2, false, false)
	if err := bm.Erase(3, flash.PurposeGCErase); err == nil {
		t.Error("erasing an unallocated block accepted")
	}
	ppn, _ := bm.AllocatePage(GroupUser, flash.SpareArea{}, nil, flash.PurposeUserWrite)
	active := flash.BlockOf(ppn, 4)
	if err := bm.Erase(active, flash.PurposeGCErase); err == nil {
		t.Error("erasing the active block accepted")
	}
	if err := bm.InvalidatePage(flash.PPNOf(5, 0, 4)); err == nil {
		t.Error("invalidating a page of an unallocated block accepted")
	}
}

func TestVictimPolicies(t *testing.T) {
	dev := newTestDevice(t, 8, 4, 512)
	bm := newBlockManager(dev, 2, false, false)
	// Fill one user block (4 pages, 1 invalid), one translation block
	// (4 pages, all invalid) and leave actives partially filled.
	var userPPNs, transPPNs []flash.PPN
	for i := 0; i < 5; i++ {
		ppn, _ := bm.AllocatePage(GroupUser, flash.SpareArea{}, nil, flash.PurposeUserWrite)
		userPPNs = append(userPPNs, ppn)
	}
	for i := 0; i < 5; i++ {
		ppn, _ := bm.AllocatePage(GroupTranslation, flash.SpareArea{}, nil, flash.PurposeTranslation)
		transPPNs = append(transPPNs, ppn)
	}
	bm.InvalidatePage(userPPNs[0])
	for _, ppn := range transPPNs[:4] {
		bm.InvalidatePage(ppn)
	}
	userBlock := flash.BlockOf(userPPNs[0], 4)
	transBlock := flash.BlockOf(transPPNs[0], 4)

	// Greedy picks the emptiest block regardless of group: the translation
	// block with 0 valid pages.
	victim, ok := bm.PickVictim(VictimGreedy, nil)
	if !ok || victim != transBlock {
		t.Errorf("greedy victim = %d, %v; want translation block %d", victim, ok, transBlock)
	}
	// Metadata-aware only ever picks user blocks.
	victim, ok = bm.PickVictim(VictimMetadataAware, nil)
	if !ok || victim != userBlock {
		t.Errorf("metadata-aware victim = %d, %v; want user block %d", victim, ok, userBlock)
	}
	// Exclusions are honored.
	if _, ok := bm.PickVictim(VictimMetadataAware, map[flash.BlockID]bool{userBlock: true}); ok {
		t.Error("excluded block still picked")
	}
}

func TestBlockManagerCrashAndRecencyOrder(t *testing.T) {
	dev := newTestDevice(t, 8, 4, 512)
	bm := newBlockManager(dev, 2, false, false)
	for i := 0; i < 9; i++ {
		if _, err := bm.AllocatePage(GroupUser, flash.SpareArea{}, nil, flash.PurposeUserWrite); err != nil {
			t.Fatal(err)
		}
	}
	recency := bm.userBlocksByRecency()
	if len(recency) != 3 {
		t.Fatalf("user blocks = %d, want 3", len(recency))
	}
	for i := 1; i < len(recency); i++ {
		if bm.blocks[recency[i-1]].firstWriteSeq < bm.blocks[recency[i]].firstWriteSeq {
			t.Error("recency order not newest-first")
		}
	}
	bm.CrashRAM()
	if bm.FreeBlocks() != 0 {
		t.Error("CrashRAM should drop the free list (it is RAM state)")
	}
	if _, allocated := bm.GroupOf(0); allocated {
		t.Error("CrashRAM left allocation state")
	}
}

func TestBlockManagerRAMBytes(t *testing.T) {
	dev := newTestDevice(t, 128, 4, 512)
	bm := newBlockManager(dev, 2, false, false)
	if got := bm.RAMBytes(); got != 128*3 {
		t.Errorf("RAMBytes = %d, want %d", got, 128*3)
	}
}
