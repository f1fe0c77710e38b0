package ftl

import (
	"testing"

	"geckoftl/internal/flash"
)

func TestHeatClassifierDisabled(t *testing.T) {
	h := newHeatClassifier(false, 1024, 0, 0)
	for lpn := int64(0); lpn < 10; lpn++ {
		if temp := h.classify(lpn); temp != TempCold {
			t.Fatalf("disabled classifier returned %v", temp)
		}
	}
	if h.RAMBytes() != 0 {
		t.Errorf("disabled classifier charges %d RAM bytes", h.RAMBytes())
	}
}

func TestHeatClassifierSeparatesHotFromCold(t *testing.T) {
	const pages = 1024
	h := newHeatClassifier(true, pages, 0, 0)
	// Interleave a hot page (rewritten every 8 writes) with a cold sweep
	// that touches each page once: the hot page must cross the threshold,
	// the sweep must not.
	hotAsHot, coldAsHot := 0, 0
	cold := int64(1)
	for i := 0; i < 4096; i++ {
		if i%8 == 0 {
			if h.classify(0) == TempHot {
				hotAsHot++
			}
			continue
		}
		if h.classify(cold) == TempHot {
			coldAsHot++
		}
		cold = 1 + (cold % (pages - 1))
	}
	if hotAsHot < 256 {
		t.Errorf("hot page classified hot only %d times", hotAsHot)
	}
	if coldAsHot > 100 {
		t.Errorf("cold sweep classified hot %d times", coldAsHot)
	}
	if h.RAMBytes() != pages*4 {
		t.Errorf("classifier RAM = %d, want %d", h.RAMBytes(), pages*4)
	}
	h.CrashRAM()
	if h.classify(0) == TempHot {
		t.Error("heat survived CrashRAM")
	}
}

func TestHotColdFrontiersFillDistinctBlocks(t *testing.T) {
	cfg := flash.ScaledConfig(16)
	cfg.PagesPerBlock = 4
	cfg.PageSize = 512
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm := newBlockManager(dev, 2, true, false)
	hot, err := bm.AllocateUserPage(TempHot, flash.SpareArea{Logical: 1}, flash.PurposeUserWrite)
	if err != nil {
		t.Fatal(err)
	}
	cold, err := bm.AllocateUserPage(TempCold, flash.SpareArea{Logical: 2}, flash.PurposeUserWrite)
	if err != nil {
		t.Fatal(err)
	}
	if flash.BlockOf(hot, cfg.PagesPerBlock) == flash.BlockOf(cold, cfg.PagesPerBlock) {
		t.Fatalf("hot page %d and cold page %d share a block despite separation", hot, cold)
	}
	// Both frontiers are active: neither block may be erased or picked.
	if bm.isActive(flash.BlockOf(hot, cfg.PagesPerBlock)) != true {
		t.Error("hot frontier block not active")
	}
	if _, ok := bm.PickVictim(VictimGreedy, nil); ok {
		t.Error("active frontier blocks offered as victims")
	}

	// Without separation, every temperature lands on the one user frontier.
	dev2, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bmOff := newBlockManager(dev2, 2, false, false)
	h2, err := bmOff.AllocateUserPage(TempHot, flash.SpareArea{Logical: 3}, flash.PurposeUserWrite)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := bmOff.AllocateUserPage(TempCold, flash.SpareArea{Logical: 4}, flash.PurposeUserWrite)
	if err != nil {
		t.Fatal(err)
	}
	if flash.BlockOf(h2, cfg.PagesPerBlock) != flash.BlockOf(c2, cfg.PagesPerBlock) {
		t.Error("separation disabled but temperatures landed on different blocks")
	}
}

func TestWearAwareTakesColdestFreeBlock(t *testing.T) {
	cfg := flash.ScaledConfig(8)
	cfg.PagesPerBlock = 2
	cfg.PageSize = 512
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm := newBlockManager(dev, 2, false, true)
	// Cycle a few blocks through allocate/erase to wear them, then free
	// everything and check the allocator prefers the unworn ones.
	worn := map[flash.BlockID]bool{}
	for i := 0; i < 3; i++ {
		id, err := bm.takeFreeBlock(GroupUser)
		if err != nil {
			t.Fatal(err)
		}
		worn[id] = true
		if _, err := dev.WritePage(flash.PPNOf(id, 0, cfg.PagesPerBlock), flash.SpareArea{}, nil, flash.PurposeUserWrite); err != nil {
			t.Fatal(err)
		}
		bm.blocks[id].writePointer = cfg.PagesPerBlock // full, victim-eligible
		if err := bm.Erase(id, flash.PurposeGCErase); err != nil {
			t.Fatal(err)
		}
	}
	// The three just-erased blocks are back in the pool with erase count 1;
	// the allocator must now avoid them while unworn blocks remain.
	for i := 0; i < cfg.Blocks-len(worn); i++ {
		id, err := bm.takeFreeBlock(GroupUser)
		if err != nil {
			t.Fatal(err)
		}
		if worn[id] {
			t.Fatalf("allocation %d picked worn block %d while unworn blocks were free", i, id)
		}
	}
}

func TestCostBenefitPrefersOldInvalidBlocks(t *testing.T) {
	cfg := flash.ScaledConfig(16)
	cfg.PagesPerBlock = 4
	cfg.PageSize = 512
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	bm := newBlockManager(dev, 2, false, false)
	fill := func() flash.BlockID {
		var block flash.BlockID
		for p := 0; p < cfg.PagesPerBlock; p++ {
			ppn, err := bm.AllocatePage(GroupUser, flash.SpareArea{Logical: flash.LPN(p)}, nil, flash.PurposeUserWrite)
			if err != nil {
				t.Fatal(err)
			}
			block = flash.BlockOf(ppn, cfg.PagesPerBlock)
		}
		return block
	}
	old := fill()
	young := fill()
	fill() // active block, shields the others

	// Same invalid fraction (half the pages), different ages: cost-benefit
	// must prefer the older block, greedy is indifferent (ties to lowest ID,
	// which here coincides with the older block too).
	for _, b := range []flash.BlockID{old, young} {
		for p := 0; p < cfg.PagesPerBlock/2; p++ {
			if err := bm.InvalidatePage(flash.PPNOf(b, p, cfg.PagesPerBlock)); err != nil {
				t.Fatal(err)
			}
		}
	}
	got, ok := bm.PickVictim(VictimCostBenefit, nil)
	if !ok || got != old {
		t.Fatalf("cost-benefit picked block %v (ok=%v), want older block %v", got, ok, old)
	}

	// Make the young block clearly emptier: greedy switches to it, while
	// cost-benefit weighs age against the invalid fraction.
	if err := bm.InvalidatePage(flash.PPNOf(young, cfg.PagesPerBlock/2, cfg.PagesPerBlock)); err != nil {
		t.Fatal(err)
	}
	if got, _ := bm.PickVictim(VictimGreedy, nil); got != young {
		t.Fatalf("greedy picked %v, want emptier block %v", got, young)
	}
}
