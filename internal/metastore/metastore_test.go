package metastore

import (
	"errors"
	"testing"

	"geckoftl/internal/flash"
)

func smallDevice(t *testing.T, blocks, pagesPerBlock int) *flash.Device {
	t.Helper()
	cfg := flash.ScaledConfig(blocks)
	cfg.PagesPerBlock = pagesPerBlock
	dev, err := flash.NewDevice(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestNewBlockStoreValidation(t *testing.T) {
	dev := smallDevice(t, 4, 8)
	if _, err := NewBlockStore(dev, nil, flash.BlockGecko, flash.PurposePageValidity); err == nil {
		t.Error("empty block list accepted")
	}
	if _, err := NewBlockStore(dev, []flash.BlockID{1, 1}, flash.BlockGecko, flash.PurposePageValidity); err == nil {
		t.Error("duplicate block accepted")
	}
}

func TestAppendFillsBlocksSequentially(t *testing.T) {
	dev := smallDevice(t, 4, 4)
	s, err := NewBlockStore(dev, []flash.BlockID{1, 2}, flash.BlockGecko, flash.PurposePageValidity)
	if err != nil {
		t.Fatal(err)
	}
	var ppns []flash.PPN
	for i := 0; i < 8; i++ {
		ppn, err := s.Append(flash.SpareArea{Tag: uint64(i)}, nil)
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		ppns = append(ppns, ppn)
	}
	// First 4 pages in block 1, next 4 in block 2.
	for i, ppn := range ppns {
		wantBlock := flash.BlockID(1 + i/4)
		if got := flash.BlockOf(ppn, 4); got != wantBlock {
			t.Errorf("append %d landed on block %d, want %d", i, got, wantBlock)
		}
	}
	// Store is now full.
	if _, err := s.Append(flash.SpareArea{}, nil); !errors.Is(err, ErrNoSpace) {
		t.Errorf("append on full store err = %v, want ErrNoSpace", err)
	}
	if s.FreePages() != 0 {
		t.Errorf("FreePages = %d, want 0", s.FreePages())
	}
}

func TestBlockTypeStampedOnFirstPage(t *testing.T) {
	dev := smallDevice(t, 2, 4)
	s, _ := NewBlockStore(dev, []flash.BlockID{0}, flash.BlockTranslation, flash.PurposeTranslation)
	ppn, err := s.Append(flash.SpareArea{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	spare, ok, err := s.ReadSpare(ppn)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if spare.BlockType != flash.BlockTranslation {
		t.Errorf("first page block type = %v, want translation", spare.BlockType)
	}
}

func TestReclaimFullyInvalidBlock(t *testing.T) {
	dev := smallDevice(t, 2, 4)
	s, _ := NewBlockStore(dev, []flash.BlockID{0}, flash.BlockGecko, flash.PurposePageValidity)
	var ppns []flash.PPN
	for i := 0; i < 4; i++ {
		ppn, err := s.Append(flash.SpareArea{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		ppns = append(ppns, ppn)
	}
	// Invalidate only three pages: the block must not be reclaimed.
	for _, ppn := range ppns[:3] {
		if err := s.Invalidate(ppn); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Append(flash.SpareArea{}, nil); !errors.Is(err, ErrNoSpace) {
		t.Fatalf("append with live page remaining err = %v, want ErrNoSpace", err)
	}
	// Invalidate the last page: the next append erases and reuses the block.
	if err := s.Invalidate(ppns[3]); err != nil {
		t.Fatal(err)
	}
	ppn, err := s.Append(flash.SpareArea{}, nil)
	if err != nil {
		t.Fatalf("append after full invalidation: %v", err)
	}
	if flash.BlockOf(ppn, 4) != 0 || flash.OffsetOf(ppn, 4) != 0 {
		t.Errorf("reclaimed append landed at %v, want block 0 offset 0", ppn)
	}
	if s.Erases() != 1 {
		t.Errorf("erases = %d, want 1", s.Erases())
	}
}

func TestInvalidateErrors(t *testing.T) {
	dev := smallDevice(t, 4, 4)
	s, _ := NewBlockStore(dev, []flash.BlockID{1}, flash.BlockGecko, flash.PurposePageValidity)
	// Page outside the store's blocks.
	if err := s.Invalidate(flash.PPNOf(3, 0, 4)); err == nil {
		t.Error("invalidate of foreign page accepted")
	}
	ppn, _ := s.Append(flash.SpareArea{}, nil)
	for i := 0; i < 4; i++ {
		s.Invalidate(ppn)
	}
	if err := s.Invalidate(ppn); err == nil {
		t.Error("over-invalidation not detected")
	}
}

func TestIOAccountingPurpose(t *testing.T) {
	dev := smallDevice(t, 2, 4)
	s, _ := NewBlockStore(dev, []flash.BlockID{0}, flash.BlockGecko, flash.PurposePageValidity)
	ppn, _ := s.Append(flash.SpareArea{}, nil)
	s.Read(ppn)
	s.ReadSpare(ppn)
	c := dev.Counters()
	if c.Count(flash.OpPageWrite, flash.PurposePageValidity) != 1 {
		t.Error("append not accounted as page-validity write")
	}
	if c.Count(flash.OpPageRead, flash.PurposePageValidity) != 1 {
		t.Error("read not accounted as page-validity read")
	}
	if c.Count(flash.OpSpareRead, flash.PurposePageValidity) != 1 {
		t.Error("spare read not accounted")
	}
}

func TestUtilization(t *testing.T) {
	dev := smallDevice(t, 2, 4)
	s, _ := NewBlockStore(dev, []flash.BlockID{0, 1}, flash.BlockGecko, flash.PurposePageValidity)
	if got := s.Utilization(); got != 0 {
		t.Errorf("empty utilization = %v", got)
	}
	ppn, _ := s.Append(flash.SpareArea{}, nil)
	s.Append(flash.SpareArea{}, nil)
	if got := s.Utilization(); got != 0.25 {
		t.Errorf("utilization = %v, want 0.25", got)
	}
	s.Invalidate(ppn)
	if got := s.Utilization(); got != 0.125 {
		t.Errorf("utilization = %v, want 0.125", got)
	}
}

func TestBlocksAccessorCopies(t *testing.T) {
	dev := smallDevice(t, 4, 4)
	s, _ := NewBlockStore(dev, []flash.BlockID{1, 2}, flash.BlockGecko, flash.PurposePageValidity)
	bs := s.Blocks()
	bs[0] = 99
	if s.Blocks()[0] == 99 {
		t.Error("Blocks exposes internal slice")
	}
}

func TestPayloadRoundTripAndInvalidateDiscards(t *testing.T) {
	dev := smallDevice(t, 2, 4)
	s, _ := NewBlockStore(dev, []flash.BlockID{0}, flash.BlockGecko, flash.PurposePageValidity)
	ppn, err := s.Append(flash.SpareArea{}, "run page")
	if err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(ppn); err != nil || got != "run page" {
		t.Fatalf("Read = %v, %v; want the appended payload", got, err)
	}
	if err := s.Invalidate(ppn); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Read(ppn); err != nil || got != nil {
		t.Errorf("Read after Invalidate = %v, %v; want nil payload", got, err)
	}
}
