package gecko

import (
	"testing"

	"geckoftl/internal/flash"
)

func TestLivePagesMatchFlashPages(t *testing.T) {
	h := newHarness(t, 64, 16, 256, 32, nil)
	populate(t, h, nil, 6000, 71)
	pages := h.g.LivePages()
	if len(pages) != h.g.FlashPages() {
		t.Errorf("LivePages = %d entries, FlashPages = %d", len(pages), h.g.FlashPages())
	}
	seen := map[flash.PPN]bool{}
	for _, ppn := range pages {
		if seen[ppn] {
			t.Fatalf("page %d listed twice", ppn)
		}
		seen[ppn] = true
		if !h.g.IsLive(ppn) {
			t.Fatalf("LivePages entry %d not reported live by IsLive", ppn)
		}
	}
}

func TestRelocatePreservesQueries(t *testing.T) {
	h := newHarness(t, 64, 16, 256, 64, nil)
	m := newModel(16)
	populate(t, h, m, 6000, 72)
	if err := h.g.Flush(); err != nil {
		t.Fatal(err)
	}
	pages := h.g.LivePages()
	if len(pages) == 0 {
		t.Fatal("no live pages to relocate")
	}

	// Simulate a greedy garbage-collector moving a live Gecko page: copy its
	// spare area and payload elsewhere in the store and tell the structure
	// about it.
	old := pages[0]
	payload, err := h.store.Read(old)
	if err != nil {
		t.Fatal(err)
	}
	spare, ok, err := h.store.ReadSpare(old)
	if err != nil || !ok {
		t.Fatal(err)
	}
	newPPN, err := h.store.Append(spare, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !h.g.Relocate(old, newPPN) {
		t.Fatal("Relocate reported the live page as unknown")
	}
	if h.g.IsLive(old) || !h.g.IsLive(newPPN) {
		t.Error("liveness not transferred by Relocate")
	}
	// Relocating an unknown page is a no-op.
	if h.g.Relocate(old, newPPN) {
		t.Error("Relocate of a stale page succeeded")
	}

	// Every query still answers correctly after the relocation.
	for b := 0; b < 64; b++ {
		got, err := h.g.Query(flash.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		if !got.Equal(m.query(flash.BlockID(b))) {
			t.Fatalf("block %d diverged after relocation", b)
		}
	}
}
