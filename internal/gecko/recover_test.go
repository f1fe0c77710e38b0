package gecko

import (
	"errors"
	"math/rand"
	"testing"

	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

// populate drives a random update/erase workload through the harness and a
// reference model so that post-recovery answers can be checked.
func populate(t *testing.T, h *testHarness, m *model, ops int, seed int64) {
	t.Helper()
	if err := drive(h, m, ops, seed); err != nil {
		t.Fatal(err)
	}
}

// drive is populate that stops at, and returns, the first error.
func drive(h *testHarness, m *model, ops int, seed int64) error {
	rng := rand.New(rand.NewSource(seed))
	blocks := h.cfg.Blocks
	for i := 0; i < ops; i++ {
		if rng.Intn(12) == 0 {
			b := flash.BlockID(rng.Intn(blocks))
			if err := h.g.RecordErase(b); err != nil {
				return err
			}
			if m != nil {
				m.erase(b)
			}
			continue
		}
		a := flash.Addr{Block: flash.BlockID(rng.Intn(blocks)), Offset: rng.Intn(h.cfg.PagesPerBlock)}
		if err := h.g.Update(a); err != nil {
			return err
		}
		if m != nil {
			m.update(a)
		}
	}
	return nil
}

func TestRecoverDirectoriesRestoresQueries(t *testing.T) {
	h := newHarness(t, 128, 16, 256, 64, nil)
	m := newModel(16)
	populate(t, h, m, 10000, 11)

	// The buffer content is legitimately lost at power failure; flush it so
	// the reference model and the flash state agree (the FTL-level recovery
	// of buffered entries is exercised in the ftl package tests).
	if err := h.g.Flush(); err != nil {
		t.Fatal(err)
	}
	runsBefore := h.g.RunCount()
	pagesBefore := h.g.FlashPages()

	// Power failure: RAM state is lost, flash survives.
	h.dev.PowerFail()
	h.g.CrashRAM()
	if h.g.RunCount() != 0 {
		t.Fatal("CrashRAM did not drop run directories")
	}
	h.dev.PowerOn()

	if err := h.g.RecoverDirectories(); err != nil {
		t.Fatal(err)
	}
	if got := h.g.RunCount(); got != runsBefore {
		t.Errorf("recovered %d runs, want %d", got, runsBefore)
	}
	if got := h.g.FlashPages(); got != pagesBefore {
		t.Errorf("recovered %d flash pages, want %d", got, pagesBefore)
	}

	for b := 0; b < 128; b++ {
		got, err := h.g.Query(flash.BlockID(b))
		if err != nil {
			t.Fatal(err)
		}
		want := m.query(flash.BlockID(b))
		if !got.Equal(want) {
			t.Fatalf("block %d after recovery: got %v want %v", b, got.SetBits(), want.SetBits())
		}
	}
}

func TestRecoverDirectoriesIgnoresObsoleteRuns(t *testing.T) {
	// Use a store with plenty of spare blocks so that obsolete (merged-away)
	// runs linger on flash instead of being erased, then check recovery does
	// not resurrect them.
	h := newHarness(t, 64, 16, 256, 128, func(c *Config) { c.PartitionFactor = 1 })
	m := newModel(16)
	populate(t, h, m, 8000, 12)
	if err := h.g.Flush(); err != nil {
		t.Fatal(err)
	}
	if h.g.Stats().Merges == 0 {
		t.Fatal("test setup: expected merges to have produced obsolete runs")
	}

	h.g.CrashRAM()
	if err := h.g.RecoverDirectories(); err != nil {
		t.Fatal(err)
	}
	// Each level holds at most one run after recovery.
	for level, runs := range h.g.levels {
		if len(runs) > 1 {
			t.Errorf("level %d holds %d runs after recovery", level, len(runs))
		}
	}
	for b := 0; b < 64; b++ {
		got, _ := h.g.Query(flash.BlockID(b))
		if !got.Equal(m.query(flash.BlockID(b))) {
			t.Fatalf("block %d answer changed after recovery", b)
		}
	}
}

func TestRecoverDirectoriesAccountsSpareReads(t *testing.T) {
	h := newHarness(t, 64, 16, 256, 32, nil)
	populate(t, h, nil, 3000, 13)
	h.g.Flush()
	before := h.dev.Counters()
	h.g.CrashRAM()
	if err := h.g.RecoverDirectories(); err != nil {
		t.Fatal(err)
	}
	delta := h.dev.Counters().Sub(before)
	spareReads := delta.Count(flash.OpSpareRead, flash.PurposePageValidity)
	wantScan := int64(32 * 16) // one spare read per page of every Gecko block
	if spareReads != wantScan {
		t.Errorf("recovery spare reads = %d, want %d", spareReads, wantScan)
	}
	// Directory recovery must not read or write full pages.
	if delta.TotalOp(flash.OpPageWrite) != 0 {
		t.Errorf("recovery performed %d page writes", delta.TotalOp(flash.OpPageWrite))
	}
	if delta.TotalOp(flash.OpPageRead) != 0 {
		t.Errorf("recovery performed %d page reads", delta.TotalOp(flash.OpPageRead))
	}
}

func TestRecoverAfterRecoveryContinuesOperating(t *testing.T) {
	h := newHarness(t, 64, 16, 256, 64, nil)
	m := newModel(16)
	populate(t, h, m, 4000, 14)
	h.g.Flush()
	h.g.CrashRAM()
	if err := h.g.RecoverDirectories(); err != nil {
		t.Fatal(err)
	}
	// The structure must keep absorbing updates, flushing and merging
	// correctly after recovery (run IDs and sequence numbers must not
	// collide with pre-crash runs).
	populate(t, h, m, 4000, 15)
	for b := 0; b < 64; b++ {
		got, _ := h.g.Query(flash.BlockID(b))
		if !got.Equal(m.query(flash.BlockID(b))) {
			t.Fatalf("block %d diverged after post-recovery workload", b)
		}
	}
}

func TestNewestRunWriteSeq(t *testing.T) {
	h := newHarness(t, 64, 16, 512, 8, nil)
	seq, err := h.g.NewestRunWriteSeq()
	if err != nil || seq != 0 {
		t.Errorf("empty structure NewestRunWriteSeq = %d, %v; want 0, nil", seq, err)
	}
	populate(t, h, nil, 2000, 16)
	h.g.Flush()
	seq, err = h.g.NewestRunWriteSeq()
	if err != nil {
		t.Fatal(err)
	}
	if seq == 0 {
		t.Error("NewestRunWriteSeq = 0 after flushes")
	}
	if seq > h.dev.GlobalWriteSeq() {
		t.Errorf("NewestRunWriteSeq %d exceeds device write seq %d", seq, h.dev.GlobalWriteSeq())
	}
}

func TestRecoverDirectoriesRequiresBlockLister(t *testing.T) {
	// A store that is not a BlockLister cannot support recovery.
	h := newHarness(t, 16, 16, 512, 4, nil)
	g, err := New(h.cfg, nonListingStore{h.store})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.RecoverDirectories(); err == nil {
		t.Error("recovery without a BlockLister store did not fail")
	}
}

// nonListingStore hides the BlockLister implementation of the wrapped store.
type nonListingStore struct {
	inner *metastore.BlockStore
}

func (s nonListingStore) Append(spare flash.SpareArea, payload any) (flash.PPN, error) {
	return s.inner.Append(spare, payload)
}
func (s nonListingStore) Read(ppn flash.PPN) (any, error) { return s.inner.Read(ppn) }
func (s nonListingStore) ReadSpare(ppn flash.PPN) (flash.SpareArea, bool, error) {
	return s.inner.ReadSpare(ppn)
}
func (s nonListingStore) Invalidate(ppn flash.PPN) error { return s.inner.Invalidate(ppn) }

// errPowerCut is what cutStore's appends fail with once power is "cut".
var errPowerCut = errors.New("power cut")

// cutStore is a block store whose appends fail from the cutAt-th onward, as
// if power failed just before that page was programmed.
type cutStore struct {
	*metastore.BlockStore
	appends, cutAt int
}

func (s *cutStore) Append(spare flash.SpareArea, payload any) (flash.PPN, error) {
	s.appends++
	if s.cutAt > 0 && s.appends >= s.cutAt {
		return flash.InvalidPPN, errPowerCut
	}
	return s.BlockStore.Append(spare, payload)
}

// TestRecoverAfterPowerCutAtEveryAppend cuts power at every page program of
// a workload that flushes and merges repeatedly, then checks that directory
// recovery succeeds and every block can still be queried. A merge must leave
// its input runs readable on flash until its output run is complete: a cut
// during the output write makes recovery fall back to the inputs.
func TestRecoverAfterPowerCutAtEveryAppend(t *testing.T) {
	const (
		userBlocks = 32
		ops        = 1500
		seed       = 21
	)
	run := func(cutAt int) (*testHarness, *cutStore, error) {
		h := newHarness(t, userBlocks, 16, 256, 64, nil)
		store := &cutStore{BlockStore: h.store, cutAt: cutAt}
		g, err := New(h.cfg, store)
		if err != nil {
			t.Fatal(err)
		}
		h.g = g
		return h, store, drive(h, nil, ops, seed)
	}
	h, store, err := run(0)
	if err != nil {
		t.Fatal(err)
	}
	if h.g.Stats().Merges < 4 {
		t.Fatalf("test setup: workload performed %d merges, want several", h.g.Stats().Merges)
	}
	total := store.appends
	for k := 1; k <= total; k++ {
		h, _, err := run(k)
		if !errors.Is(err, errPowerCut) {
			t.Fatalf("cut at append %d of %d: workload error %v, want the power cut", k, total, err)
		}
		h.g.CrashRAM()
		if err := h.g.RecoverDirectories(); err != nil {
			t.Fatalf("cut at append %d of %d: recovery: %v", k, total, err)
		}
		for b := 0; b < userBlocks; b++ {
			if _, err := h.g.Query(flash.BlockID(b)); err != nil {
				t.Fatalf("cut at append %d of %d: query of block %d: %v", k, total, b, err)
			}
		}
	}
}
