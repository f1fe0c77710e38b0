package flash

import (
	"errors"
	"sync"
	"testing"
	"time"
)

func topoConfig(blocks, channels, dies int) Config {
	cfg := ScaledConfig(blocks)
	cfg.PagesPerBlock = 8
	cfg.PageSize = 512
	cfg.Channels = channels
	cfg.DiesPerChannel = dies
	return cfg
}

func TestDieLayoutContiguous(t *testing.T) {
	cfg := topoConfig(100, 4, 2) // 8 dies over 100 blocks
	if got := cfg.Dies(); got != 8 {
		t.Fatalf("Dies() = %d, want 8", got)
	}
	// Every block belongs to exactly one die, dies are contiguous and
	// DieBlockRange is consistent with DieOfBlock.
	prev := -1
	covered := 0
	for die := 0; die < cfg.Dies(); die++ {
		lo, hi := cfg.DieBlockRange(die)
		if int(lo) != covered {
			t.Fatalf("die %d range starts at %d, want %d", die, lo, covered)
		}
		for b := lo; b < hi; b++ {
			if got := cfg.DieOfBlock(b); got != die {
				t.Fatalf("DieOfBlock(%d) = %d, want %d", b, got, die)
			}
		}
		if die <= prev {
			t.Fatalf("die order violated at %d", die)
		}
		prev = die
		covered = int(hi)
	}
	if covered != cfg.Blocks {
		t.Fatalf("dies cover %d blocks, want %d", covered, cfg.Blocks)
	}
	// Channel ranges are the union of their dies' ranges.
	lo, hi := cfg.ChannelBlockRange(0)
	if lo != 0 || cfg.ChannelOfBlock(hi-1) != 0 || cfg.ChannelOfBlock(hi) != 1 {
		t.Fatalf("channel 0 range [%d,%d) inconsistent with ChannelOfBlock", lo, hi)
	}
}

func TestConfigValidateTopology(t *testing.T) {
	cfg := topoConfig(4, 8, 1)
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected error for more dies than blocks")
	}
	cfg = topoConfig(64, -1, 1)
	if err := cfg.Validate(); err == nil {
		t.Fatal("expected error for negative channels")
	}
}

func TestParallelSimulatedTime(t *testing.T) {
	cfg := topoConfig(64, 4, 1)
	dev := MustNewDevice(cfg)
	// Write one page on one block of each die: serial time is 4 page
	// writes, parallel time is 1.
	for die := 0; die < cfg.Dies(); die++ {
		lo, _ := cfg.DieBlockRange(die)
		ppn := PPNOf(lo, 0, cfg.PagesPerBlock)
		if _, err := dev.WritePage(ppn, SpareArea{}, nil, PurposeUserWrite); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := dev.SimulatedTime(), 4*cfg.Latency.PageWrite; got != want {
		t.Fatalf("SimulatedTime = %v, want %v", got, want)
	}
	if got, want := dev.ParallelSimulatedTime(), cfg.Latency.PageWrite; got != want {
		t.Fatalf("ParallelSimulatedTime = %v, want %v", got, want)
	}
	times := dev.DieTimes()
	if len(times) != 4 {
		t.Fatalf("DieTimes returned %d entries, want 4", len(times))
	}
	for die, d := range times {
		if d != cfg.Latency.PageWrite {
			t.Fatalf("die %d busy %v, want %v", die, d, cfg.Latency.PageWrite)
		}
	}
}

func TestDeviceConcurrentDies(t *testing.T) {
	cfg := topoConfig(64, 8, 1)
	dev := MustNewDevice(cfg)
	var wg sync.WaitGroup
	for die := 0; die < cfg.Dies(); die++ {
		wg.Add(1)
		go func(die int) {
			defer wg.Done()
			lo, hi := cfg.DieBlockRange(die)
			for b := lo; b < hi; b++ {
				for o := 0; o < cfg.PagesPerBlock; o++ {
					ppn := PPNOf(b, o, cfg.PagesPerBlock)
					if _, err := dev.WritePage(ppn, SpareArea{Logical: LPN(ppn)}, nil, PurposeUserWrite); err != nil {
						t.Error(err)
						return
					}
				}
			}
			for b := lo; b < hi; b++ {
				if err := dev.EraseBlock(b, PurposeGCErase); err != nil {
					t.Error(err)
					return
				}
			}
		}(die)
	}
	wg.Wait()
	c := dev.Counters()
	wantWrites := int64(cfg.Blocks * cfg.PagesPerBlock)
	if got := c.Count(OpPageWrite, PurposeUserWrite); got != wantWrites {
		t.Fatalf("counted %d writes, want %d", got, wantWrites)
	}
	if got := c.Count(OpErase, PurposeGCErase); got != int64(cfg.Blocks) {
		t.Fatalf("counted %d erases, want %d", got, cfg.Blocks)
	}
	if got := dev.GlobalWriteSeq(); got != uint64(wantWrites) {
		t.Fatalf("global write seq %d, want %d", got, wantWrites)
	}
	serial := dev.SimulatedTime()
	parallel := dev.ParallelSimulatedTime()
	if parallel <= 0 || serial < time.Duration(cfg.Dies())*parallel {
		t.Fatalf("serial %v should be dies x parallel %v on a balanced load", serial, parallel)
	}
}

func TestPartitionTranslation(t *testing.T) {
	cfg := topoConfig(64, 2, 1)
	dev := MustNewDevice(cfg)
	part, err := dev.Partition(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if got := part.Config().Blocks; got != 16 {
		t.Fatalf("partition has %d blocks, want 16", got)
	}
	// Page 0 of the partition is page 32*8 of the device.
	if _, err := part.WritePage(0, SpareArea{Logical: 7}, nil, PurposeUserWrite); err != nil {
		t.Fatal(err)
	}
	spare, written, err := dev.ReadSpare(PPNOf(32, 0, cfg.PagesPerBlock), PurposeUserRead)
	if err != nil || !written || spare.Logical != 7 {
		t.Fatalf("device spare = %+v written=%v err=%v, want logical 7", spare, written, err)
	}
	// Partition-relative reads see the same page.
	if _, err := part.ReadPage(0, PurposeUserRead); err != nil {
		t.Fatal(err)
	}
	// Out-of-range partition accesses fail before touching neighbors.
	if _, err := part.ReadPage(PPN(16*cfg.PagesPerBlock), PurposeUserRead); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range read error = %v, want ErrOutOfRange", err)
	}
	if err := part.EraseBlock(16, PurposeGCErase); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range erase error = %v, want ErrOutOfRange", err)
	}
	if _, err := dev.Partition(60, 8); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("oversized partition error = %v, want ErrOutOfRange", err)
	}
	// Erase through the partition, then the device-side block is empty.
	if err := part.EraseBlock(0, PurposeGCErase); err != nil {
		t.Fatal(err)
	}
	if wp, err := dev.WritePointer(32); err != nil || wp != 0 {
		t.Fatalf("device write pointer = %d err=%v, want 0", wp, err)
	}
	// Endurance is restricted to the partition's range.
	min, max, mean := part.BlocksEndurance()
	if min != 0 || max != 1 || mean != 1.0/16 {
		t.Fatalf("partition endurance = %d/%d/%f, want 0/1/%f", min, max, mean, 1.0/16)
	}
}

// TestPartitionPowerDomainsIndependent is the regression test for the
// shared-power-state bug: failing one partition must not fail its siblings or
// the parent device, and partitions must recover in either order without one
// partition's PowerOn resurrecting (or blocking) another.
func TestPartitionPowerDomainsIndependent(t *testing.T) {
	dev := MustNewDevice(topoConfig(64, 2, 1))
	a, err := dev.Partition(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dev.Partition(32, 32)
	if err != nil {
		t.Fatal(err)
	}

	a.PowerFail()
	if a.Powered() {
		t.Fatal("partition a reports powered after its PowerFail")
	}
	if !b.Powered() || !dev.Powered() {
		t.Fatal("failing partition a took down partition b or the device")
	}
	if _, err := a.WritePage(0, SpareArea{}, nil, PurposeUserWrite); !errors.Is(err, ErrPowerFailed) {
		t.Fatalf("write to failed partition err = %v, want ErrPowerFailed", err)
	}
	if _, err := b.WritePage(0, SpareArea{}, nil, PurposeUserWrite); err != nil {
		t.Fatalf("write to live partition failed: %v", err)
	}

	// Fail b too, then recover in the order b, a (the reverse of the fail
	// order); each PowerOn must restore only its own domain.
	b.PowerFail()
	b.PowerOn()
	if !b.Powered() {
		t.Fatal("partition b not powered after its PowerOn")
	}
	if a.Powered() {
		t.Fatal("partition b's PowerOn resurrected partition a")
	}
	a.PowerOn()
	if !a.Powered() {
		t.Fatal("partition a not powered after its PowerOn")
	}
	if _, err := a.WritePage(0, SpareArea{}, nil, PurposeUserWrite); err != nil {
		t.Fatalf("write after recovery failed: %v", err)
	}

	// The device-wide rail sits underneath every partition domain.
	dev.PowerFail()
	if a.Powered() || b.Powered() {
		t.Fatal("partitions report powered while the device rail is down")
	}
	if _, err := b.WritePage(1, SpareArea{}, nil, PurposeUserWrite); !errors.Is(err, ErrPowerFailed) {
		t.Fatalf("write during device-wide failure err = %v, want ErrPowerFailed", err)
	}
	a.PowerFail()
	dev.PowerOn()
	if !b.Powered() {
		t.Fatal("partition b not powered after the device rail returned")
	}
	if a.Powered() {
		t.Fatal("device PowerOn resurrected partition a's own failed domain")
	}
	a.PowerOn()
	if !a.Powered() {
		t.Fatal("partition a not powered after rail and domain both restored")
	}
}

// TestPartitionScopedAccounting verifies that a die-aligned partition's
// counters and simulated time cover exactly its own dies, so concurrent
// shards account their IO independently.
func TestPartitionScopedAccounting(t *testing.T) {
	cfg := topoConfig(64, 2, 1)
	dev := MustNewDevice(cfg)
	a, err := dev.Partition(0, 32)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dev.Partition(32, 32)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.WritePage(PPN(i), SpareArea{}, nil, PurposeUserWrite); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.WritePage(0, SpareArea{}, nil, PurposeUserWrite); err != nil {
		t.Fatal(err)
	}
	ac := a.Counters()
	if got := ac.TotalOp(OpPageWrite); got != 3 {
		t.Errorf("partition a counted %d page writes, want 3", got)
	}
	bc := b.Counters()
	if got := bc.TotalOp(OpPageWrite); got != 1 {
		t.Errorf("partition b counted %d page writes, want 1", got)
	}
	if got, want := a.SimulatedTime(), 3*cfg.Latency.PageWrite; got != want {
		t.Errorf("partition a simulated time %v, want %v", got, want)
	}
	if got, want := a.SimulatedTime()+b.SimulatedTime(), dev.SimulatedTime(); got != want {
		t.Errorf("partition times sum to %v, device total %v", got, want)
	}
	a.ResetCounters()
	ac = a.Counters()
	if got := ac.TotalOp(OpPageWrite); got != 0 {
		t.Errorf("partition a counted %d page writes after reset, want 0", got)
	}
	bc = b.Counters()
	if got := bc.TotalOp(OpPageWrite); got != 1 {
		t.Errorf("partition a's reset clobbered partition b (count %d, want 1)", got)
	}
}
