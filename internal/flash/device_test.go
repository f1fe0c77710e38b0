package flash

import (
	"errors"
	"testing"
	"time"
)

func testConfig(blocks int) Config {
	cfg := ScaledConfig(blocks)
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(16)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"zero blocks", func(c *Config) { c.Blocks = 0 }},
		{"negative blocks", func(c *Config) { c.Blocks = -1 }},
		{"zero pages per block", func(c *Config) { c.PagesPerBlock = 0 }},
		{"zero page size", func(c *Config) { c.PageSize = 0 }},
		{"zero over-provision", func(c *Config) { c.OverProvision = 0 }},
		{"over-provision one", func(c *Config) { c.OverProvision = 1 }},
		{"negative latency", func(c *Config) { c.Latency.PageRead = 0 }},
		{"negative max erase", func(c *Config) { c.MaxEraseCount = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(16)
			tc.mutate(&cfg)
			if err := cfg.Validate(); err == nil {
				t.Errorf("invalid config accepted")
			}
			if _, err := NewDevice(cfg); err == nil {
				t.Errorf("NewDevice accepted invalid config")
			}
		})
	}
}

func TestConfigDerivedQuantities(t *testing.T) {
	cfg := testConfig(1024)
	if got, want := cfg.PhysicalPages(), 1024*DefaultPagesPerBlock; got != want {
		t.Errorf("PhysicalPages = %d, want %d", got, want)
	}
	wantLogical := int(cfg.OverProvision * float64(cfg.PhysicalPages()))
	if got, want := cfg.LogicalPages(), wantLogical; got != want {
		t.Errorf("LogicalPages = %d, want %d", got, want)
	}
	if got, want := cfg.PhysicalBytes(), int64(1024)*int64(DefaultPagesPerBlock)*int64(DefaultPageSize); got != want {
		t.Errorf("PhysicalBytes = %d, want %d", got, want)
	}
	if cfg.LogicalBytes() >= cfg.PhysicalBytes() {
		t.Error("logical capacity should be smaller than physical capacity")
	}
	if got, want := cfg.SpareSize(), DefaultPageSize/DefaultSpareDivisor; got != want {
		t.Errorf("SpareSize = %d, want %d", got, want)
	}
	if cfg.String() == "" {
		t.Error("String is empty")
	}
}

func TestDefaultConfigIsPaperGeometry(t *testing.T) {
	cfg := DefaultConfig()
	if cfg.Blocks != 1<<22 || cfg.PagesPerBlock != 1<<7 || cfg.PageSize != 1<<12 {
		t.Errorf("default geometry %v does not match the paper's Figure 2", cfg)
	}
	if cfg.PhysicalBytes() != 2<<40 {
		t.Errorf("default physical capacity = %d bytes, want 2 TiB", cfg.PhysicalBytes())
	}
	delta := cfg.Latency.WriteReadRatio()
	if delta != 10 {
		t.Errorf("write/read latency ratio = %v, want 10", delta)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	d := MustNewDevice(testConfig(8))
	cfg := d.Config()
	ppn := PPNOf(3, 0, cfg.PagesPerBlock)
	seq, err := d.WritePage(ppn, SpareArea{Logical: 42, BlockType: BlockUser}, nil, PurposeUserWrite)
	if err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	if seq == 0 {
		t.Error("write sequence should start at 1")
	}
	if _, err := d.ReadPage(ppn, PurposeUserRead); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	spare, ok, err := d.ReadSpare(ppn, PurposeRecovery)
	if err != nil || !ok {
		t.Fatalf("ReadSpare: ok=%v err=%v", ok, err)
	}
	if spare.Logical != 42 || spare.BlockType != BlockUser || spare.WriteSeq != seq {
		t.Errorf("spare = %+v, want logical 42, user type, seq %d", spare, seq)
	}
}

func TestReadUnwrittenPageFails(t *testing.T) {
	d := MustNewDevice(testConfig(4))
	if _, err := d.ReadPage(0, PurposeUserRead); !errors.Is(err, ErrPageNotWritten) {
		t.Errorf("ReadPage of free page: err = %v, want ErrPageNotWritten", err)
	}
	_, ok, err := d.ReadSpare(0, PurposeRecovery)
	if err != nil {
		t.Errorf("ReadSpare of free page should not error: %v", err)
	}
	if ok {
		t.Error("ReadSpare of free page reported programmed")
	}
}

func TestRewriteWithoutEraseFails(t *testing.T) {
	d := MustNewDevice(testConfig(4))
	if _, err := d.WritePage(0, SpareArea{}, nil, PurposeUserWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePage(0, SpareArea{}, nil, PurposeUserWrite); !errors.Is(err, ErrPageNotFree) {
		t.Errorf("rewrite err = %v, want ErrPageNotFree", err)
	}
}

func TestStrictSequentialWrites(t *testing.T) {
	d := MustNewDevice(testConfig(4))
	cfg := d.Config()
	// Skipping offset 0 must fail.
	if _, err := d.WritePage(PPNOf(1, 5, cfg.PagesPerBlock), SpareArea{}, nil, PurposeUserWrite); !errors.Is(err, ErrNonSequentialWrite) {
		t.Errorf("non-sequential write err = %v, want ErrNonSequentialWrite", err)
	}
	// In-order writes succeed.
	for off := 0; off < 3; off++ {
		if _, err := d.WritePage(PPNOf(1, off, cfg.PagesPerBlock), SpareArea{}, nil, PurposeUserWrite); err != nil {
			t.Fatalf("sequential write %d: %v", off, err)
		}
	}
	wp, err := d.WritePointer(1)
	if err != nil || wp != 3 {
		t.Errorf("WritePointer = %d, %v; want 3, nil", wp, err)
	}
}

func TestNonStrictAllowsGaps(t *testing.T) {
	cfg := testConfig(4)
	cfg.StrictSequentialWrites = false
	d := MustNewDevice(cfg)
	if _, err := d.WritePage(PPNOf(1, 5, cfg.PagesPerBlock), SpareArea{}, nil, PurposeUserWrite); err != nil {
		t.Fatalf("gapped write with strict mode off: %v", err)
	}
	// Writing below the advanced write pointer is still forbidden.
	if _, err := d.WritePage(PPNOf(1, 2, cfg.PagesPerBlock), SpareArea{}, nil, PurposeUserWrite); !errors.Is(err, ErrPageNotFree) {
		t.Errorf("write below pointer err = %v, want ErrPageNotFree", err)
	}
}

func TestEraseFreesPages(t *testing.T) {
	d := MustNewDevice(testConfig(4))
	cfg := d.Config()
	for off := 0; off < cfg.PagesPerBlock; off++ {
		if _, err := d.WritePage(PPNOf(2, off, cfg.PagesPerBlock), SpareArea{Logical: LPN(off)}, nil, PurposeUserWrite); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.EraseBlock(2, PurposeGCErase); err != nil {
		t.Fatalf("EraseBlock: %v", err)
	}
	wp, _ := d.WritePointer(2)
	if wp != 0 {
		t.Errorf("write pointer after erase = %d, want 0", wp)
	}
	if _, err := d.ReadPage(PPNOf(2, 0, cfg.PagesPerBlock), PurposeUserRead); !errors.Is(err, ErrPageNotWritten) {
		t.Errorf("read after erase err = %v, want ErrPageNotWritten", err)
	}
	ec, _ := d.EraseCount(2)
	if ec != 1 {
		t.Errorf("erase count = %d, want 1", ec)
	}
	if d.GlobalEraseSeq() != 1 {
		t.Errorf("global erase seq = %d, want 1", d.GlobalEraseSeq())
	}
	// The block is writable again.
	if _, err := d.WritePage(PPNOf(2, 0, cfg.PagesPerBlock), SpareArea{}, nil, PurposeUserWrite); err != nil {
		t.Errorf("write after erase: %v", err)
	}
}

func TestSpareCarriesEraseProvenance(t *testing.T) {
	d := MustNewDevice(testConfig(4))
	cfg := d.Config()
	if err := d.EraseBlock(1, PurposeGCErase); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePage(PPNOf(1, 0, cfg.PagesPerBlock), SpareArea{}, nil, PurposeUserWrite); err != nil {
		t.Fatal(err)
	}
	spare, ok, err := d.ReadSpare(PPNOf(1, 0, cfg.PagesPerBlock), PurposeRecovery)
	if err != nil || !ok {
		t.Fatal(err)
	}
	if spare.EraseCount != 1 {
		t.Errorf("spare erase count = %d, want 1", spare.EraseCount)
	}
	if spare.EraseSeq != 1 {
		t.Errorf("spare erase seq = %d, want 1", spare.EraseSeq)
	}
}

func TestWornOutBlock(t *testing.T) {
	cfg := testConfig(2)
	cfg.MaxEraseCount = 2
	d := MustNewDevice(cfg)
	if err := d.EraseBlock(0, PurposeGCErase); err != nil {
		t.Fatal(err)
	}
	if err := d.EraseBlock(0, PurposeGCErase); err != nil {
		t.Fatal(err)
	}
	if err := d.EraseBlock(0, PurposeGCErase); !errors.Is(err, ErrWornOut) {
		t.Errorf("third erase err = %v, want ErrWornOut", err)
	}
}

func TestOutOfRangeAddresses(t *testing.T) {
	d := MustNewDevice(testConfig(4))
	cfg := d.Config()
	tooBig := PPN(int64(cfg.Blocks) * int64(cfg.PagesPerBlock))
	if _, err := d.WritePage(tooBig, SpareArea{}, nil, PurposeUserWrite); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("write out of range err = %v", err)
	}
	if _, err := d.ReadPage(PPN(-1), PurposeUserRead); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("read out of range err = %v", err)
	}
	if err := d.EraseBlock(BlockID(cfg.Blocks), PurposeGCErase); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("erase out of range err = %v", err)
	}
}

func TestPowerFailBlocksOperations(t *testing.T) {
	d := MustNewDevice(testConfig(4))
	if _, err := d.WritePage(0, SpareArea{Logical: 7}, nil, PurposeUserWrite); err != nil {
		t.Fatal(err)
	}
	d.PowerFail()
	if d.Powered() {
		t.Error("device reports powered after PowerFail")
	}
	if _, err := d.WritePage(1, SpareArea{}, nil, PurposeUserWrite); !errors.Is(err, ErrPowerFailed) {
		t.Errorf("write while off err = %v, want ErrPowerFailed", err)
	}
	if _, err := d.ReadPage(0, PurposeUserRead); !errors.Is(err, ErrPowerFailed) {
		t.Errorf("read while off err = %v, want ErrPowerFailed", err)
	}
	d.PowerOn()
	if !d.Powered() {
		t.Error("device reports unpowered after PowerOn")
	}
	// Flash contents must survive the power cycle.
	spare, ok, err := d.ReadSpare(0, PurposeRecovery)
	if err != nil || !ok || spare.Logical != 7 {
		t.Errorf("spare after power cycle = %+v ok=%v err=%v", spare, ok, err)
	}
}

func TestCountersAttributePurposes(t *testing.T) {
	d := MustNewDevice(testConfig(4))
	if _, err := d.WritePage(0, SpareArea{}, nil, PurposeUserWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePage(1, SpareArea{}, nil, PurposeGCMigration); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadPage(0, PurposeTranslation); err != nil {
		t.Fatal(err)
	}
	if _, _, err := d.ReadSpare(0, PurposeRecovery); err != nil {
		t.Fatal(err)
	}
	if err := d.EraseBlock(3, PurposeGCErase); err != nil {
		t.Fatal(err)
	}
	c := d.Counters()
	if got := c.Count(OpPageWrite, PurposeUserWrite); got != 1 {
		t.Errorf("user writes = %d, want 1", got)
	}
	if got := c.Count(OpPageWrite, PurposeGCMigration); got != 1 {
		t.Errorf("gc migration writes = %d, want 1", got)
	}
	if got := c.Count(OpPageRead, PurposeTranslation); got != 1 {
		t.Errorf("translation reads = %d, want 1", got)
	}
	if got := c.Count(OpSpareRead, PurposeRecovery); got != 1 {
		t.Errorf("recovery spare reads = %d, want 1", got)
	}
	if got := c.Count(OpErase, PurposeGCErase); got != 1 {
		t.Errorf("gc erases = %d, want 1", got)
	}
	if got := c.TotalOp(OpPageWrite); got != 2 {
		t.Errorf("total writes = %d, want 2", got)
	}
}

func TestCountersSubAndReset(t *testing.T) {
	d := MustNewDevice(testConfig(4))
	if _, err := d.WritePage(0, SpareArea{}, nil, PurposeUserWrite); err != nil {
		t.Fatal(err)
	}
	before := d.Counters()
	if _, err := d.WritePage(1, SpareArea{}, nil, PurposeUserWrite); err != nil {
		t.Fatal(err)
	}
	delta := d.Counters().Sub(before)
	if got := delta.TotalOp(OpPageWrite); got != 1 {
		t.Errorf("delta writes = %d, want 1", got)
	}
	d.ResetCounters()
	after := d.Counters()
	if got := after.TotalOp(OpPageWrite); got != 0 {
		t.Errorf("writes after reset = %d, want 0", got)
	}
}

func TestSimulatedTimeFollowsLatencyModel(t *testing.T) {
	d := MustNewDevice(testConfig(4))
	lat := d.Config().Latency
	if _, err := d.WritePage(0, SpareArea{}, nil, PurposeUserWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadPage(0, PurposeUserRead); err != nil {
		t.Fatal(err)
	}
	want := lat.PageWrite + lat.PageRead
	if got := d.SimulatedTime(); got != want {
		t.Errorf("SimulatedTime = %v, want %v", got, want)
	}
}

func TestWriteAmplificationMetric(t *testing.T) {
	var c Counters
	// 10 logical writes cause 15 internal writes and 20 internal reads.
	for i := 0; i < 15; i++ {
		c.Record(OpPageWrite, PurposeUserWrite, time.Millisecond)
	}
	for i := 0; i < 20; i++ {
		c.Record(OpPageRead, PurposeTranslation, 100*time.Microsecond)
	}
	got := c.WriteAmplification(10, 10)
	want := (15.0 + 20.0/10.0) / 10.0
	if got != want {
		t.Errorf("WriteAmplification = %v, want %v", got, want)
	}
	if c.WriteAmplification(0, 10) != 0 {
		t.Error("WriteAmplification with zero logical writes should be 0")
	}
	pv := c.PurposeWriteAmplification(PurposeTranslation, 10, 10)
	if pv != (0+20.0/10.0)/10.0 {
		t.Errorf("PurposeWriteAmplification = %v", pv)
	}
}

func TestBlocksEndurance(t *testing.T) {
	d := MustNewDevice(testConfig(4))
	for i := 0; i < 3; i++ {
		if err := d.EraseBlock(0, PurposeGCErase); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.EraseBlock(1, PurposeGCErase); err != nil {
		t.Fatal(err)
	}
	min, max, mean := d.BlocksEndurance()
	if min != 0 || max != 3 {
		t.Errorf("endurance min=%d max=%d, want 0 and 3", min, max)
	}
	if mean != 1.0 {
		t.Errorf("endurance mean = %v, want 1.0", mean)
	}
}

func TestPurposeAndOpStrings(t *testing.T) {
	for _, p := range Purposes() {
		if p.String() == "" {
			t.Errorf("purpose %d has empty name", int(p))
		}
	}
	if Purpose(99).String() == "" {
		t.Error("unknown purpose has empty name")
	}
	for op := Op(0); op < numOps; op++ {
		if op.String() == "" {
			t.Errorf("op %d has empty name", int(op))
		}
	}
	var c Counters
	if c.String() != "no-io" {
		t.Errorf("empty counters String = %q", c.String())
	}
	c.Record(OpPageWrite, PurposeUserWrite, 0)
	if c.String() == "no-io" {
		t.Error("non-empty counters render as no-io")
	}
}
