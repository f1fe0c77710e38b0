package flash

import (
	"errors"
	"testing"
)

// readPayload reads a page through a plane and fails the test on IO errors.
func readPayload(t *testing.T, pl Plane, ppn PPN) any {
	t.Helper()
	payload, err := pl.ReadPage(ppn, PurposePageValidity)
	if err != nil {
		t.Fatalf("ReadPage(%d): %v", ppn, err)
	}
	return payload
}

func TestPayloadRoundTripsThroughDevice(t *testing.T) {
	d := MustNewDevice(testConfig(4))
	if _, err := d.WritePage(0, SpareArea{}, "first", PurposePageValidity); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePage(1, SpareArea{}, nil, PurposeUserWrite); err != nil {
		t.Fatal(err)
	}
	if got := readPayload(t, d, 0); got != "first" {
		t.Errorf("payload of page 0 = %v, want %q", got, "first")
	}
	if got := readPayload(t, d, 1); got != nil {
		t.Errorf("page written without a payload returned %v, want nil", got)
	}
}

func TestPayloadRoundTripsThroughPartition(t *testing.T) {
	cfg := topoConfig(64, 2, 1)
	dev := MustNewDevice(cfg)
	part, err := dev.Partition(32, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := part.WritePage(0, SpareArea{}, 42, PurposePageValidity); err != nil {
		t.Fatal(err)
	}
	if got := readPayload(t, part, 0); got != 42 {
		t.Errorf("partition-relative payload = %v, want 42", got)
	}
	// The partition's page 0 is device page 32*B.
	if got := readPayload(t, dev, PPNOf(32, 0, cfg.PagesPerBlock)); got != 42 {
		t.Errorf("device-absolute payload = %v, want 42", got)
	}
	if err := part.DiscardPayload(0); err != nil {
		t.Fatal(err)
	}
	if got := readPayload(t, dev, PPNOf(32, 0, cfg.PagesPerBlock)); got != nil {
		t.Errorf("payload after partition DiscardPayload = %v, want nil", got)
	}
	if err := part.DiscardPayload(PPN(16 * cfg.PagesPerBlock)); !errors.Is(err, ErrOutOfRange) {
		t.Errorf("out-of-range DiscardPayload err = %v, want ErrOutOfRange", err)
	}
}

func TestEraseClearsPayload(t *testing.T) {
	d := MustNewDevice(testConfig(4))
	if _, err := d.WritePage(0, SpareArea{}, "old", PurposePageValidity); err != nil {
		t.Fatal(err)
	}
	if err := d.EraseBlock(0, PurposeGCErase); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePage(0, SpareArea{}, nil, PurposePageValidity); err != nil {
		t.Fatal(err)
	}
	if got := readPayload(t, d, 0); got != nil {
		t.Errorf("payload after erase and rewrite = %v, want nil", got)
	}
}

func TestDiscardPayloadDropsItWithoutIO(t *testing.T) {
	d := MustNewDevice(testConfig(4))
	if _, err := d.WritePage(0, SpareArea{Logical: 3}, "dead", PurposePageValidity); err != nil {
		t.Fatal(err)
	}
	before := d.Counters()
	if err := d.DiscardPayload(0); err != nil {
		t.Fatal(err)
	}
	if d.Counters() != before {
		t.Error("DiscardPayload charged device IO")
	}
	if got := readPayload(t, d, 0); got != nil {
		t.Errorf("payload after DiscardPayload = %v, want nil", got)
	}
	// The page stays programmed, spare area included.
	if spare, ok, err := d.ReadSpare(0, PurposeRecovery); err != nil || !ok || spare.Logical != 3 {
		t.Errorf("spare after DiscardPayload = %+v, ok=%v, err=%v", spare, ok, err)
	}
	// Discarding a page of a block that never held a payload is a no-op.
	if err := d.DiscardPayload(PPNOf(1, 0, d.Config().PagesPerBlock)); err != nil {
		t.Errorf("DiscardPayload on a payload-free block: %v", err)
	}
}

func TestFailedProgramStoresNoPayload(t *testing.T) {
	cfg := testConfig(4)
	d := MustNewDevice(cfg)
	ppb := cfg.PagesPerBlock
	if err := d.SetFaultPlan(FaultPlan{Schedule: []FaultEvent{{Op: OpPageWrite, AtCount: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePage(PPNOf(0, 0, ppb), SpareArea{}, "lost", PurposePageValidity); !errors.Is(err, ErrProgramFailed) {
		t.Fatalf("program err = %v, want ErrProgramFailed", err)
	}
	if _, err := d.WritePage(PPNOf(0, 1, ppb), SpareArea{}, "kept", PurposePageValidity); err != nil {
		t.Fatal(err)
	}
	if got, err := d.ReadPage(PPNOf(0, 0, ppb), PurposePageValidity); !errors.Is(err, ErrPageNotWritten) || got != nil {
		t.Errorf("read of failed page = %v, %v; want nil, ErrPageNotWritten", got, err)
	}
	if got := readPayload(t, d, PPNOf(0, 1, ppb)); got != "kept" {
		t.Errorf("payload of retried page = %v, want %q", got, "kept")
	}
}

func TestPayloadSurvivesPowerFailure(t *testing.T) {
	d := MustNewDevice(testConfig(4))
	if _, err := d.WritePage(0, SpareArea{}, "durable", PurposePageValidity); err != nil {
		t.Fatal(err)
	}
	d.PowerFail()
	if err := d.DiscardPayload(0); !errors.Is(err, ErrPowerFailed) {
		t.Errorf("DiscardPayload while off err = %v, want ErrPowerFailed", err)
	}
	d.PowerOn()
	if got := readPayload(t, d, 0); got != "durable" {
		t.Errorf("payload after power cycle = %v, want %q", got, "durable")
	}
}
