package flash

import (
	"errors"
	"testing"
)

func TestFaultPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan FaultPlan
		ok   bool
	}{
		{"zero plan", FaultPlan{}, true},
		{"rates and limit", FaultPlan{Seed: 1, ProgramFailRate: 0.5, EraseFailRate: 1, ReadDisturbLimit: 100}, true},
		{"schedule", FaultPlan{Schedule: []FaultEvent{{Op: OpPageWrite, AtCount: 3}, {Op: OpErase, AtCount: 1}, {Op: OpPageRead, AtCount: 9}}}, true},
		{"negative program rate", FaultPlan{ProgramFailRate: -0.1}, false},
		{"program rate above one", FaultPlan{ProgramFailRate: 1.1}, false},
		{"negative erase rate", FaultPlan{EraseFailRate: -1}, false},
		{"negative disturb limit", FaultPlan{ReadDisturbLimit: -1}, false},
		{"schedule on spare read", FaultPlan{Schedule: []FaultEvent{{Op: OpSpareRead, AtCount: 1}}}, false},
		{"schedule at count zero", FaultPlan{Schedule: []FaultEvent{{Op: OpErase, AtCount: 0}}}, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.plan.Validate()
			if tc.ok && err != nil {
				t.Errorf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Error("Validate() = nil, want error")
			}
			// SetFaultPlan must enforce the same contract.
			if err := MustNewDevice(testConfig(2)).SetFaultPlan(tc.plan); (err == nil) != tc.ok {
				t.Errorf("SetFaultPlan() = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestScheduledProgramFaultConsumesPage(t *testing.T) {
	cfg := testConfig(4)
	d := MustNewDevice(cfg)
	ppb := cfg.PagesPerBlock
	if err := d.SetFaultPlan(FaultPlan{Schedule: []FaultEvent{{Op: OpPageWrite, AtCount: 2}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePage(PPNOf(0, 0, ppb), SpareArea{Logical: 7}, nil, PurposeUserWrite); err != nil {
		t.Fatalf("first program: %v", err)
	}
	if _, err := d.WritePage(PPNOf(0, 1, ppb), SpareArea{Logical: 8}, nil, PurposeUserWrite); !errors.Is(err, ErrProgramFailed) {
		t.Fatalf("second program err = %v, want ErrProgramFailed", err)
	}
	// The failed page is consumed: the write pointer moved past it.
	if wp, _ := d.WritePointer(0); wp != 2 {
		t.Errorf("write pointer = %d after failed program, want 2", wp)
	}
	// It holds nothing readable, and its spare reports unprogrammed (not an
	// error) so recovery scans skip it instead of trusting garbage.
	if _, err := d.ReadPage(PPNOf(0, 1, ppb), PurposeUserRead); !errors.Is(err, ErrPageNotWritten) {
		t.Errorf("read of failed page err = %v, want ErrPageNotWritten", err)
	}
	if _, ok, err := d.ReadSpare(PPNOf(0, 1, ppb), PurposeRecovery); err != nil || ok {
		t.Errorf("spare of failed page = (ok=%v, err=%v), want unprogrammed, nil", ok, err)
	}
	// The block is not bad — only the page is — and the next program lands.
	if bad, _ := d.BadBlock(0); bad {
		t.Error("block reported bad after a single failed program")
	}
	if _, err := d.WritePage(PPNOf(0, 2, ppb), SpareArea{Logical: 8}, nil, PurposeUserWrite); err != nil {
		t.Fatalf("retry on next page: %v", err)
	}
	// An erase wipes the bad-page marks with the rest of the block.
	if err := d.EraseBlock(0, PurposeGCErase); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePage(PPNOf(0, 1, ppb), SpareArea{}, nil, PurposeUserWrite); !errors.Is(err, ErrNonSequentialWrite) {
		t.Errorf("post-erase write pointer not reset: %v", err)
	}
	if _, err := d.WritePage(PPNOf(0, 0, ppb), SpareArea{Logical: 9}, nil, PurposeUserWrite); err != nil {
		t.Fatalf("program after erase: %v", err)
	}
	if _, err := d.ReadPage(PPNOf(0, 0, ppb), PurposeUserRead); err != nil {
		t.Errorf("read after erase: %v", err)
	}
}

func TestScheduledEraseFaultRetiresBlock(t *testing.T) {
	cfg := testConfig(4)
	d := MustNewDevice(cfg)
	ppb := cfg.PagesPerBlock
	if err := d.SetFaultPlan(FaultPlan{Schedule: []FaultEvent{{Op: OpErase, AtCount: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePage(PPNOf(1, 0, ppb), SpareArea{Logical: 3}, nil, PurposeUserWrite); err != nil {
		t.Fatal(err)
	}
	if err := d.EraseBlock(1, PurposeGCErase); !errors.Is(err, ErrEraseFailed) {
		t.Fatalf("erase err = %v, want ErrEraseFailed", err)
	}
	if bad, _ := d.BadBlock(1); !bad {
		t.Fatal("failed erase did not retire the block")
	}
	// Retirement is permanent: programs and erases keep failing, and no
	// erase happened — the contents and erase count are untouched.
	if _, err := d.WritePage(PPNOf(1, 1, ppb), SpareArea{}, nil, PurposeUserWrite); !errors.Is(err, ErrProgramFailed) {
		t.Errorf("program on retired block err = %v, want ErrProgramFailed", err)
	}
	if err := d.EraseBlock(1, PurposeGCErase); !errors.Is(err, ErrEraseFailed) {
		t.Errorf("second erase err = %v, want ErrEraseFailed", err)
	}
	if ec, _ := d.EraseCount(1); ec != 0 {
		t.Errorf("erase count = %d after failed erases, want 0", ec)
	}
	if wp, _ := d.WritePointer(1); wp != 1 {
		t.Errorf("write pointer = %d, want contents untouched at 1", wp)
	}
	// The bad-block table is device truth: it survives a power failure.
	d.PowerFail()
	d.PowerOn()
	if bad, _ := d.BadBlock(1); !bad {
		t.Error("bad-block table lost across power failure")
	}
	// Other blocks are unaffected (the schedule's one event is spent).
	if err := d.EraseBlock(2, PurposeGCErase); err != nil {
		t.Errorf("erase of healthy block: %v", err)
	}
}

func TestWornOutEraseRetires(t *testing.T) {
	cfg := testConfig(2)
	cfg.MaxEraseCount = 1
	d := MustNewDevice(cfg)
	ppb := cfg.PagesPerBlock
	if err := d.EraseBlock(0, PurposeGCErase); err != nil {
		t.Fatal(err)
	}
	// The last successful erase still stands: a free worn-out block remains
	// writable for one final cycle.
	if _, err := d.WritePage(PPNOf(0, 0, ppb), SpareArea{Logical: 1}, nil, PurposeUserWrite); err != nil {
		t.Fatalf("program in final cycle: %v", err)
	}
	if bad, _ := d.BadBlock(0); bad {
		t.Fatal("block retired before any erase attempt past the budget")
	}
	if err := d.EraseBlock(0, PurposeGCErase); !errors.Is(err, ErrWornOut) {
		t.Fatalf("erase past budget err = %v, want ErrWornOut", err)
	}
	if bad, _ := d.BadBlock(0); !bad {
		t.Error("worn-out erase attempt did not retire the block")
	}
	if _, err := d.WritePage(PPNOf(0, 1, ppb), SpareArea{}, nil, PurposeUserWrite); !errors.Is(err, ErrProgramFailed) {
		t.Errorf("program on worn-out block err = %v, want ErrProgramFailed", err)
	}
}

func TestReadDisturbDecay(t *testing.T) {
	cfg := testConfig(4)
	d := MustNewDevice(cfg)
	ppb := cfg.PagesPerBlock
	if err := d.SetFaultPlan(FaultPlan{ReadDisturbLimit: 2}); err != nil {
		t.Fatal(err)
	}
	ppn := PPNOf(0, 0, ppb)
	if _, err := d.WritePage(ppn, SpareArea{Logical: 5}, nil, PurposeUserWrite); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := d.ReadPage(ppn, PurposeUserRead); err != nil {
			t.Fatalf("read %d within limit: %v", i+1, err)
		}
	}
	// Spare reads neither disturb nor decay.
	for i := 0; i < 8; i++ {
		if _, ok, err := d.ReadSpare(ppn, PurposeRecovery); err != nil || !ok {
			t.Fatalf("spare read %d = (ok=%v, err=%v)", i, ok, err)
		}
	}
	if rc, _ := d.ReadCount(0); rc != 2 {
		t.Errorf("read count = %d after 2 page reads and 8 spare reads, want 2", rc)
	}
	if _, err := d.ReadPage(ppn, PurposeUserRead); !errors.Is(err, ErrReadDecayed) {
		t.Fatalf("read past limit err = %v, want ErrReadDecayed", err)
	}
	// The spare stays readable even after the payload decayed: the FTL can
	// still identify what was lost.
	if _, ok, err := d.ReadSpare(ppn, PurposeRecovery); err != nil || !ok {
		t.Errorf("spare after decay = (ok=%v, err=%v)", ok, err)
	}
	// An erase resets the disturb counter and the block is fresh again.
	if err := d.EraseBlock(0, PurposeGCErase); err != nil {
		t.Fatal(err)
	}
	if rc, _ := d.ReadCount(0); rc != 0 {
		t.Errorf("read count = %d after erase, want 0", rc)
	}
	if _, err := d.WritePage(ppn, SpareArea{Logical: 5}, nil, PurposeUserWrite); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadPage(ppn, PurposeUserRead); err != nil {
		t.Errorf("read after erase: %v", err)
	}
}

// faultRun drives a fixed workload — program every page of every block, then
// erase every block — under the given rates and returns which programs and
// erases failed.
func faultRun(t *testing.T, seed int64, programRate, eraseRate float64) (programs, erases map[int]bool) {
	t.Helper()
	cfg := testConfig(8)
	d := MustNewDevice(cfg)
	if err := d.SetFaultPlan(FaultPlan{Seed: seed, ProgramFailRate: programRate, EraseFailRate: eraseRate}); err != nil {
		t.Fatal(err)
	}
	programs, erases = make(map[int]bool), make(map[int]bool)
	for b := 0; b < cfg.Blocks; b++ {
		for o := 0; o < cfg.PagesPerBlock; o++ {
			_, err := d.WritePage(PPNOf(BlockID(b), o, cfg.PagesPerBlock), SpareArea{}, nil, PurposeUserWrite)
			switch {
			case errors.Is(err, ErrProgramFailed):
				programs[b*cfg.PagesPerBlock+o] = true
			case err != nil:
				t.Fatalf("block %d page %d: %v", b, o, err)
			}
		}
	}
	for b := 0; b < cfg.Blocks; b++ {
		err := d.EraseBlock(BlockID(b), PurposeGCErase)
		switch {
		case errors.Is(err, ErrEraseFailed):
			erases[b] = true
		case err != nil:
			t.Fatalf("erase %d: %v", b, err)
		}
	}
	return programs, erases
}

func TestProbabilisticFaultsDeterministicAndNested(t *testing.T) {
	p1, e1 := faultRun(t, 42, 0.2, 0.2)
	p2, e2 := faultRun(t, 42, 0.2, 0.2)
	if len(p1) == 0 || len(e1) == 0 {
		t.Fatalf("no faults at 20%% rates (%d programs, %d erases failed)", len(p1), len(e1))
	}
	for k := range p1 {
		if !p2[k] {
			t.Fatalf("program fault set not deterministic: %d failed in run 1 only", k)
		}
	}
	if len(p1) != len(p2) || len(e1) != len(e2) {
		t.Fatalf("fault sets differ across identical runs: %d/%d programs, %d/%d erases", len(p1), len(p2), len(e1), len(e2))
	}

	// Nesting: the failures at a lower rate are a subset of those at a
	// higher rate under the same seed — this is what makes endurance
	// monotone in the fault rate by construction.
	pLow, eLow := faultRun(t, 42, 0.05, 0.05)
	if len(pLow) >= len(p1) {
		t.Errorf("%d program faults at 5%% rate vs %d at 20%%", len(pLow), len(p1))
	}
	for k := range pLow {
		if !p1[k] {
			t.Errorf("program fault %d at 5%% rate absent at 20%%", k)
		}
	}
	for k := range eLow {
		if !e1[k] {
			t.Errorf("erase fault on block %d at 5%% rate absent at 20%%", k)
		}
	}

	// A different seed draws a different pattern.
	p3, _ := faultRun(t, 43, 0.2, 0.2)
	same := len(p1) == len(p3)
	if same {
		for k := range p1 {
			if !p3[k] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("seeds 42 and 43 drew identical program fault sets")
	}
}

func TestScheduleCountsOnlyWhilePlanInstalled(t *testing.T) {
	cfg := testConfig(2)
	d := MustNewDevice(cfg)
	ppb := cfg.PagesPerBlock
	// Without a plan installed, operations do not advance the counts.
	if _, err := d.WritePage(PPNOf(0, 0, ppb), SpareArea{}, nil, PurposeUserWrite); err != nil {
		t.Fatal(err)
	}
	if err := d.SetFaultPlan(FaultPlan{Schedule: []FaultEvent{{Op: OpPageWrite, AtCount: 1}}}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePage(PPNOf(0, 1, ppb), SpareArea{}, nil, PurposeUserWrite); !errors.Is(err, ErrProgramFailed) {
		t.Fatalf("first counted program err = %v, want ErrProgramFailed", err)
	}
	// A zero plan clears fault injection entirely.
	if err := d.SetFaultPlan(FaultPlan{}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.WritePage(PPNOf(0, 2, ppb), SpareArea{}, nil, PurposeUserWrite); err != nil {
		t.Errorf("program after clearing the plan: %v", err)
	}
}
