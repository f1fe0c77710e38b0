package ftl

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"geckoftl/internal/checkpoint"
	"geckoftl/internal/flash"
)

// checkpointTestEngine builds a filled, flushed multi-shard GeckoFTL engine:
// the state a clean shutdown would checkpoint.
func checkpointTestEngine(t *testing.T, blocks, channels int) *Engine {
	t.Helper()
	dev := engineTestDevice(t, blocks, channels)
	e, err := NewEngine(dev, GeckoFTLOptions(128*channels), channels)
	if err != nil {
		t.Fatal(err)
	}
	lp := e.LogicalPages()
	rng := rand.New(rand.NewSource(99))
	batch := make([]flash.LPN, 32)
	for done := int64(0); done < 2*lp; done += int64(len(batch)) {
		for i := range batch {
			batch[i] = flash.LPN(rng.Int63n(lp))
		}
		if err := e.WriteBatch(context.Background(), batch); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	return e
}

// mappedSet snapshots which logical pages hold host data.
func mappedSet(t *testing.T, e *Engine) []bool {
	t.Helper()
	out := make([]bool, e.LogicalPages())
	for lpn := range out {
		m, err := e.Mapped(flash.LPN(lpn))
		if err != nil {
			t.Fatal(err)
		}
		out[lpn] = m
	}
	return out
}

func sameMapped(t *testing.T, want, got []bool, context string) {
	t.Helper()
	for lpn := range want {
		if want[lpn] != got[lpn] {
			t.Fatalf("%s: logical page %d mapped=%v, want %v", context, lpn, got[lpn], want[lpn])
		}
	}
}

// TestEngineCheckpointRoundTrip is the core warm-restart property: export,
// power-fail, restore, and the engine serves the identical logical state
// with a consistent translation map, then keeps working.
func TestEngineCheckpointRoundTrip(t *testing.T) {
	e := checkpointTestEngine(t, 128, 2)
	before := mappedSet(t, e)
	file, err := e.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	// The exported file survives the byte format losslessly.
	decoded, err := checkpoint.Decode(checkpoint.Encode(file))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreCheckpoint(decoded); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatalf("restored engine inconsistent: %v", err)
	}
	sameMapped(t, before, mappedSet(t, e), "after warm restore")
	// The restored engine is fully operational, including GC pressure.
	lp := e.LogicalPages()
	rng := rand.New(rand.NewSource(7))
	batch := make([]flash.LPN, 32)
	for done := int64(0); done < lp; done += int64(len(batch)) {
		for i := range batch {
			batch[i] = flash.LPN(rng.Int63n(lp))
		}
		if err := e.WriteBatch(context.Background(), batch); err != nil {
			t.Fatalf("write after warm restore: %v", err)
		}
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatalf("post-restore workload left engine inconsistent: %v", err)
	}
}

// TestEngineCheckpointUnsupportedSchemes pins the gate: only battery-less
// GeckoFTL checkpoints; every battery scheme refuses with
// ErrCheckpointUnsupported.
func TestEngineCheckpointUnsupportedSchemes(t *testing.T) {
	dev := engineTestDevice(t, 64, 1)
	e, err := NewEngine(dev, DFTLOptions(128), 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.ExportCheckpoint(); !errors.Is(err, ErrCheckpointUnsupported) {
		t.Fatalf("DFTL ExportCheckpoint = %v, want ErrCheckpointUnsupported", err)
	}
	opts := GeckoFTLOptions(128)
	opts.Battery = true
	dev2 := engineTestDevice(t, 64, 1)
	e2, err := NewEngine(dev2, opts, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e2.ExportCheckpoint(); !errors.Is(err, ErrCheckpointUnsupported) {
		t.Fatalf("battery GeckoFTL ExportCheckpoint = %v, want ErrCheckpointUnsupported", err)
	}
}

// TestEngineCheckpointCorruptionMatrix is the torn-write and corruption
// matrix: the encoded checkpoint is truncated at (and one byte past) every
// section boundary and bit-flipped once inside every section, and every
// variant must be rejected — by the decoder, by read-only validation, or by
// the import — after which GeckoRec recovery restores the identical flushed
// state with a consistent translation map.
func TestEngineCheckpointCorruptionMatrix(t *testing.T) {
	e := checkpointTestEngine(t, 128, 2)
	want := mappedSet(t, e)

	type variant struct {
		name string
		data []byte
	}
	makeVariants := func(data []byte) []variant {
		bounds, err := checkpoint.Boundaries(data)
		if err != nil {
			t.Fatal(err)
		}
		var out []variant
		for _, cut := range bounds[:len(bounds)-1] {
			out = append(out, variant{name: "truncate", data: data[:cut]})
			out = append(out, variant{name: "truncate+1", data: data[:cut+1]})
		}
		// One flip inside each region delimited by consecutive boundaries:
		// the header, then every section.
		for i := 1; i < len(bounds); i++ {
			mid := (bounds[i-1] + bounds[i]) / 2
			flipped := append([]byte(nil), data...)
			flipped[mid] ^= 0x20
			out = append(out, variant{name: "bitflip", data: flipped})
		}
		return out
	}

	data := checkpoint.Encode(mustExport(t, e))
	variants := makeVariants(data)
	if len(variants) < 20 {
		t.Fatalf("only %d corruption variants; matrix too small", len(variants))
	}
	for i, v := range variants {
		// Re-export each round: a cold recovery writes flash (synchronize),
		// so the previous round's checkpoint is stale by design.
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		fresh := checkpoint.Encode(mustExport(t, e))
		fv := makeVariants(fresh)
		if i >= len(fv) {
			break
		}
		v = fv[i]

		decoded, derr := checkpoint.Decode(v.data)
		if derr == nil {
			// Structurally valid (a clean boundary cut): the consumer-level
			// checks must reject it, first read-only on the live engine...
			if err := e.ValidateCheckpoint(decoded); err == nil {
				t.Fatalf("variant %d (%s, %d bytes): live validation accepted a damaged checkpoint", i, v.name, len(v.data))
			}
			// ...then through the real restore path.
			if err := e.PowerFail(); err != nil {
				t.Fatal(err)
			}
			if err := e.RestoreCheckpoint(decoded); err == nil {
				t.Fatalf("variant %d (%s, %d bytes): restore accepted a damaged checkpoint", i, v.name, len(v.data))
			}
			if _, err := e.Recover(); err != nil {
				t.Fatalf("variant %d (%s): GeckoRec fallback failed: %v", i, v.name, err)
			}
		} else if !errors.Is(derr, checkpoint.ErrInvalid) {
			t.Fatalf("variant %d (%s): decode error %v does not wrap ErrInvalid", i, v.name, derr)
		}
		if err := e.CheckConsistency(); err != nil {
			t.Fatalf("variant %d (%s): engine inconsistent after fallback: %v", i, v.name, err)
		}
		sameMapped(t, want, mappedSet(t, e), "after fallback")
	}
}

func mustExport(t *testing.T, e *Engine) *checkpoint.File {
	t.Helper()
	file, err := e.ExportCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	return file
}

// TestEngineCheckpointStaleSequenceRejected pins the device-truth check: a
// checkpoint from an earlier point in the device's life — even a perfectly
// well-formed one — must be rejected once further writes have moved the
// global write sequence, and the rejection must be detectable read-only.
func TestEngineCheckpointStaleSequenceRejected(t *testing.T) {
	e := checkpointTestEngine(t, 128, 2)
	stale := mustExport(t, e)
	// Move the device past the checkpoint.
	lp := e.LogicalPages()
	for lpn := int64(0); lpn < 64; lpn++ {
		if err := e.Write(flash.LPN(lpn % lp)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.ValidateCheckpoint(stale); err == nil {
		t.Fatal("live validation accepted a stale checkpoint")
	}
	want := mappedSet(t, e)
	if err := e.PowerFail(); err != nil {
		t.Fatal(err)
	}
	if err := e.RestoreCheckpoint(stale); err == nil {
		t.Fatal("restore accepted a stale checkpoint")
	}
	if _, err := e.Recover(); err != nil {
		t.Fatalf("GeckoRec fallback: %v", err)
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatal(err)
	}
	sameMapped(t, want, mappedSet(t, e), "after stale-checkpoint fallback")
}

// TestEngineRestoreRequiresPowerFail pins the precondition: restoring into a
// live engine is a programming error, not a silent state swap.
func TestEngineRestoreRequiresPowerFail(t *testing.T) {
	e := checkpointTestEngine(t, 64, 1)
	file := mustExport(t, e)
	if err := e.RestoreCheckpoint(file); err == nil {
		t.Fatal("RestoreCheckpoint succeeded on a live engine")
	}
	if err := e.CheckConsistency(); err != nil {
		t.Fatalf("rejected restore disturbed the live engine: %v", err)
	}
}

// TestCheckpointRunPagesMustBeProgrammedMetadata pins the device-truth check
// on Gecko run directories: every run page must be a programmed page of an
// allocated metadata block, or validation rejects the checkpoint.
func TestCheckpointRunPagesMustBeProgrammedMetadata(t *testing.T) {
	e := checkpointTestEngine(t, 64, 1)
	ec, err := decodeCheckpoint(mustExport(t, e))
	if err != nil {
		t.Fatal(err)
	}
	f, sc := e.shards[0].ftl, ec.perShard[0]
	if err := f.verifyShardCheckpoint(sc); err != nil {
		t.Fatalf("untouched checkpoint rejected: %v", err)
	}
	if len(sc.runs) == 0 {
		t.Fatal("test setup: checkpoint holds no gecko runs")
	}
	ppb := int64(f.cfg.PagesPerBlock)
	userPage, unwritten := int64(-1), int64(-1)
	for id, b := range sc.blocks {
		switch {
		case b.allocated && b.group == GroupUser:
			userPage = int64(id) * ppb
		case b.allocated && b.group == GroupMeta && int64(b.writePointer) < ppb:
			unwritten = int64(id)*ppb + int64(b.writePointer)
		}
	}
	if userPage < 0 || unwritten < 0 {
		t.Fatal("test setup: no user block or partly written metadata block")
	}
	page := &sc.runs[0].Pages[0]
	for _, tc := range []struct {
		name string
		ppn  int64
	}{{"out of range", -1}, {"in a user block", userPage}, {"past the write pointer", unwritten}} {
		page.PPN = tc.ppn
		if err := f.verifyShardCheckpoint(sc); !errors.Is(err, checkpoint.ErrInvalid) {
			t.Errorf("run page %s (%d): err = %v, want ErrInvalid", tc.name, tc.ppn, err)
		}
	}
}
