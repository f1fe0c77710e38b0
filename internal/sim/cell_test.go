package sim

import (
	"fmt"
	"testing"

	"geckoftl/internal/ftl"
	"geckoftl/internal/workload"
)

// TestCellMeasureContract pins what every engine sweep relies on from the
// harness: the window serves at least the requested writes and overshoots
// by less than one batch, its latency distribution holds the window alone
// (warm-up reset), and trims ride along without advancing the window.
func TestCellMeasureContract(t *testing.T) {
	scale := QuickScale().fitShards(2)
	spec := scale.Device
	spec.Channels = 2
	trimming := func(logicalPages int64) (workload.Generator, error) {
		writes, err := workload.NewUniform(logicalPages, scale.Seed)
		if err != nil {
			return nil, err
		}
		return workload.NewTrimming(writes, logicalPages, 0.3, scale.Seed+1)
	}
	const batch, n = 7, 1000
	for _, tc := range []struct {
		name string
		gen  func(int64) (workload.Generator, error)
	}{
		{"uniform", named("uniform", scale.Seed)},
		{"trimming", trimming},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w, err := cell{spec: spec, opts: ftl.GeckoFTLOptions(scale.CacheEntries), gen: tc.gen, batch: batch}.warm()
			if err != nil {
				t.Fatal(err)
			}
			if w.eng.Stats().LogicalWrites < w.warmup {
				t.Fatalf("warm-up served %d writes, want >= %d", w.eng.Stats().LogicalWrites, w.warmup)
			}
			win, err := w.measure(n)
			if err != nil {
				t.Fatal(err)
			}
			writes, trims := win.ops.LogicalWrites, win.ops.LogicalTrims
			if writes < n || writes >= n+batch {
				t.Errorf("window served %d writes, want in [%d, %d)", writes, n, n+batch)
			}
			if got := win.latency.Writes.Count; got != writes {
				t.Errorf("window recorded %d write latencies for %d writes: warm-up not reset", got, writes)
			}
			if got := win.latency.Trims.Count; got != trims {
				t.Errorf("window recorded %d trim latencies for %d trims", got, trims)
			}
			if tc.name == "trimming" && trims == 0 {
				t.Error("trimming workload issued no trims in the window")
			}
			if tc.name == "uniform" && trims != 0 {
				t.Errorf("write-only workload counted %d trims", trims)
			}
			if win.wa < 1 {
				t.Errorf("window WA %.3f, want >= 1", win.wa)
			}
		})
	}
}

// TestSweepsRejectZeroChannels checks that a channel count below one is an
// error, not a divide-by-zero panic, in every sweep that takes a channel
// list.
func TestSweepsRejectZeroChannels(t *testing.T) {
	scale := QuickScale()
	scale.MeasureWrites = 200
	for _, tc := range []struct {
		name string
		run  func(channels []int) error
	}{
		{"channels", func(channels []int) error {
			_, err := ChannelSweep(ChannelSweepOptions{Scale: scale, Channels: channels})
			return err
		}},
		{"recovery", func(channels []int) error {
			_, err := RecoverySweep(RecoverySweepOptions{Scale: scale, Channels: channels})
			return err
		}},
	} {
		for _, channels := range [][]int{{0}, {-1}, {1, 0}} {
			t.Run(fmt.Sprint(tc.name, channels), func(t *testing.T) {
				defer func() {
					if r := recover(); r != nil {
						t.Fatalf("channels %v panicked: %v", channels, r)
					}
				}()
				if err := tc.run(channels); err == nil {
					t.Errorf("channels %v: no error", channels)
				}
			})
		}
	}
}
