package main

import (
	"errors"
	"fmt"

	"geckoftl"
)

// errAuditFailed reports a recovered device that failed its durability
// audit: counted as one failed recovery, after which the workload goes on
// with a freshly set-up device.
var errAuditFailed = errors.New("durability audit failed")

// shadow is the benchmark's model of what the device must hold: whether
// each logical page is mapped, which pages were touched since the last
// Flush (their post-crash state may be either side of the crash), and the
// page operations issued since Open.
type shadow struct {
	mapped    []bool
	dirty     []bool
	dirtyList []int64
	// writes, reads and trims count logical pages issued since Open, as
	// Snapshot.Ops must count them.
	writes, reads, trims int64
}

// newShadow models a device whose every logical page has been written.
func newShadow(logical int64) *shadow {
	s := &shadow{mapped: make([]bool, logical), dirty: make([]bool, logical)}
	for i := range s.mapped {
		s.mapped[i] = true
	}
	return s
}

func (s *shadow) touch(p int64) {
	if !s.dirty[p] {
		s.dirty[p] = true
		s.dirtyList = append(s.dirtyList, p)
	}
}

func (s *shadow) write(p int64) {
	s.mapped[p] = true
	s.touch(p)
	s.writes++
}

func (s *shadow) trim(p int64) {
	s.mapped[p] = false
	s.touch(p)
	s.trims++
}

// flushed records a completed Flush: every touched page is now durable.
func (s *shadow) flushed() {
	for _, p := range s.dirtyList {
		s.dirty[p] = false
	}
	s.dirtyList = s.dirtyList[:0]
}

// auditLive checks a device that has not crashed: the consistency audit,
// every page's mapped state exactly, and the operation counters. It returns
// a description of each disagreement.
func (b *bench) auditLive(dev *geckoftl.Device, sh *shadow) []string {
	var out []string
	_ = b.phase(spAudit, func() error {
		if err := dev.CheckConsistency(); err != nil {
			out = append(out, fmt.Sprintf("CheckConsistency on a live device: %v", err))
		}
		if msg := compareMapped(dev, sh, false); msg != "" {
			out = append(out, msg)
		}
		ops := dev.Snapshot().Ops
		if ops.Writes != sh.writes || ops.Reads != sh.reads || ops.Trims != sh.trims {
			out = append(out, fmt.Sprintf("Snapshot.Ops writes/reads/trims = %d/%d/%d, client issued %d/%d/%d",
				ops.Writes, ops.Reads, ops.Trims, sh.writes, sh.reads, sh.trims))
		}
		return nil
	})
	return out
}

// auditRecovered checks a device after Restart or PowerFail+Recover: the
// consistency audit, and the flushed-state oracle — every page not touched
// since the last Flush must hold its flushed mapped or trimmed state. A
// touched page may land on either side of the crash; the shadow adopts what
// the device reports and the pages become durable again. It returns "" when
// the device passes.
func (b *bench) auditRecovered(dev *geckoftl.Device, sh *shadow) string {
	var msg string
	_ = b.phase(spAudit, func() error {
		if err := dev.CheckConsistency(); err != nil {
			msg = fmt.Sprintf("CheckConsistency: %v", err)
		}
		if m := compareMapped(dev, sh, true); m != "" && msg == "" {
			msg = m
		}
		return nil
	})
	sh.flushed()
	return msg
}

// compareMapped compares every page's mapped state with the shadow. With
// adoptDirty, pages touched since the last Flush take the device's state
// instead of being compared.
func compareMapped(dev *geckoftl.Device, sh *shadow, adoptDirty bool) string {
	var bad int64
	first := int64(-1)
	for p := range sh.mapped {
		got, err := dev.Mapped(geckoftl.LPN(p))
		if err != nil {
			return fmt.Sprintf("Mapped(%d): %v", p, err)
		}
		if adoptDirty && sh.dirty[p] {
			sh.mapped[p] = got
			continue
		}
		if got != sh.mapped[p] {
			if first < 0 {
				first = int64(p)
			}
			bad++
		}
	}
	if bad == 0 {
		return ""
	}
	return fmt.Sprintf("%d logical pages disagree with the shadow model (first: page %d, device says mapped=%v)",
		bad, first, !sh.mapped[first])
}
