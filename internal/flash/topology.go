package flash

import (
	"fmt"
	"sync/atomic"
	"time"
)

// channels returns the configured channel count, treating zero as one.
func (c Config) channels() int {
	if c.Channels <= 0 {
		return 1
	}
	return c.Channels
}

// diesPerChannel returns the configured dies per channel, treating zero as one.
func (c Config) diesPerChannel() int {
	if c.DiesPerChannel <= 0 {
		return 1
	}
	return c.DiesPerChannel
}

// Dies returns the total number of independently operating dies,
// Channels * DiesPerChannel (each defaulting to one when zero).
func (c Config) Dies() int { return c.channels() * c.diesPerChannel() }

// NumChannels returns the channel count, treating zero as one. (A method
// because the Channels field keeps zero as "unset" for backward
// compatibility with single-plane configurations.)
func (c Config) NumChannels() int { return c.channels() }

// DieOfBlock returns the die a block resides on. Blocks are laid out across
// dies in contiguous ranges, so a contiguous block range [lo,hi) aligned to
// die boundaries touches only its own dies — the property the ftl.Engine uses
// to give each shard a contention-free set of dies.
func (c Config) DieOfBlock(block BlockID) int {
	return int(int64(block) * int64(c.Dies()) / int64(c.Blocks))
}

// ChannelOfBlock returns the channel whose bus serves the block's die.
func (c Config) ChannelOfBlock(block BlockID) int {
	return c.DieOfBlock(block) / c.diesPerChannel()
}

// DieBlockRange returns the half-open block range [lo,hi) owned by a die.
func (c Config) DieBlockRange(die int) (lo, hi BlockID) {
	d, k := int64(c.Dies()), int64(c.Blocks)
	lo = BlockID((int64(die)*k + d - 1) / d)
	hi = BlockID((int64(die+1)*k + d - 1) / d)
	return lo, hi
}

// ChannelBlockRange returns the half-open block range [lo,hi) served by a
// channel: the union of its dies' ranges.
func (c Config) ChannelBlockRange(channel int) (lo, hi BlockID) {
	lo, _ = c.DieBlockRange(channel * c.diesPerChannel())
	_, hi = c.DieBlockRange((channel+1)*c.diesPerChannel() - 1)
	return lo, hi
}

// Plane is the device interface the FTLs program against. Both the whole
// *Device and a *Partition (a contiguous block range of a device) implement
// it, which is how the sharded ftl.Engine runs an unmodified FTL per channel.
type Plane interface {
	// Config describes the plane's geometry: for a partition, Blocks is the
	// partition's block count and addresses are partition-relative.
	Config() Config
	WritePage(ppn PPN, spare SpareArea, payload any, p Purpose) (uint64, error)
	ReadPage(ppn PPN, p Purpose) (any, error)
	// DiscardPayload drops a page's payload once its owner no longer needs
	// it. It is bookkeeping, not an IO.
	DiscardPayload(ppn PPN) error
	ReadSpare(ppn PPN, p Purpose) (SpareArea, bool, error)
	EraseBlock(block BlockID, p Purpose) error
	// NoteTrim records a host trim of the page at ppn in the invalidation
	// counters (OpTrim). It is a zero-latency accounting event, not an IO.
	NoteTrim(ppn PPN, p Purpose) error
	WritePointer(block BlockID) (int, error)
	EraseCount(block BlockID) (int, error)
	// ReadCount returns the full-page reads a block has absorbed since its
	// last erase (the read-disturb accumulation the scrubber watches), and
	// BadBlock whether the block has been retired as a grown bad block.
	// Both model controller bookkeeping (read counters, the bad-block
	// table), like WritePointer and EraseCount, and are not IO.
	ReadCount(block BlockID) (int, error)
	BadBlock(block BlockID) (bool, error)
	BlocksEndurance() (min, max int, mean float64)
	// Counters, SimulatedTime and ResetCounters report and reset the IO
	// accounting of the underlying device. For a partition they are scoped
	// to the dies its block range touches, so concurrent shards account (and
	// time) their IO independently; the scoping is exact when partitions are
	// die-aligned (the sharded ftl.Engine rounds its shards to die
	// boundaries whenever the geometry allows), and approximate — neighbors
	// on a shared die bleed into each other's numbers — otherwise.
	Counters() Counters
	SimulatedTime() time.Duration
	ResetCounters()
	// BusyUntil returns the virtual-timeline instant at which the plane's
	// most recently issued operation completes (scoped to the partition's
	// dies for a *Partition, floored at the plane's arrival clock). The
	// latency instrumentation subtracts a round's arrival instant
	// (SyncArrival) from it to obtain per-operation service times that
	// include queueing behind the die.
	BusyUntil() time.Duration
	// SyncArrival advances the plane's arrival clock to BusyUntil and
	// returns it: subsequent operations on the plane start no earlier than
	// this instant. For a *Device the clock is device-wide; for a
	// *Partition it is the partition's own, so concurrent shards' arrival
	// stamps never interfere with (or lock) each other's dies.
	SyncArrival() time.Duration
	// AdvanceArrival ratchets the plane's arrival clock forward to at least
	// t (never backward): subsequent operations start no earlier than t.
	// Open-loop drivers use it to stamp an operation's generated arrival
	// instant before issuing it, so an op that reaches an idle plane still
	// starts at its arrival time rather than at the plane's last completion.
	AdvanceArrival(t time.Duration)
	// PowerFail, PowerOn and Powered operate on the plane's own power
	// domain: the whole device for a *Device, the partition's domain for a
	// *Partition. Partitions of one device fail and recover independently.
	PowerFail()
	PowerOn()
	Powered() bool
}

var (
	_ Plane = (*Device)(nil)
	_ Plane = (*Partition)(nil)
)

// Partition is a view over a contiguous block range of a Device. Block IDs
// and physical page numbers are partition-relative: block 0 of the partition
// is block base of the device. IO issued through a partition is executed,
// latched and accounted by the parent device, so partitions on different dies
// run in parallel while partitions sharing a die serialize.
//
// Each partition is its own power domain: Partition.PowerFail cuts only the
// partition, and Partition.PowerOn restores only the partition, so shards of
// one device crash and recover independently. The device-wide power rail
// (Device.PowerFail) sits underneath every domain: while it is down, no
// partition is powered regardless of its own domain state.
type Partition struct {
	dev  *Device
	base BlockID
	cfg  Config
	// loDie and hiDie bound the dies the partition's blocks touch; counters
	// and simulated time are scoped to this half-open range.
	loDie, hiDie int
	powered      atomic.Bool
	// arrival is the partition's own arrival clock in nanoseconds: IO issued
	// through the partition starts no earlier than it (on top of the
	// device-wide arrival clock). SyncArrival ratchets it to the partition's
	// completion instant, which keeps an operation that lands on an idle die
	// of a multi-die partition from starting before the partition's previous
	// operation completed — and its measured latency honest.
	arrival atomic.Int64
}

// Partition carves the block range [base, base+blocks) out of the device.
// The returned view has the parent's geometry and cost model but only the
// given blocks (and proportionally fewer logical pages). The range is not
// reserved: nothing stops other partitions or direct device access from
// overlapping it; callers that shard a device are responsible for using
// disjoint ranges.
func (d *Device) Partition(base BlockID, blocks int) (*Partition, error) {
	if base < 0 || blocks <= 0 || int(base)+blocks > d.cfg.Blocks {
		return nil, fmt.Errorf("%w: partition [%d,%d) of %d blocks", ErrOutOfRange, base, int(base)+blocks, d.cfg.Blocks)
	}
	cfg := d.cfg
	cfg.Blocks = blocks
	// The partition spans a subset of the device's dies; its own view is a
	// single plane, so the topology fields are cleared.
	cfg.Channels = 0
	cfg.DiesPerChannel = 0
	p := &Partition{
		dev:   d,
		base:  base,
		cfg:   cfg,
		loDie: d.cfg.DieOfBlock(base),
		hiDie: d.cfg.DieOfBlock(base+BlockID(blocks)-1) + 1,
	}
	p.powered.Store(true)
	return p, nil
}

// Config returns the partition-relative configuration.
func (p *Partition) Config() Config { return p.cfg }

// Base returns the first device block of the partition.
func (p *Partition) Base() BlockID { return p.base }

// Device returns the parent device.
func (p *Partition) Device() *Device { return p.dev }

// checkBlock bounds-checks a partition-relative block ID before translation,
// so a buggy caller cannot reach a neighboring partition's blocks, and
// enforces the partition's power domain (the parent device enforces the
// shared rail itself).
func (p *Partition) checkBlock(block BlockID) error {
	if !p.powered.Load() {
		return ErrPowerFailed
	}
	if block < 0 || int(block) >= p.cfg.Blocks {
		return fmt.Errorf("%w: block %d of partition with %d blocks", ErrOutOfRange, block, p.cfg.Blocks)
	}
	return nil
}

// checkPPN bounds-checks a partition-relative page number before translation
// and enforces the partition's power domain.
func (p *Partition) checkPPN(ppn PPN) error {
	if !p.powered.Load() {
		return ErrPowerFailed
	}
	if ppn < 0 || int64(ppn) >= int64(p.cfg.Blocks)*int64(p.cfg.PagesPerBlock) {
		return fmt.Errorf("%w: page %d of partition with %d pages", ErrOutOfRange, ppn, int64(p.cfg.Blocks)*int64(p.cfg.PagesPerBlock))
	}
	return nil
}

// ppnOffset is the device page number of the partition's page 0.
func (p *Partition) ppnOffset() PPN {
	return PPN(int64(p.base) * int64(p.cfg.PagesPerBlock))
}

// WritePage programs the partition-relative page ppn on the parent device.
func (p *Partition) WritePage(ppn PPN, spare SpareArea, payload any, pu Purpose) (uint64, error) {
	if err := p.checkPPN(ppn); err != nil {
		return 0, err
	}
	return p.dev.writePage(ppn+p.ppnOffset(), spare, payload, pu, p.floor())
}

// ReadPage reads the partition-relative page ppn.
func (p *Partition) ReadPage(ppn PPN, pu Purpose) (any, error) {
	if err := p.checkPPN(ppn); err != nil {
		return nil, err
	}
	return p.dev.readPage(ppn+p.ppnOffset(), pu, p.floor())
}

// DiscardPayload drops the payload of the partition-relative page ppn.
func (p *Partition) DiscardPayload(ppn PPN) error {
	if err := p.checkPPN(ppn); err != nil {
		return err
	}
	return p.dev.DiscardPayload(ppn + p.ppnOffset())
}

// ReadSpare reads the spare area of the partition-relative page ppn.
func (p *Partition) ReadSpare(ppn PPN, pu Purpose) (SpareArea, bool, error) {
	if err := p.checkPPN(ppn); err != nil {
		return SpareArea{}, false, err
	}
	return p.dev.readSpare(ppn+p.ppnOffset(), pu, p.floor())
}

// NoteTrim records a host trim of the partition-relative page ppn.
func (p *Partition) NoteTrim(ppn PPN, pu Purpose) error {
	if err := p.checkPPN(ppn); err != nil {
		return err
	}
	return p.dev.noteTrim(ppn+p.ppnOffset(), pu, p.floor())
}

// EraseBlock erases the partition-relative block.
func (p *Partition) EraseBlock(block BlockID, pu Purpose) error {
	if err := p.checkBlock(block); err != nil {
		return err
	}
	return p.dev.eraseBlock(block+p.base, pu, p.floor())
}

// WritePointer returns the write pointer of the partition-relative block.
func (p *Partition) WritePointer(block BlockID) (int, error) {
	if err := p.checkBlock(block); err != nil {
		return 0, err
	}
	return p.dev.WritePointer(block + p.base)
}

// EraseCount returns the erase count of the partition-relative block.
func (p *Partition) EraseCount(block BlockID) (int, error) {
	if err := p.checkBlock(block); err != nil {
		return 0, err
	}
	return p.dev.EraseCount(block + p.base)
}

// ReadCount returns the read-disturb count of the partition-relative block.
func (p *Partition) ReadCount(block BlockID) (int, error) {
	if err := p.checkBlock(block); err != nil {
		return 0, err
	}
	return p.dev.ReadCount(block + p.base)
}

// BadBlock reports whether the partition-relative block has been retired.
func (p *Partition) BadBlock(block BlockID) (bool, error) {
	if err := p.checkBlock(block); err != nil {
		return false, err
	}
	return p.dev.BadBlock(block + p.base)
}

// BlocksEndurance returns min, max and mean erase counts over the
// partition's blocks only.
func (p *Partition) BlocksEndurance() (min, max int, mean float64) {
	return p.dev.enduranceRange(p.base, p.cfg.Blocks)
}

// Counters returns the IO counters of the dies the partition's blocks touch.
// For a die-aligned partition (as the sharded ftl.Engine creates) this is
// exactly the partition's own IO; a partition sharing a die with a neighbor
// also sees the neighbor's IO on that die.
func (p *Partition) Counters() Counters { return p.dev.countersOverDies(p.loDie, p.hiDie) }

// SimulatedTime returns the summed busy time of the partition's dies: the
// critical path of a shard that drives its dies synchronously. Concurrent
// shards on other dies do not contribute.
func (p *Partition) SimulatedTime() time.Duration { return p.dev.timeOverDies(p.loDie, p.hiDie) }

// ResetCounters resets the counters of the partition's dies only.
func (p *Partition) ResetCounters() { p.dev.resetCountersOverDies(p.loDie, p.hiDie) }

// floor returns the partition's arrival clock, the earliest instant IO
// issued through the partition may start.
func (p *Partition) floor() time.Duration { return time.Duration(p.arrival.Load()) }

// BusyUntil returns the completion instant of the last operation issued to
// the partition's dies, floored at the device-wide and partition arrival
// clocks. For a die-aligned partition driven serially (an engine shard)
// this is exactly the completion time of the shard's most recent operation.
func (p *Partition) BusyUntil() time.Duration {
	max := p.dev.busyUntilOverDies(p.loDie, p.hiDie)
	if f := p.floor(); f > max {
		max = f
	}
	return max
}

// SyncArrival advances the partition's own arrival clock to its completion
// instant and returns it. Unlike Device.SyncArrival it touches only the
// partition's dies, so concurrent shards never contend here.
func (p *Partition) SyncArrival() time.Duration {
	now := p.BusyUntil()
	for {
		cur := p.arrival.Load()
		if int64(now) <= cur {
			return time.Duration(cur)
		}
		if p.arrival.CompareAndSwap(cur, int64(now)) {
			return now
		}
	}
}

// AdvanceArrival ratchets the partition's arrival clock forward to at least
// t. Unlike SyncArrival it does not consult the dies: the caller names the
// arrival instant (an open-loop generator's stamp), and IO issued afterwards
// starts no earlier than it even on an idle die.
func (p *Partition) AdvanceArrival(t time.Duration) {
	for {
		cur := p.arrival.Load()
		if int64(t) <= cur {
			return
		}
		if p.arrival.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// PowerFail fails power on the partition's own domain: the partition refuses
// all operations until its own PowerOn, while sibling partitions and the
// parent device keep running. (An engine-wide crash also drops the shared
// rail via Device.PowerFail.)
func (p *Partition) PowerFail() { p.powered.Store(false) }

// PowerOn restores the partition's own power domain after a PowerFail. It
// does not touch the shared device rail: if the whole device was failed, the
// partition stays unpowered until Device.PowerOn.
func (p *Partition) PowerOn() { p.powered.Store(true) }

// Powered reports whether the partition has power: its own domain must be up
// and the parent device's shared rail must be up.
func (p *Partition) Powered() bool { return p.powered.Load() && p.dev.Powered() }
