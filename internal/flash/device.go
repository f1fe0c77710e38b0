package flash

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// blockState is the simulator's per-block bookkeeping. It is guarded by the
// lock of the die the block resides on.
type blockState struct {
	// writePointer is the offset of the next free page; pages below it
	// have been programmed since the last erase.
	writePointer int
	// eraseCount is the number of erases the block has endured.
	eraseCount int
	// eraseSeq is the global erase counter value at the block's last erase.
	eraseSeq uint64
	// spares holds the spare area contents of programmed pages.
	spares []SpareArea
	// payloads holds the opaque payloads of programmed pages, indexed like
	// spares; allocated on the first payload the block receives.
	payloads []any
	// readCount counts full-page reads since the last erase: the
	// read-disturb accumulation. It is physical charge state, so it survives
	// power failures and is reset only by an erase.
	readCount int
	// bad marks pages whose program pulse failed; they hold nothing readable
	// and read back as unprogrammed. Allocated lazily on the first failure.
	bad []bool
	// retired marks a grown bad block: an erase failed on it, or it was
	// caught worn out. Retirement is recorded in the device's bad-block
	// table (out-of-band, as on real controllers), so it is device truth
	// that survives power failures; retired blocks refuse programs and
	// erases forever.
	retired bool
}

// dieState is the per-die latch and accounting. Locking the mutex models the
// die's ready/busy line: two operations on the same die serialize, while
// operations on different dies proceed in parallel.
type dieState struct {
	mu sync.Mutex
	// counters accounts the IO executed by this die; the device aggregates
	// them on demand. The counters' elapsed time is the die's busy time.
	counters Counters
	// busyUntil is the instant, on the device-wide virtual timeline, at which
	// the die's most recently issued operation completes. Unlike the
	// counters' elapsed time it respects idle gaps: an operation issued after
	// the arrival clock (see Device.SyncArrival) has moved past the die's
	// last completion starts at the arrival instant, not back-to-back. The
	// latency instrumentation derives per-operation service times — queueing
	// behind the die included — from this clock.
	busyUntil time.Duration
}

// Device is a simulated NAND flash device organized as Config.Channels
// channels of Config.DiesPerChannel dies each. All methods are safe for
// concurrent use: per-die locks latch each die independently, so callers
// (such as the sharded ftl.Engine) can dispatch page reads, writes and
// erases to independent dies in parallel.
//
// The device accounts every operation under the caller-supplied Purpose; the
// experiment harness uses these counters to reproduce the per-component
// write-amplification breakdowns of the paper's evaluation. Counters are kept
// per die: SimulatedTime sums all die-busy time (the serial, single-plane
// cost), ParallelSimulatedTime takes the busiest die (the wall-clock of a
// perfectly overlapped controller).
type Device struct {
	cfg      Config
	dies     []dieState
	blocks   []blockState
	writeSeq atomic.Uint64
	eraseSeq atomic.Uint64
	powered  atomic.Bool
	// arrival is the device-wide arrival clock in nanoseconds: no operation
	// starts before it. Callers that dispatch work in rounds (the sharded
	// ftl.Engine's batches) ratchet it forward with SyncArrival so that
	// per-operation latencies measure queueing within the current round
	// rather than against dies idle since an earlier one.
	arrival atomic.Int64
	// faults, when non-nil, is the installed fault plan (SetFaultPlan).
	faults *FaultPlan
	// opSeq counts attempts per operation kind device-wide; scripted fault
	// schedules key on these counts.
	opSeq [numOps]atomic.Uint64
}

// NewDevice creates a device with every block erased and empty.
func NewDevice(cfg Config) (*Device, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := &Device{
		cfg:    cfg,
		dies:   make([]dieState, cfg.Dies()),
		blocks: make([]blockState, cfg.Blocks),
	}
	for i := range d.blocks {
		d.blocks[i].spares = make([]SpareArea, cfg.PagesPerBlock)
	}
	d.powered.Store(true)
	return d, nil
}

// MustNewDevice is NewDevice that panics on configuration errors. It is used
// by tests and examples where the configuration is a literal.
func MustNewDevice(cfg Config) *Device {
	d, err := NewDevice(cfg)
	if err != nil {
		panic(err)
	}
	return d
}

// Config returns the device configuration.
func (d *Device) Config() Config { return d.cfg }

// SetFaultPlan installs (or, with a zero plan, clears) the device's fault
// plan. Install it before issuing IO: the call is not synchronized with
// in-flight operations. The scripted schedule's operation counts advance
// only while a plan is installed.
func (d *Device) SetFaultPlan(plan FaultPlan) error {
	if err := plan.Validate(); err != nil {
		return err
	}
	if plan.ProgramFailRate == 0 && plan.EraseFailRate == 0 &&
		plan.ReadDisturbLimit == 0 && len(plan.Schedule) == 0 {
		d.faults = nil
		return nil
	}
	plan.Schedule = append([]FaultEvent(nil), plan.Schedule...)
	d.faults = &plan
	return nil
}

// die returns the die state that latches the given block.
func (d *Device) die(block BlockID) *dieState {
	return &d.dies[d.cfg.DieOfBlock(block)]
}

// record charges one operation to a die (which must be locked by the caller)
// and advances the die's busy-until clock: the operation starts when the die
// is free, the device-wide arrival clock has been reached, and the caller's
// extra floor (a partition's own arrival clock) has passed; it completes one
// latency later. The floor is what keeps an operation issued to an idle die
// of a multi-die partition from starting "in the past" relative to the
// partition's clock, which would under-report its latency.
func (d *Device) record(die *dieState, op Op, p Purpose, cost, floor time.Duration) {
	die.counters.Record(op, p, cost)
	start := die.busyUntil
	if a := time.Duration(d.arrival.Load()); a > start {
		start = a
	}
	if floor > start {
		start = floor
	}
	die.busyUntil = start + cost
}

// check validates power state and block range.
func (d *Device) check(block BlockID) error {
	if !d.powered.Load() {
		return ErrPowerFailed
	}
	if block < 0 || int(block) >= d.cfg.Blocks {
		return fmt.Errorf("%w: block %d of %d", ErrOutOfRange, block, d.cfg.Blocks)
	}
	return nil
}

func (d *Device) checkPage(block BlockID, offset int) error {
	if err := d.check(block); err != nil {
		return err
	}
	if offset < 0 || offset >= d.cfg.PagesPerBlock {
		return fmt.Errorf("%w: offset %d of %d", ErrOutOfRange, offset, d.cfg.PagesPerBlock)
	}
	return nil
}

// WritePage programs the page at ppn with its spare area and payload (an
// opaque value ReadPage returns; nil for none), enforcing the NAND constraints:
// the page must be free and, when strict sequential writes are enabled, must
// be the block's next free page. The returned sequence number is the
// device-wide write timestamp recorded in the spare area.
func (d *Device) WritePage(ppn PPN, spare SpareArea, payload any, p Purpose) (uint64, error) {
	return d.writePage(ppn, spare, payload, p, 0)
}

// writePage is WritePage with a caller-supplied start floor on the virtual
// timeline (see record); partitions pass their own arrival clock.
func (d *Device) writePage(ppn PPN, spare SpareArea, payload any, p Purpose, floor time.Duration) (uint64, error) {
	addr := Decompose(ppn, d.cfg.PagesPerBlock)
	if err := d.checkPage(addr.Block, addr.Offset); err != nil {
		return 0, err
	}
	die := d.die(addr.Block)
	die.mu.Lock()
	defer die.mu.Unlock()
	blk := &d.blocks[addr.Block]
	if blk.retired {
		// The controller consults its bad-block table before issuing the
		// pulse, so a program aimed at a retired block costs no device time.
		return 0, fmt.Errorf("%w: %v: block retired", ErrProgramFailed, addr)
	}
	if addr.Offset < blk.writePointer {
		return 0, fmt.Errorf("%w: %v", ErrPageNotFree, addr)
	}
	if d.cfg.StrictSequentialWrites && addr.Offset != blk.writePointer {
		return 0, fmt.Errorf("%w: %v (write pointer at %d)", ErrNonSequentialWrite, addr, blk.writePointer)
	}
	if d.faults != nil && d.faults.fails(OpPageWrite, d.opSeq[OpPageWrite].Add(1), addr.Block, addr.Offset, blk.eraseCount) {
		// The program pulse ran and failed: the page is consumed — marked
		// bad, the write pointer moves past it — and the full program time
		// was spent. The FTL retries on the block's next free page.
		if blk.bad == nil {
			blk.bad = make([]bool, d.cfg.PagesPerBlock)
		}
		blk.bad[addr.Offset] = true
		if addr.Offset >= blk.writePointer {
			blk.writePointer = addr.Offset + 1
		}
		d.record(die, OpPageWrite, p, d.cfg.Latency.PageWrite, floor)
		return 0, fmt.Errorf("%w: %v", ErrProgramFailed, addr)
	}
	seq := d.writeSeq.Add(1)
	spare.WriteSeq = seq
	spare.EraseCount = uint32(blk.eraseCount)
	spare.EraseSeq = blk.eraseSeq
	blk.spares[addr.Offset] = spare
	if payload != nil {
		if blk.payloads == nil {
			blk.payloads = make([]any, d.cfg.PagesPerBlock)
		}
		blk.payloads[addr.Offset] = payload
	}
	if addr.Offset >= blk.writePointer {
		blk.writePointer = addr.Offset + 1
	}
	d.record(die, OpPageWrite, p, d.cfg.Latency.PageWrite, floor)
	return seq, nil
}

// ReadPage reads the programmed page at ppn, accounting the IO, and returns
// the payload it was written with (nil if none or discarded).
func (d *Device) ReadPage(ppn PPN, p Purpose) (any, error) {
	return d.readPage(ppn, p, 0)
}

// readPage is ReadPage with a caller-supplied start floor.
func (d *Device) readPage(ppn PPN, p Purpose, floor time.Duration) (any, error) {
	addr := Decompose(ppn, d.cfg.PagesPerBlock)
	if err := d.checkPage(addr.Block, addr.Offset); err != nil {
		return nil, err
	}
	die := d.die(addr.Block)
	die.mu.Lock()
	defer die.mu.Unlock()
	blk := &d.blocks[addr.Block]
	if addr.Offset >= blk.writePointer {
		return nil, fmt.Errorf("%w: %v", ErrPageNotWritten, addr)
	}
	if blk.bad != nil && blk.bad[addr.Offset] {
		// A page whose program failed holds nothing readable.
		return nil, fmt.Errorf("%w: %v: program failed", ErrPageNotWritten, addr)
	}
	blk.readCount++
	d.record(die, OpPageRead, p, d.cfg.Latency.PageRead, floor)
	if d.faults != nil {
		n := d.opSeq[OpPageRead].Add(1)
		if limit := d.faults.ReadDisturbLimit; limit > 0 && blk.readCount > limit {
			return nil, fmt.Errorf("%w: %v after %d reads since erase", ErrReadDecayed, addr, blk.readCount)
		}
		if d.faults.scheduled(OpPageRead, n) {
			return nil, fmt.Errorf("%w: %v (scheduled)", ErrReadDecayed, addr)
		}
	}
	if blk.payloads == nil {
		return nil, nil
	}
	return blk.payloads[addr.Offset], nil
}

// DiscardPayload drops the payload of the page at ppn once its owner no
// longer needs it, so dead content is not held until the block's erase. It is
// bookkeeping, not an IO: no device time, and the page stays programmed.
func (d *Device) DiscardPayload(ppn PPN) error {
	addr := Decompose(ppn, d.cfg.PagesPerBlock)
	if err := d.checkPage(addr.Block, addr.Offset); err != nil {
		return err
	}
	die := d.die(addr.Block)
	die.mu.Lock()
	defer die.mu.Unlock()
	if blk := &d.blocks[addr.Block]; blk.payloads != nil {
		blk.payloads[addr.Offset] = nil
	}
	return nil
}

// ReadSpare reads only the spare area of the page at ppn. Unlike ReadPage it
// succeeds on unprogrammed pages and reports whether the page was programmed,
// because recovery scans probe spare areas of possibly-free pages.
func (d *Device) ReadSpare(ppn PPN, p Purpose) (SpareArea, bool, error) {
	return d.readSpare(ppn, p, 0)
}

// readSpare is ReadSpare with a caller-supplied start floor.
func (d *Device) readSpare(ppn PPN, p Purpose, floor time.Duration) (SpareArea, bool, error) {
	addr := Decompose(ppn, d.cfg.PagesPerBlock)
	if err := d.checkPage(addr.Block, addr.Offset); err != nil {
		return SpareArea{}, false, err
	}
	die := d.die(addr.Block)
	die.mu.Lock()
	defer die.mu.Unlock()
	blk := &d.blocks[addr.Block]
	d.record(die, OpSpareRead, p, d.cfg.Latency.SpareRead, floor)
	if addr.Offset >= blk.writePointer {
		return SpareArea{}, false, nil
	}
	if blk.bad != nil && blk.bad[addr.Offset] {
		// Pages whose program failed report as unprogrammed, so recovery
		// scans skip them instead of trusting garbage.
		return SpareArea{}, false, nil
	}
	return blk.spares[addr.Offset], true, nil
}

// NoteTrim records a host trim (discard) of the page at ppn: the page's
// contents are no longer needed by the host and the FTL has marked them
// invalid. NAND has no trim primitive, so the record costs no device time; it
// exists so the invalidation counters can report how much invalid space the
// host supplied next to the IO the FTL spent on it (Counters, OpTrim). The
// page itself is untouched — only an erase of its block reclaims it.
func (d *Device) NoteTrim(ppn PPN, p Purpose) error {
	return d.noteTrim(ppn, p, 0)
}

// noteTrim is NoteTrim with a caller-supplied start floor (unused by the
// zero-cost record, kept for symmetry with the IO paths).
func (d *Device) noteTrim(ppn PPN, p Purpose, floor time.Duration) error {
	addr := Decompose(ppn, d.cfg.PagesPerBlock)
	if err := d.checkPage(addr.Block, addr.Offset); err != nil {
		return err
	}
	die := d.die(addr.Block)
	die.mu.Lock()
	defer die.mu.Unlock()
	d.record(die, OpTrim, p, 0, floor)
	return nil
}

// EraseBlock erases a block, freeing all of its pages.
func (d *Device) EraseBlock(block BlockID, p Purpose) error {
	return d.eraseBlock(block, p, 0)
}

// eraseBlock is EraseBlock with a caller-supplied start floor.
func (d *Device) eraseBlock(block BlockID, p Purpose, floor time.Duration) error {
	if err := d.check(block); err != nil {
		return err
	}
	die := d.die(block)
	die.mu.Lock()
	defer die.mu.Unlock()
	blk := &d.blocks[block]
	if d.cfg.MaxEraseCount > 0 && blk.eraseCount >= d.cfg.MaxEraseCount {
		// The budget check is controller bookkeeping (no pulse is issued),
		// but the attempt still retires the block: from here on BadBlock
		// reports it and no further program or erase will be accepted.
		blk.retired = true
		return fmt.Errorf("%w: block %d erased %d times", ErrWornOut, block, blk.eraseCount)
	}
	if blk.retired {
		return fmt.Errorf("%w: block %d retired", ErrEraseFailed, block)
	}
	if d.faults != nil && d.faults.fails(OpErase, d.opSeq[OpErase].Add(1), block, 0, blk.eraseCount) {
		// The erase pulse ran, failed, and cost full erase time. The block
		// becomes a grown bad block; its contents are untouched.
		blk.retired = true
		d.record(die, OpErase, p, d.cfg.Latency.Erase, floor)
		return fmt.Errorf("%w: block %d", ErrEraseFailed, block)
	}
	blk.eraseCount++
	blk.eraseSeq = d.eraseSeq.Add(1)
	blk.writePointer = 0
	blk.readCount = 0
	blk.bad = nil
	blk.payloads = nil
	for i := range blk.spares {
		blk.spares[i] = SpareArea{}
	}
	d.record(die, OpErase, p, d.cfg.Latency.Erase, floor)
	return nil
}

// WritePointer returns the next free page offset of a block (equal to
// PagesPerBlock when the block is full). It models the FTL's own in-RAM
// knowledge of its active blocks and is not an IO.
func (d *Device) WritePointer(block BlockID) (int, error) {
	if err := d.check(block); err != nil {
		return 0, err
	}
	die := d.die(block)
	die.mu.Lock()
	defer die.mu.Unlock()
	return d.blocks[block].writePointer, nil
}

// EraseCount returns the number of erases a block has endured. Not an IO.
func (d *Device) EraseCount(block BlockID) (int, error) {
	if err := d.check(block); err != nil {
		return 0, err
	}
	die := d.die(block)
	die.mu.Lock()
	defer die.mu.Unlock()
	return d.blocks[block].eraseCount, nil
}

// ReadCount returns the number of full-page reads a block has absorbed since
// its last erase: the read-disturb accumulation the FTL's scrubber watches.
// It models the controller's per-block read counter and is not an IO.
func (d *Device) ReadCount(block BlockID) (int, error) {
	if err := d.check(block); err != nil {
		return 0, err
	}
	die := d.die(block)
	die.mu.Lock()
	defer die.mu.Unlock()
	return d.blocks[block].readCount, nil
}

// BadBlock reports whether a block has been retired (a failed erase, or an
// erase attempted past the block's budget). It models the controller's
// bad-block table — device truth that survives power failures — and is not
// an IO.
func (d *Device) BadBlock(block BlockID) (bool, error) {
	if err := d.check(block); err != nil {
		return false, err
	}
	die := d.die(block)
	die.mu.Lock()
	defer die.mu.Unlock()
	return d.blocks[block].retired, nil
}

// GlobalEraseSeq returns the device-wide erase counter. Not an IO.
func (d *Device) GlobalEraseSeq() uint64 { return d.eraseSeq.Load() }

// GlobalWriteSeq returns the device-wide write sequence number. Not an IO.
func (d *Device) GlobalWriteSeq() uint64 { return d.writeSeq.Load() }

// Counters returns a snapshot of the IO counters aggregated over all dies.
// With concurrent callers in flight the snapshot is per-die consistent but
// not a single global instant; quiesce the device for an exact total.
func (d *Device) Counters() Counters {
	return d.countersOverDies(0, len(d.dies))
}

// countersOverDies aggregates the counters of dies [lo, hi). Partitions use
// it to report only their own dies' IO.
func (d *Device) countersOverDies(lo, hi int) Counters {
	var total Counters
	for i := lo; i < hi; i++ {
		die := &d.dies[i]
		die.mu.Lock()
		total.Add(die.counters)
		die.mu.Unlock()
	}
	return total
}

// ResetCounters zeroes the IO counters of every die, typically after a
// warm-up phase so that steady-state write-amplification can be measured.
func (d *Device) ResetCounters() {
	d.resetCountersOverDies(0, len(d.dies))
}

// resetCountersOverDies zeroes the counters of dies [lo, hi).
func (d *Device) resetCountersOverDies(lo, hi int) {
	for i := lo; i < hi; i++ {
		die := &d.dies[i]
		die.mu.Lock()
		die.counters.Reset()
		die.mu.Unlock()
	}
}

// PowerFail simulates an abrupt power failure of the whole device: it
// refuses all operations until PowerOn is called. Flash contents survive;
// anything the FTL kept in integrated RAM does not (that loss is the FTL's
// concern). Partitions carved out of the device additionally have their own
// power domain (see Partition.PowerFail): device power is the shared rail
// underneath every partition domain.
func (d *Device) PowerFail() { d.powered.Store(false) }

// PowerOn restores power after a PowerFail. It restores only the device-wide
// rail; partitions whose own domain was failed stay dark until their own
// PowerOn.
func (d *Device) PowerOn() { d.powered.Store(true) }

// Powered reports whether the device currently has power.
func (d *Device) Powered() bool { return d.powered.Load() }

// SimulatedTime returns the total device time consumed so far under the
// latency model: the sum of every die's busy time, i.e. the cost of
// executing all IO on a single serialized plane.
func (d *Device) SimulatedTime() time.Duration {
	return d.timeOverDies(0, len(d.dies))
}

// timeOverDies sums the busy time of dies [lo, hi).
func (d *Device) timeOverDies(lo, hi int) time.Duration {
	var total time.Duration
	for i := lo; i < hi; i++ {
		die := &d.dies[i]
		die.mu.Lock()
		total += die.counters.Elapsed()
		die.mu.Unlock()
	}
	return total
}

// SyncArrival advances the device-wide arrival clock to the completion
// instant of all work issued so far (the latest die busy-until) and returns
// it. Callers that dispatch operations in rounds — the sharded ftl.Engine
// calls it once per batch, and once per single-page operation — use the
// returned instant as the round's arrival time: a subsequent operation's
// latency is its completion minus this arrival, which charges queueing
// behind earlier operations of the same round on the same die, but not idle
// time from before the round. The clock only moves forward.
func (d *Device) SyncArrival() time.Duration {
	now := d.BusyUntil()
	for {
		cur := d.arrival.Load()
		if int64(now) <= cur {
			return time.Duration(cur)
		}
		if d.arrival.CompareAndSwap(cur, int64(now)) {
			return now
		}
	}
}

// AdvanceArrival ratchets the device-wide arrival clock forward to at least
// t (never backward). Open-loop drivers stamp a generated arrival instant
// with it before issuing IO; see Partition.AdvanceArrival.
func (d *Device) AdvanceArrival(t time.Duration) {
	for {
		cur := d.arrival.Load()
		if int64(t) <= cur {
			return
		}
		if d.arrival.CompareAndSwap(cur, int64(t)) {
			return
		}
	}
}

// BusyUntil returns the instant on the virtual timeline at which the last
// operation issued to any die completes, floored at the arrival clock (so an
// idle device reports the current virtual now rather than a stale
// completion).
func (d *Device) BusyUntil() time.Duration {
	return d.busyUntilOverDies(0, len(d.dies))
}

// busyUntilOverDies returns the latest busy-until instant of dies [lo, hi),
// floored at the arrival clock.
func (d *Device) busyUntilOverDies(lo, hi int) time.Duration {
	max := time.Duration(d.arrival.Load())
	for i := lo; i < hi; i++ {
		die := &d.dies[i]
		die.mu.Lock()
		if die.busyUntil > max {
			max = die.busyUntil
		}
		die.mu.Unlock()
	}
	return max
}

// ParallelSimulatedTime returns the busy time of the busiest die: the
// wall-clock lower bound for a controller that overlaps independent dies
// perfectly. On a 1x1 topology it equals SimulatedTime.
func (d *Device) ParallelSimulatedTime() time.Duration {
	var max time.Duration
	for i := range d.dies {
		die := &d.dies[i]
		die.mu.Lock()
		if t := die.counters.Elapsed(); t > max {
			max = t
		}
		die.mu.Unlock()
	}
	return max
}

// DieTimes returns each die's accumulated busy time, indexed by die. The
// channel-sweep experiments use it to report load balance.
func (d *Device) DieTimes() []time.Duration {
	out := make([]time.Duration, len(d.dies))
	for i := range d.dies {
		die := &d.dies[i]
		die.mu.Lock()
		out[i] = die.counters.Elapsed()
		die.mu.Unlock()
	}
	return out
}

// BlocksEndurance returns min, max and mean erase counts across all blocks.
// The wear-leveling tests use it to bound erase-count discrepancies.
func (d *Device) BlocksEndurance() (min, max int, mean float64) {
	return d.enduranceRange(0, d.cfg.Blocks)
}

// enduranceRange computes erase-count statistics over the block range
// [base, base+n), locking each die once.
func (d *Device) enduranceRange(base BlockID, n int) (min, max int, mean float64) {
	if n <= 0 {
		return 0, 0, 0
	}
	first := true
	var total int64
	lastDie := d.cfg.DieOfBlock(base + BlockID(n) - 1)
	for dieID := d.cfg.DieOfBlock(base); dieID <= lastDie; dieID++ {
		lo, hi := d.cfg.DieBlockRange(dieID)
		if lo < base {
			lo = base
		}
		if limit := base + BlockID(n); hi > limit {
			hi = limit
		}
		die := &d.dies[dieID]
		die.mu.Lock()
		for b := lo; b < hi; b++ {
			ec := d.blocks[b].eraseCount
			if first || ec < min {
				min = ec
			}
			if first || ec > max {
				max = ec
			}
			first = false
			total += int64(ec)
		}
		die.mu.Unlock()
	}
	return min, max, float64(total) / float64(n)
}
