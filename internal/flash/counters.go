package flash

import (
	"fmt"
	"sort"
	"strings"
	"time"
)

// Purpose labels the FTL component on whose behalf an internal IO was issued.
// The evaluation section of the paper breaks write-amplification down by
// these purposes (Figure 13 bottom, Figure 14), so every device operation
// must carry one.
type Purpose int

const (
	// PurposeUnknown is used when the caller does not attribute the IO.
	PurposeUnknown Purpose = iota
	// PurposeUserWrite is an application write of user data.
	PurposeUserWrite
	// PurposeUserRead is an application read of user data.
	PurposeUserRead
	// PurposeGCMigration is a copy of a still-valid page out of a
	// garbage-collection victim block.
	PurposeGCMigration
	// PurposeGCErase is the erase of a victim block.
	PurposeGCErase
	// PurposeTranslation covers reads and writes of translation pages
	// (synchronization operations and demand misses).
	PurposeTranslation
	// PurposePageValidity covers IO to page-validity metadata: the
	// flash-resident PVB, Logarithmic Gecko runs, or the page validity log.
	PurposePageValidity
	// PurposeRecovery covers IO performed while recovering from a power
	// failure.
	PurposeRecovery
	// PurposeWearLeveling covers the background spare-area scans and
	// migrations of the wear-leveler.
	PurposeWearLeveling
	// PurposeTrim covers work done on behalf of host trim (discard)
	// commands: the zero-latency invalidation records themselves (OpTrim)
	// and any translation reads a trim needs to identify its before-image.
	PurposeTrim
	numPurposes
)

var purposeNames = [...]string{
	PurposeUnknown:      "unknown",
	PurposeUserWrite:    "user-write",
	PurposeUserRead:     "user-read",
	PurposeGCMigration:  "gc-migration",
	PurposeGCErase:      "gc-erase",
	PurposeTranslation:  "translation",
	PurposePageValidity: "page-validity",
	PurposeRecovery:     "recovery",
	PurposeWearLeveling: "wear-leveling",
	PurposeTrim:         "trim",
}

// String returns a stable, human-readable name for the purpose.
func (p Purpose) String() string {
	if p < 0 || int(p) >= len(purposeNames) {
		return fmt.Sprintf("purpose(%d)", int(p))
	}
	return purposeNames[p]
}

// Purposes returns all defined purposes in declaration order.
func Purposes() []Purpose {
	out := make([]Purpose, 0, numPurposes)
	for p := Purpose(0); p < numPurposes; p++ {
		out = append(out, p)
	}
	return out
}

// Op identifies the kind of device operation being counted.
type Op int

const (
	// OpPageRead is a full page read.
	OpPageRead Op = iota
	// OpPageWrite is a full page program.
	OpPageWrite
	// OpSpareRead is a read of a page's spare area only.
	OpSpareRead
	// OpErase is a block erase.
	OpErase
	// OpTrim is a host-initiated page invalidation (trim/discard). It is an
	// accounting event, not an IO: NAND has no trim primitive, so the record
	// carries zero latency. The counters keep it so experiments can report
	// how much invalid space the host supplied for free, next to the IO the
	// garbage collector would otherwise have spent discovering it.
	OpTrim
	numOps
)

var opNames = [...]string{
	OpPageRead:  "page-read",
	OpPageWrite: "page-write",
	OpSpareRead: "spare-read",
	OpErase:     "erase",
	OpTrim:      "trim",
}

// String returns a stable, human-readable name for the operation.
func (o Op) String() string {
	if o < 0 || int(o) >= len(opNames) {
		return fmt.Sprintf("op(%d)", int(o))
	}
	return opNames[o]
}

// Counters accumulates per-(operation, purpose) IO counts and the simulated
// time spent on them. It is not safe for concurrent use; the device guards it
// with its own mutex.
type Counters struct {
	counts  [numOps][numPurposes]int64
	elapsed time.Duration
}

// Record adds a single operation with the given purpose and latency.
func (c *Counters) Record(op Op, p Purpose, cost time.Duration) {
	if p < 0 || p >= numPurposes {
		p = PurposeUnknown
	}
	c.counts[op][p]++
	c.elapsed += cost
}

// Count returns the number of operations of kind op issued for purpose p.
func (c *Counters) Count(op Op, p Purpose) int64 {
	if p < 0 || p >= numPurposes {
		return 0
	}
	return c.counts[op][p]
}

// TotalOp returns the number of operations of kind op across all purposes.
func (c *Counters) TotalOp(op Op) int64 {
	var total int64
	for p := Purpose(0); p < numPurposes; p++ {
		total += c.counts[op][p]
	}
	return total
}

// Elapsed returns the total simulated device time consumed.
func (c *Counters) Elapsed() time.Duration { return c.elapsed }

// Snapshot returns a copy of the counters.
func (c *Counters) Snapshot() Counters { return *c }

// Add accumulates other into c; the device uses it to aggregate per-die
// counters into a device-wide snapshot.
func (c *Counters) Add(other Counters) {
	for op := Op(0); op < numOps; op++ {
		for p := Purpose(0); p < numPurposes; p++ {
			c.counts[op][p] += other.counts[op][p]
		}
	}
	c.elapsed += other.elapsed
}

// Sub returns the difference c - prev, useful for measuring an interval.
func (c Counters) Sub(prev Counters) Counters {
	var out Counters
	for op := Op(0); op < numOps; op++ {
		for p := Purpose(0); p < numPurposes; p++ {
			out.counts[op][p] = c.counts[op][p] - prev.counts[op][p]
		}
	}
	out.elapsed = c.elapsed - prev.elapsed
	return out
}

// Reset zeroes all counters.
func (c *Counters) Reset() { *c = Counters{} }

// WriteAmplification computes the paper's write-amplification metric
//
//	WA = (i_writes + i_reads/delta) / logicalWrites
//
// where i_writes and i_reads are the internal page writes and page reads
// excluding the logical writes themselves... The paper folds the application's
// own page write into the count (WA >= 1 for any real workload), so this
// helper takes the raw internal totals and the caller decides what to include
// by passing counters restricted to the purposes of interest.
func (c Counters) WriteAmplification(logicalWrites int64, delta float64) float64 {
	if logicalWrites <= 0 {
		return 0
	}
	writes := float64(c.TotalOp(OpPageWrite))
	reads := float64(c.TotalOp(OpPageRead))
	if delta <= 0 {
		delta = 1
	}
	return (writes + reads/delta) / float64(logicalWrites)
}

// PurposeWriteAmplification computes the contribution of a single purpose to
// write-amplification: (writes(p) + reads(p)/delta) / logicalWrites.
func (c Counters) PurposeWriteAmplification(p Purpose, logicalWrites int64, delta float64) float64 {
	if logicalWrites <= 0 {
		return 0
	}
	if delta <= 0 {
		delta = 1
	}
	writes := float64(c.Count(OpPageWrite, p))
	reads := float64(c.Count(OpPageRead, p))
	return (writes + reads/delta) / float64(logicalWrites)
}

// String renders a compact multi-line table of non-zero counters.
func (c Counters) String() string {
	var b strings.Builder
	type row struct {
		op   Op
		p    Purpose
		n    int64
		text string
	}
	var rows []row
	for op := Op(0); op < numOps; op++ {
		for p := Purpose(0); p < numPurposes; p++ {
			if n := c.counts[op][p]; n != 0 {
				rows = append(rows, row{op, p, n, fmt.Sprintf("%s/%s=%d", op, p, n)})
			}
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].op != rows[j].op {
			return rows[i].op < rows[j].op
		}
		return rows[i].p < rows[j].p
	})
	for i, r := range rows {
		if i > 0 {
			b.WriteString(" ")
		}
		b.WriteString(r.text)
	}
	if b.Len() == 0 {
		return "no-io"
	}
	return b.String()
}
