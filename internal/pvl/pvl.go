package pvl

import (
	"fmt"

	"geckoftl/internal/bitmap"
	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

// logEntry is one record of the page validity log: "page Offset of block
// Block became invalid at sequence Seq". Prev points to the log slot of the
// previous entry for the same block, or -1 when this entry starts the chain.
type logEntry struct {
	block  flash.BlockID
	offset int
	seq    uint64
	prev   int64
}

// Config describes a page validity log.
type Config struct {
	// Blocks is K, the number of flash blocks covered.
	Blocks int
	// PagesPerBlock is B.
	PagesPerBlock int
	// PageSize is P; it determines how many log entries fit into one log
	// page.
	PageSize int
	// MaxEntries bounds the log size. Appendix E recommends twice the
	// number of over-provisioned pages (2*D). Zero selects that default
	// using an over-provisioning ratio of 0.7.
	MaxEntries int
}

// EntryBytes is the serialized size of a log entry: a 4-byte block ID, a
// 2-byte page offset, an 8-byte timestamp and an 8-byte previous-pointer.
const EntryBytes = 22

// EntriesPerPage returns how many log entries fit into one flash page.
func (c Config) EntriesPerPage() int { return c.PageSize / EntryBytes }

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case c.Blocks <= 0:
		return fmt.Errorf("pvl: blocks %d must be positive", c.Blocks)
	case c.PagesPerBlock <= 0:
		return fmt.Errorf("pvl: pages per block %d must be positive", c.PagesPerBlock)
	case c.PageSize <= 0:
		return fmt.Errorf("pvl: page size %d must be positive", c.PageSize)
	case c.EntriesPerPage() < 1:
		return fmt.Errorf("pvl: page size %d too small for a log entry", c.PageSize)
	case c.MaxEntries < 0:
		return fmt.Errorf("pvl: max entries %d must be >= 0", c.MaxEntries)
	}
	return nil
}

// defaultMaxEntries returns 2*D where D is the number of over-provisioned
// pages at the paper's default over-provisioning ratio of 0.7.
func (c Config) defaultMaxEntries() int {
	physical := c.Blocks * c.PagesPerBlock
	d := physical - int(0.7*float64(physical))
	return 2 * d
}

// Stats counts the log's logical operations.
type Stats struct {
	Updates    int64
	Erases     int64
	Queries    int64
	Flushes    int64
	Cleanings  int64
	Reinserted int64
	Discarded  int64
}

// Log is the page validity log with RAM-resident chain heads.
type Log struct {
	cfg   Config
	store metastore.Storage
	max   int

	// buffer accumulates log entries before they are flushed as a log page.
	buffer []logEntry

	// slots is the flash-resident log content indexed by a monotonically
	// increasing slot number (entry position in the log). Slots are grouped
	// into log pages of EntriesPerPage entries.
	slots     map[int64]logEntry
	firstSlot int64 // oldest live slot
	nextSlot  int64 // next slot to be assigned

	// pageOf maps a log page index (slot / entriesPerPage) to the flash page
	// storing it.
	pageOf map[int64]flash.PPN

	// head is the RAM-resident head of each block's chain: the slot of the
	// newest log entry for the block, or -1.
	head []int64
	// eraseSeq records, per block, the logical sequence of the block's last
	// erase; log entries older than it are obsolete (Appendix E keeps these
	// timestamps in integrated RAM).
	eraseSeq []uint64

	seq   uint64
	stats Stats
}

// New creates a page validity log over the given store.
func New(cfg Config, store metastore.Storage) (*Log, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if store == nil {
		return nil, fmt.Errorf("pvl: nil store")
	}
	max := cfg.MaxEntries
	if max == 0 {
		max = cfg.defaultMaxEntries()
	}
	l := &Log{
		cfg:      cfg,
		store:    store,
		max:      max,
		slots:    make(map[int64]logEntry),
		pageOf:   make(map[int64]flash.PPN),
		head:     make([]int64, cfg.Blocks),
		eraseSeq: make([]uint64, cfg.Blocks),
	}
	for i := range l.head {
		l.head[i] = -1
	}
	return l, nil
}

// Config returns the configuration.
func (l *Log) Config() Config { return l.cfg }

// Stats returns the operation counters.
func (l *Log) Stats() Stats { return l.stats }

// Entries returns the number of live flash-resident log entries.
func (l *Log) Entries() int { return len(l.slots) }

func (l *Log) checkBlock(block flash.BlockID) error {
	if block < 0 || int(block) >= l.cfg.Blocks {
		return fmt.Errorf("pvl: block %d out of range [0,%d)", block, l.cfg.Blocks)
	}
	return nil
}

// Update logs the invalidation of one page: it is appended to the RAM buffer
// and the block's chain head is updated. When the buffer holds a full page's
// worth of entries it is flushed to flash with a single page write.
func (l *Log) Update(addr flash.Addr) error {
	if err := l.checkBlock(addr.Block); err != nil {
		return err
	}
	if addr.Offset < 0 || addr.Offset >= l.cfg.PagesPerBlock {
		return fmt.Errorf("pvl: offset %d out of range [0,%d)", addr.Offset, l.cfg.PagesPerBlock)
	}
	l.stats.Updates++
	l.seq++
	l.appendEntry(logEntry{block: addr.Block, offset: addr.Offset, seq: l.seq, prev: l.head[addr.Block]})
	return l.maybeFlush()
}

// appendEntry assigns the next slot to the entry and updates the chain head.
func (l *Log) appendEntry(e logEntry) {
	slot := l.nextSlot
	l.nextSlot++
	l.buffer = append(l.buffer, e)
	l.slots[slot] = e
	l.head[e.block] = slot
}

// RecordErase notes that a block was erased. The log itself is not touched
// (that is the point of the timestamp-based cleaning); the block's chain head
// is reset and its erase timestamp recorded so that older entries are ignored
// and eventually discarded by cleaning.
func (l *Log) RecordErase(block flash.BlockID) error {
	if err := l.checkBlock(block); err != nil {
		return err
	}
	l.stats.Erases++
	l.seq++
	l.eraseSeq[block] = l.seq
	l.head[block] = -1
	return nil
}

// maybeFlush writes the buffered entries to flash when a full page's worth
// has accumulated, then cleans the log if it grew beyond its bound.
func (l *Log) maybeFlush() error {
	per := l.cfg.EntriesPerPage()
	if len(l.buffer) < per {
		return nil
	}
	return l.flush()
}

// flush writes the buffered entries out as one log page and then runs the
// cleaning pass if the log grew beyond its bound.
func (l *Log) flush() error {
	if err := l.writeBuffer(); err != nil {
		return err
	}
	return l.clean()
}

// writeBuffer persists the buffered entries as one log page without entering
// the cleaning pass (the cleaning pass itself uses it when reinsertions fill
// the buffer again).
func (l *Log) writeBuffer() error {
	if len(l.buffer) == 0 {
		return nil
	}
	l.stats.Flushes++
	pageIdx := (l.nextSlot - 1) / int64(l.cfg.EntriesPerPage())
	ppn, err := l.store.Append(flash.SpareArea{Logical: flash.InvalidLPN, Tag: uint64(pageIdx), BlockType: flash.BlockGecko}, nil)
	if err != nil {
		return err
	}
	l.pageOf[pageIdx] = ppn
	l.buffer = l.buffer[:0]
	return nil
}

// Flush forces buffered entries to flash.
func (l *Log) Flush() error { return l.flush() }

// clean implements the Appendix E cleaning mechanism: while the log exceeds
// its bound, the oldest log page is read, entries newer than their block's
// last erase are reinserted at the tail and the rest are discarded, and the
// old page is invalidated. A pass that cannot discard anything stops so that
// an undersized bound degrades to a larger log instead of an endless loop
// (Appendix E sizes the bound at twice the over-provisioned space precisely
// so that at least half of each reclaimed page is discardable on average).
func (l *Log) clean() error {
	per := int64(l.cfg.EntriesPerPage())
	for len(l.slots) > l.max {
		oldPage := l.firstSlot / per
		ppn, ok := l.pageOf[oldPage]
		if !ok {
			// The oldest entries are still in the RAM buffer; nothing to
			// clean from flash.
			return nil
		}
		l.stats.Cleanings++
		if _, err := l.store.Read(ppn); err != nil {
			return err
		}
		end := (oldPage + 1) * per
		var reinsert []logEntry
		discardedThisPass := int64(0)
		for slot := l.firstSlot; slot < end; slot++ {
			e, ok := l.slots[slot]
			if !ok {
				continue
			}
			delete(l.slots, slot)
			if e.seq > l.eraseSeq[e.block] {
				reinsert = append(reinsert, e)
			} else {
				l.stats.Discarded++
				discardedThisPass++
			}
		}
		l.firstSlot = end
		if err := l.store.Invalidate(ppn); err != nil {
			return err
		}
		delete(l.pageOf, oldPage)
		// Reinsert surviving entries at the tail. Each reinserted entry is
		// linked in front of the block's current chain head: the bitmap a GC
		// query assembles is an OR over the chain, so the chain order does
		// not need to follow invalidation order, it only needs to reach
		// every live entry.
		for _, e := range reinsert {
			l.stats.Reinserted++
			e.prev = l.head[e.block]
			l.appendEntry(e)
			if len(l.buffer) >= l.cfg.EntriesPerPage() {
				if err := l.writeBuffer(); err != nil {
					return err
				}
			}
		}
		if discardedThisPass == 0 {
			return nil
		}
	}
	return nil
}

// Query answers a GC query by walking the block's chain from its RAM-resident
// head, reading each distinct flash-resident log page the chain visits, and
// OR-ing the invalidations newer than the block's last erase.
func (l *Log) Query(block flash.BlockID) (*bitmap.Bitmap, error) {
	if err := l.checkBlock(block); err != nil {
		return nil, err
	}
	l.stats.Queries++
	result := bitmap.New(l.cfg.PagesPerBlock)
	per := int64(l.cfg.EntriesPerPage())
	visited := make(map[int64]bool)
	for slot := l.head[block]; slot >= 0; {
		e, ok := l.slots[slot]
		if !ok {
			break
		}
		pageIdx := slot / per
		if ppn, inFlash := l.pageOf[pageIdx]; inFlash && !visited[pageIdx] {
			if _, err := l.store.Read(ppn); err != nil {
				return nil, err
			}
			visited[pageIdx] = true
		}
		if e.seq > l.eraseSeq[block] {
			result.Set(e.offset)
		}
		slot = e.prev
	}
	return result, nil
}

// RAMBytes returns the integrated-RAM footprint: an 8-byte chain head and an
// 8-byte erase timestamp per block, plus the one-page flush buffer and the
// log-page directory.
func (l *Log) RAMBytes() int64 {
	heads := int64(l.cfg.Blocks) * 16
	directory := int64(len(l.pageOf)) * 8
	return heads + directory + int64(l.cfg.PageSize)
}

// MaxEntriesBound returns the configured log bound.
func (l *Log) MaxEntriesBound() int { return l.max }
