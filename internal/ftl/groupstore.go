package ftl

import (
	"geckoftl/internal/flash"
	"geckoftl/internal/metastore"
)

// groupStore adapts the block manager's metadata block group to the
// metastore.Storage interface that Logarithmic Gecko, the flash-resident PVB
// and the page validity log write through. Appends allocate pages from the
// metadata group (growing it from the free pool on demand), and invalidations
// feed the Blocks Validity Counter so that fully-invalid metadata blocks can
// be erased without migrations (Section 4.2).
type groupStore struct {
	bm *blockManager
}

var _ metastore.Storage = (*groupStore)(nil)
var _ metastore.BlockLister = (*groupStore)(nil)

// Append programs the next free metadata page.
func (s *groupStore) Append(spare flash.SpareArea, payload any) (flash.PPN, error) {
	return s.bm.AllocatePage(GroupMeta, spare, payload, flash.PurposePageValidity)
}

// Read accounts a full page read of a metadata page and returns its payload.
func (s *groupStore) Read(ppn flash.PPN) (any, error) {
	return s.bm.dev.ReadPage(ppn, flash.PurposePageValidity)
}

// ReadSpare accounts a spare-area read of a metadata page.
func (s *groupStore) ReadSpare(ppn flash.PPN) (flash.SpareArea, bool, error) {
	return s.bm.dev.ReadSpare(ppn, flash.PurposePageValidity)
}

// Invalidate marks a metadata page obsolete in the BVC and drops its payload.
func (s *groupStore) Invalidate(ppn flash.PPN) error {
	if err := s.bm.InvalidatePage(ppn); err != nil {
		return err
	}
	return s.bm.dev.DiscardPayload(ppn)
}

// Blocks returns the blocks currently allocated to the metadata group, which
// is what Logarithmic Gecko's directory recovery scans.
func (s *groupStore) Blocks() []flash.BlockID {
	return s.bm.BlocksInGroup(GroupMeta)
}
