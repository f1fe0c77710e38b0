// Package gecko implements Logarithmic Gecko, the write-optimized
// flash-resident index of page-validity metadata that is the central
// contribution of the GeckoFTL paper (Section 3).
//
// Logarithmic Gecko replaces the Page Validity Bitmap (PVB). It supports two
// operations: updates, issued whenever a flash page becomes invalid, and
// garbage-collection (GC) queries, issued by the garbage-collector to learn
// which pages of a victim block are invalid. Updates are buffered in
// integrated RAM and flushed to flash as sorted runs that are merged in the
// background, LSM-tree style, so that a GC query costs one flash read per
// level while an update costs only a small fraction of a flash write.
//
// # Mapping to the paper
//
//   - Gecko.Update and Gecko.RecordErase are the paper's update paths
//     (Algorithms 1 and 2): buffered in RAM, flushed as sorted runs.
//   - Gecko.Query serves GC queries by merging the buffer and one run per
//     level (Section 3.2).
//   - Entry partitioning (Config.PartitionFactor, Section 3.3) splits each
//     block's validity bitmap into S sub-entries so that write-amplification
//     becomes independent of the block size B (Figure 10).
//   - The merge machinery implements the two-way leveling merge of
//     Section 3.2 and the multi-way variant of Appendix A.
//   - Gecko.RecoverDirectories rebuilds the RAM-resident run directories
//     from a spare-area scan after power failure (Appendix C.1). The runs'
//     entries are flash page payloads and need no rebuilding.
//
// Within an FTL, one Gecko instance serves as the validity store of a single
// flash plane or engine shard; its state is guarded by the owning shard's
// lock.
package gecko
