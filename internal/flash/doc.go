// Package flash implements a discrete-event NAND flash device simulator.
//
// The simulator models the architectural parameters and idiosyncrasies that
// the GeckoFTL paper (Dayan, Bonnet, Idreos; SIGMOD 2016) relies on:
//
//   - the device consists of K blocks of B pages of P bytes each;
//   - the minimum read/write granularity is one page;
//   - a page cannot be rewritten before its block is erased;
//   - writes within a block must be sequential;
//   - every page has a spare area that can be written once per page
//     life-cycle and read independently (and much more cheaply) than the
//     page itself;
//   - page reads, page writes, spare-area reads and block erases have
//     asymmetric costs.
//
// The device does not store user data bytes (the FTL algorithms under study
// never inspect them). It stores per-page state, spare-area metadata and an
// optional opaque payload per page, which flash-resident metadata structures
// use for the content of their pages: WritePage stores it, ReadPage returns
// it, and an erase (or DiscardPayload) drops it. The device accounts every
// internal IO by purpose so that the simulation harness can compute the
// write-amplification breakdowns reported in the paper's evaluation section.
//
// # Channel/die topology
//
// Real flash devices at the capacities GeckoFTL targets (hundreds of
// gigabytes to terabytes) are not a single serialized plane: they gang
// multiple channels, each with several dies, and independent dies execute
// page and erase operations in parallel. Config carries this topology as
// Channels x DiesPerChannel; blocks are assigned to dies in contiguous
// ranges (Config.DieOfBlock). The Device latches each die independently —
// operations on different dies proceed concurrently under separate locks,
// while operations on the same die serialize, exactly as a real die's
// ready/busy line would force them to. Per-die IO counters make two clocks
// available: SimulatedTime, the sum of all die-busy time (the single-plane
// serial cost used by the paper's write-amplification experiments), and
// ParallelSimulatedTime, the busiest die's time, which is the wall-clock a
// parallelism-aware host controller observes when it keeps every die fed.
//
// A Partition is a view of a contiguous block range of a Device, exposed
// through the same Plane interface the FTLs program against. The ftl.Engine
// gives each of its shards one partition aligned to a channel's die range, so
// that shards never contend on a die.
package flash
