// Package sim is the experiment harness that reproduces the evaluation
// section of the GeckoFTL paper and the engine-scaling experiments that go
// beyond it. It runs FTLs (or Logarithmic Gecko and the PVB baselines in
// isolation) against workload generators on the simulated device, collects
// per-purpose IO breakdowns, and exposes one driver per table and figure of
// the paper. The cmd/geckobench tool and the module-level benchmarks print
// the drivers' results.
//
// The sweep drivers extend the paper to the multi-channel engine:
//
//   - ChannelSweep measures how the sharded engine's write throughput scales
//     with the channel count.
//   - RecoverySweep crashes the engine and measures how parallel per-shard
//     recovery scales with channels, checkpoint interval and capacity.
//   - LatencySweep records per-write service-time distributions (p50 through
//     p99.9 and max) and compares inline whole-victim garbage collection
//     against the incremental bounded scheduler across victim policies and
//     workloads.
//   - TrimSweep interleaves host trims at increasing fractions and shows
//     write-amplification falling monotonically.
//   - WearSweep compares the single user write frontier against hot/cold
//     separation and wear-aware allocation, reporting write-amplification
//     and erase-count spread per victim policy and workload.
//   - RestartSweep compares a warm restart from the shutdown checkpoint
//     against cold GeckoRec recovery across device sizes.
//   - QueueSweep drives the async submission queues closed- and open-loop
//     against the synchronous baseline and the saturation-knee model.
//
// Every engine sweep is a grid of cells. A cell (cell.go) is a device with
// its channels and blocks set, the shards' FTL options, a workload and a
// batch size; one harness builds it, warms it with a shared batched pump
// (two full overwrites of the logical space) and measures a window, so each
// sweep adds only the work it alone does (die attribution, crash and
// recovery, queue drive) and the mapping to its rows.
//
// All sweep results are deterministic: time is the device's simulated
// latency model, never the host clock.
package sim
