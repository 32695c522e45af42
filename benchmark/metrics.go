package main

// The benchmark's vocabulary. BENCHMARK.json at the repository root names
// the same workloads and metrics (a test keeps the two in step); the text
// here is what the README's tables are written from.

type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Why    string
}

// bounds gives each end-to-end metric the share of the parent's median by
// which it may get worse before a change is rejected, the same on every
// workload. They are the output of the defining issue's procedure, max(5 %,
// 2 x the widest spread of the metric over the workloads), capped at the
// largest bound the benchmark contract accepts; -calibrate prints the
// spreads. On the reference box, a shared 2-vCPU virtual machine whose speed
// drifts within minutes, the wall-clock metrics spread by 5-19 % between runs
// of the same binary, so the cap is what they get; alloc_mb_per_op repeats
// to within 4 %. peak_rss_mb could not hold any bound the contract accepts
// (310 to 470 MiB over ten runs of batch_highk: the collector's pacing
// decides how far the heap overshoots) and is a per-layer metric,
// process.peak_rss_mb, as the issue rules for such a metric.
var bounds = map[string]float64{
	"setup_s":         0.25,
	"rows_per_s":      0.25,
	"op_p50_ms":       0.25,
	"op_p90_ms":       0.25,
	"alloc_mb_per_op": 0.10,
}

const (
	// maxBound is the largest bound the benchmark contract accepts.
	maxBound = 0.25
	// runSeconds is the length of the timed region the driver asks for.
	runSeconds = 10
)

type workloadDef struct {
	Name string
	Why  string
	// New sets the workload up from the run's seed and scale.
	New func(e *env) (instance, error)
}

var workloadDefs = []workloadDef{
	{"batch_lowk", "Aggregate, 2^22 rows over 2^10 uniform keys: ADAPTIVE stays in HASHING, so hashfn, table insert and the fold kernels do the work; partition, intern and external do none", newBatchLowK},
	{"batch_highk", "Aggregate, 2^19 rows over 2^18 uniform keys (alpha near 1, far beyond the cache budget): ADAPTIVE switches to PARTITIONING; scatter, leaf merge and emit of the groups dominate", newBatchHighK},
	{"batch_skew", "Aggregate with EnablePlan and RoutineAuto over heavy-hitter, zipf and uniform segments: only here are the sketch pre-pass, hot-key bypass and routine selector on the blocking path", newBatchSkew},
	{"batch_strings", "AggregateGeneral over a string and a nullable uint64 key column, private dictionary per op: the interner's write path and key decode are paid every op; uint64 workloads bypass them", newBatchStrings},
	{"external_spill", "AggregateExternal's engine under a 3 MiB budget, every op spills: codec, eviction, merge, memgov. Timed ops keep spill files in memory (disk time holds no bound); external.disk_op_p50_ms has the disk", newExternalSpill},
	{"stream_ingest", "BeginStream sessions on the real disk with fsync: 4096-row zipf blocks, whole-stream Snapshot reads, Finish, and a Close/ResumeStream check: fold and checkpoint seal beside a reader", newStreamIngest},
	{"serve_mixed", "serve.NewServer on loopback, closed loop of P clients, 75% no_cache and 25% repeated queries over three datasets: request decode, admission, JSONL marshal and key decode are hot", newServeMixed},
}

// endToEnd lists the metrics a user of the library or service would see.
// Every one is reported on every workload, from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", "median wall time of nine set-ups: data generation, oracle build, dataset registration and interning, temp-dir creation, server start"},
	{"rows_per_s", "rows/s", "higher", "input rows consumed by successful ops divided by the wall time of the timed region"},
	{"op_p50_ms", "ms", "lower", "median latency of one op: one Aggregate* call, one Push, one HTTP request including reading and validating the body"},
	{"op_p90_ms", "ms", "lower", "p90 of the same; at least 100 ops are timed so at least 10 samples lie beyond it"},
	{"alloc_mb_per_op", "MiB/op", "lower", "runtime.MemStats.TotalAlloc delta over the timed region divided by ops: the GC burden the library puts on its host"},
}

// perLayer lists the metrics of single layers, from the traced run. The
// prefix is the module under internal/ (core.* and memgov.* come from the
// public Stats). A workload reports 0 for a layer it does not exercise.
var perLayer = []metricDef{
	{"hashfn.hashbatch_ns_per_row", "ns/row", "lower", "hashfn.HashBatch over 4096-key blocks of the workload's keys"},
	{"hashfn.bytes_ns_per_byte", "ns/B", "lower", "hashfn.Murmur2Bytes over the workload's string keys"},
	{"hashfn.self_share", "share", "lower", "modelled share of the op's CPU time spent hashing"},
	{"hashtable.insert_raw_ns_per_row", "ns/row", "lower", "Table.InsertRawBatch (probe and fold of raw rows), splits excluded"},
	{"hashtable.allocs_per_batch", "count", "lower", "heap allocations per InsertRawBatch call including the splits it forces"},
	{"hashtable.insert_state_ns_per_row", "ns/row", "lower", "Table.InsertStateBatch merging partial-aggregate runs into a leaf table"},
	{"hashtable.split_ns_per_group", "ns/group", "lower", "Table.SplitRuns and Table.EmitColumns per group moved out of a table"},
	{"hashtable.self_share", "share", "lower", "modelled share of the op's CPU time spent in table insert, split and emit"},
	{"agg.fold_ns_per_row", "ns/row", "lower", "the layout's column fold kernels over a gathered 4096-row batch, all state words"},
	{"agg.merge_ns_per_row", "ns/row", "lower", "the layout's column merge kernels over a gathered 4096-row batch, all state words"},
	{"partition.scatter_ns_per_row", "ns/row", "lower", "Scatterer.Scatter, Flush and Seal of rows carrying aggregate states"},
	{"partition.scatter_mb_per_s", "MiB/s", "higher", "bytes of key and state columns moved by the same scatter per second"},
	{"partition.self_share", "share", "lower", "modelled share of the op's CPU time spent in radix scatter"},
	{"core.element_time_ns", "ns", "lower", "the paper's Element Time T*P/N/C of one op at Workers 1"},
	{"core.hashed_rows_share", "share", "higher", "Stats.HashedRows over hashed plus partitioned rows, at Workers 1"},
	{"core.passes", "count", "lower", "Stats.Passes at Workers 1"},
	{"core.switches", "count", "lower", "Stats.Switches at Workers 1"},
	{"core.tables_emitted", "count", "lower", "Stats.TablesEmitted at Workers 1"},
	{"core.mean_alpha", "rows/group", "higher", "Stats.MeanAlpha at Workers 1"},
	{"core.allocs_per_op", "count", "lower", "runtime.MemStats.Mallocs delta per op at P workers"},
	{"core.alloc_bytes_per_row", "B/row", "lower", "runtime.MemStats.TotalAlloc delta per input row at P workers"},
	{"core.trace_overhead_pct", "%", "lower", "op p50 with the public Tracer and CollectStats set against p50 without, alternated"},
	{"core.replay_coverage", "share", "higher", "staged-replay layer costs weighted by the op's row counts, over op p50 times P"},
	{"sched.parallel_efficiency", "share", "higher", "T1 / (P * TP): op p50 at Workers 1 over P times op p50 at Workers P"},
	{"sketch.plan_ms", "ms", "lower", "Stats.PlanNanos: wall time of the sketch pre-pass"},
	{"sketch.hot_rows_bypassed_share", "share", "higher", "Stats.HotRowsBypassed over input rows"},
	{"sketch.k_estimate_rel_err", "share", "lower", "relative error of Stats.PlanEstimatedK against the oracle's group count"},
	{"global.insert_batch_ns_per_row", "ns/row", "lower", "global.Table.InsertBatch from P goroutines, CPU time per row"},
	{"global.escaped_share", "share", "lower", "rows the shared table bounced back to private tables"},
	{"intern.encode_cold_ns_per_row", "ns/row", "lower", "Encoder.EncodeColumns into an empty dictionary"},
	{"intern.encode_warm_ns_per_row", "ns/row", "lower", "EncodeColumns when every key is already interned"},
	{"intern.allocs_per_warm_batch", "count", "lower", "heap allocations per warm 4096-row EncodeColumns call"},
	{"intern.decode_ns_per_group", "ns/group", "lower", "DecodeColumns of the result's group ids back into key columns"},
	{"intern.dict_bytes_per_key", "B/key", "lower", "Stats.InternBytes over Stats.InternedKeys"},
	{"intern.self_share", "share", "lower", "share of the op's CPU time spent encoding and decoding keys"},
	{"external.codec_encode_mb_per_s", "MiB/s", "higher", "BlockWriter AppendState and Finish of partial-aggregate rows"},
	{"external.codec_decode_mb_per_s", "MiB/s", "higher", "ReadBlockFile of the same file, checksums verified"},
	{"external.spill_bytes_per_input_byte", "B/B", "lower", "ExternalStats.SpilledBytes over input bytes"},
	{"external.merge_levels", "count", "lower", "ExternalStats.MergeLevels"},
	{"external.evicted_partitions", "count", "lower", "ExternalStats.EvictedPartitions"},
	{"external.chunk_retries", "count", "lower", "ExternalStats.ChunkRetries"},
	{"external.spill_files_per_op", "count", "lower", "spill files one op creates, counted by the in-memory file system of the timed ops"},
	{"external.disk_op_p50_ms", "ms", "lower", "p50 of the public AggregateExternal with spill files on the real disk; the timed ops keep them in memory"},
	{"process.peak_rss_mb", "MiB", "lower", "VmHWM of the traced run's process at its end: set-up, public ops and staged replay"},
	{"memgov.peak_reserved_mb", "MiB", "lower", "the governor's high-water mark, from Stats.PeakReservedBytes"},
	{"memgov.ledger_coverage", "share", "higher", "peak reserved bytes over the RSS growth of the same op"},
	{"stream.push_ns_per_row", "ns/row", "lower", "time inside Push per pushed row"},
	{"stream.push_p99_ms", "ms", "lower", "p99 latency of one Push: pushes that waited on the queue or a seal"},
	{"stream.seal_ms_p50", "ms", "lower", "median of an explicit Checkpoint of one epoch's worth of rows"},
	{"stream.checkpoint_bytes_per_input_byte", "B/B", "lower", "StreamStats.CheckpointBytes over pushed bytes"},
	{"stream.backpressure_events", "count", "lower", "StreamStats.Backpressure"},
	{"stream.snapshot_ms_p50", "ms", "lower", "median Snapshot(ctx, 0) during ingest"},
	{"stream.finish_ms", "ms", "lower", "Finish: final seal plus the merge over every epoch"},
	{"stream.resume_ms", "ms", "lower", "ResumeStream of a closed, unfinished session"},
	{"serve.decode_request_us", "us", "lower", "serve.DecodeRequest of one request body"},
	{"serve.admit_us", "us", "lower", "Controller.Admit plus Grant.Release, uncontended"},
	{"serve.handler_overhead_ms", "ms", "lower", "no_cache request p50 minus p50 of the direct Aggregate call on the same datasets"},
	{"serve.jsonl_bytes_per_group", "B/group", "lower", "response body bytes per result group"},
	{"serve.network_share", "share", "lower", "share of loopback request p50 not spent in Handler().ServeHTTP against a ResponseRecorder"},
	{"serve.cache_hit_p50_us", "us", "lower", "p50 of requests answered from the result cache"},
	{"serve.miss_p50_ms", "ms", "lower", "p50 of requests that executed"},
	{"serve.p99_ms", "ms", "lower", "p99 over all closed-loop requests"},
	{"serve.shed_share", "share", "lower", "requests not answered ok over requests sent"},
	{"serve.open_p50_ms", "ms", "lower", "open-loop p50 at the frozen rate, timed from each request's due time"},
	{"serve.open_p90_ms", "ms", "lower", "open-loop p90 at the frozen rate"},
	{"serve.open_late_ms_p90", "ms", "lower", "p90 of how late the open-loop generator sent a request"},
}

func workloadNames() []string {
	names := make([]string, len(workloadDefs))
	for i, w := range workloadDefs {
		names[i] = w.Name
	}
	return names
}

// findWorkload returns the workload of that name.
func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloadDefs {
		if w.Name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}
