// Command perfbench is the SamzaSQL benchmark. One run measures one workload:
//
//	python3 perfbench/run.py --workload filter|join|window --seed N --seconds S --trace 0|1
//
// run.py builds this program and passes the arguments through. The seed
// drives the generated Orders stream: 100-byte Avro messages on 32
// partitions, encoded once per process into one pointer-free slab that
// every trial reuses. GOMAXPROCS is pinned to the CPU count and printed
// with the other settings on the first line. The last line of standard
// output is a JSON object with the fields correct, attempted, failed and
// metrics; --trace 0 reports the end-to-end metrics and --trace 1 the
// per-layer ones. Every metric is also printed by name with its unit.
//
// # Workloads
//
//   - filter: SELECT STREAM * FROM Orders WHERE units > 50 (Figure 5a), 100
//     products, about half the rows pass. Fetch, decode, the filter kernel,
//     encode and produce do all the work; the key-value store and the
//     changelog do none. Decode, kernel and produce gains show here, and a
//     change to the state layers should show no change here.
//   - join: the stream-to-relation join of Figure 5c against a 100,000-row
//     Products relation, Orders' productId uniform over it. Point reads over
//     about 3,100 keys per task dominate and nothing is written, so each
//     256-row block probes about 250 distinct keys; the paper's 100-row
//     relation hides this read path.
//   - window: the sliding SUM(units) over the last 5 minutes per product of
//     Figure 6, 100 products (about 3 hot keys per task). KV reads, writes
//     and range scans plus the write-through changelog dominate; per-key
//     batching and incremental state show here, beside join's reads.
//
// # Phases of a run
//
// Paced (open loop): the query runs on an empty topic that one goroutine
// feeds at the workload's fixed rate (200k, 100k and 50k msg/s, about a
// quarter of each drain rate), so polls return a handful of messages; one
// goroutine tails the output. Latency runs from an input's scheduled send
// time until the tailer sees its output row, matched by rowtime.
//
// Set-up: repeated job starts, at least nine and for 15% of --seconds, each
// timed from the Engine.Prepare call until every task has sent its first
// output row (setup_s is their median). The input is the shortest prefix of
// the orders that gives every task an output row (a few hundred orders), so
// a task's first output follows a handful of orders rather than a full
// block.
//
// Drain (closed loop): the whole backlog is pre-loaded, and hand-written
// native Samza jobs and the SamzaSQL query drain it in interleaved pairs,
// native first in every pair; the first pair is a discarded warm-up.
// runtime.GC() runs before every trial, and a trial's rate is timed between
// 10% and 90% of the drain, read from the container's messages-processed
// counter handle. For join that window also holds part of the relation
// bootstrap: the container's tasks bootstrap over most of the drain, some
// while others already drain. Windows that leave the bootstrap out, by
// loading the orders only once every task had bootstrapped or by opening
// the window only then, spread far more from trial to trial. A trial fails, with its reason printed, when it makes no
// progress for 3 s, when its container restarts (a new registry would
// reset the counter) or when retention drops unread input; all its
// messages then count as failed.
//
// Every SQL output row of the drain and paced phases is checked against an
// oracle that computes the expected rows from the generated orders and
// reads the output's Avro wire format itself (oracle.go). A missing, wrong
// or duplicated row is a failed operation. Native outputs are checked by
// row count.
//
// # End-to-end metrics (--trace 0)
//
//	sql_msgs_per_cpu_s     SamzaSQL drain: messages per second of process CPU, median over trials
//	native_msgs_per_cpu_s  the same for the hand-written native task on the same bytes
//	sql_native_ratio       median over the pairs of SQL / native messages per CPU-second
//	setup_s                median job start, Engine.Prepare until every task has sent output
//	job_heap_mb            live heap after the SQL drain minus live heap before submit
//
// The paper's figure is the wall-clock drain rate, and only a wall-clock
// figure drops when a change leaves cores idle (a lock, a sleep, less
// parallelism). On a shared virtual machine, though, the share of time the
// host takes the CPUs away moves from minute to minute, and wall-clock
// drain rates move with it by more than a gate can allow: across ten runs
// on a 2-vCPU virtual machine their spread (IQR/median) reached 0.27. The drain is CPU-bound on every
// core, so messages per CPU-second is the drain rate per core without the
// time the host took; it is the gated figure. The SQL/native ratio of
// wall-clock rates within a pair, whose two trials run a second apart,
// mostly cancels the host's share, but on join, whose trials spread most,
// its run-to-run spread reached 0.22 where the CPU-second ratio's stayed
// at 0.10. The wall-clock rates and their ratio are reported per layer
// (drain.*), and so is the paced phase's latency, whose median moves by a
// factor of two between runs with the host's load. setup_s is wall-clock
// time and moves with the host's share too; repeating set-ups within a run
// steadies its median against scheduling, not against that.
//
// # Per-layer metrics (--trace 1)
//
// A traced run plays the container on one goroutine (traced.go): one
// physical.Program per partition, compiled from the same SQL, over a store
// stack of kv constructors with counting and timing wrappers between the
// layers, fed 256-message blocks from Consumer.Poll, 16 blocks per task per
// turn, with commits every 1000 messages per task. The same loop with its
// timers off gives the tracing overhead. Each metric below names the
// end-to-end metric it should move, and on which workload:
//
//	drain.sql_msgs_per_s           wall-clock SQL drain rate        none (diagnostic)       all
//	drain.native_msgs_per_s        wall-clock native drain rate     none (diagnostic)       all
//	drain.sql_native_wall_ratio    pairs' ratio of wall-clock rates none (diagnostic)       all
//	kafka.poll_ns_per_msg          Consumer.Poll                    sql, native msgs/cpu-s  filter
//	kafka.msgs_per_poll            paced-phase polls                paced latency           all
//	kafka.produce_ns_per_msg       Broker.ProduceBatch via sender   sql_msgs_per_cpu_s      filter
//	kafka.msgs_per_produce         messages per produce call        sql_msgs_per_cpu_s      filter
//	avro.decode_ns_per_msg         replayed ScanOp.DecodeBlock      sql msgs/cpu-s, ratio   filter, join
//	operators.self_ns_per_msg      RouteBatch minus decode, store   sql msgs/cpu-s, ratio   filter, join
//	                               and produce (kernels + encode)
//	operators.rows_out_per_msg     output rows per input            none (sanity check)     all
//	operators.alloc_bytes_per_msg  heap allocated inside RouteBatch sql msgs/cpu-s, heap    all
//	kv.reads/writes/scans_per_msg  wrapper over the skiplist        sql_msgs_per_cpu_s      window, join (reads)
//	kv.read/write/scan_ns_per_msg  the same wrapper, self time      sql_msgs_per_cpu_s      window, join
//	kv.entries_per_scan            Range result length              sql_msgs_per_cpu_s      window
//	kv.hit_ratio                   point reads found / requested    sql_msgs_per_cpu_s      join
//	kv.live_keys                   Len at the end                   job_heap_mb             join, window
//	changelog.records_per_msg      changelog high-watermark growth  sql_msgs_per_cpu_s      window
//	changelog.ns_per_msg           ChangelogStore minus skiplist    sql_msgs_per_cpu_s      window
//	samza.commit_ns_per_msg        Flush + CheckpointManager.Write  sql_msgs_per_cpu_s      window
//	sql.prepare_ms                 Engine.Prepare                   setup_s                 all
//	sql.compile_ms_per_task        physical.CompileWithOptions      setup_s                 all
//	process.cpu_ns_per_msg         getrusage over the SQL drains    sql_msgs_per_cpu_s      all
//	process.alloc_bytes_per_msg    runtime/metrics, same windows    sql_msgs_per_cpu_s      all
//	process.gc_cpu_fraction        runtime/metrics GC CPU / CPU     sql_msgs_per_cpu_s      all
//	ledger.traced_ns_per_msg       traced loop wall time            sql_msgs_per_cpu_s      all
//	ledger.loop_ns_per_msg         the loop's own work              none (validity)         all
//	ledger.residual_ns_per_msg     process CPU minus traced: the    sql_msgs_per_cpu_s      all
//	                               container loop, scheduling, GC
//	ledger.cpu_share_pct           the traced loop's thread CPU     none (validity)         all
//	                               time over its wall time
//	ledger.trace_overhead_pct      timers on vs off                 none (validity)         all
//	floor.passthrough_ns_per_msg   poll, produce raw bytes, commit  none (reference)        all
//	paced.latency_p50_ms/_p99_ms   paced latency and its tail       none (diagnostic)       paced
//	paced.latency_samples          latency sample count             none (diagnostic)       paced
//	paced.gen_late_p99_ms          how late the generator ran       none (validity)         paced
//	paced.backlog_end_msgs         input lag when sending stopped   none (validity)         paced
//
// The self times (poll, decode, operators, kv, changelog, produce, commit
// and the loop's own work) add up to ledger.traced_ns_per_msg, and with the
// residual to process.cpu_ns_per_msg. Both hold by definition, since the
// operators', the changelog's and the loop's own times and the residual
// are each found by subtraction, so neither is a check. What a run does
// check, failing when one misses: every self time found by subtraction is
// at least zero (no inner timer measured more than the timer around it);
// poll, RouteBatch, decode, produce and commit were all measured; and the
// traced loop's thread CPU time, read with getrusage(RUSAGE_THREAD) on the
// thread the loop is locked to, is between 25% and 101% of the loop's wall
// time. Below 25% the loop mostly waited, and its wall-clock self times
// would not be CPU costs; the 1% above allows for the microsecond
// resolution of the CPU clock. ledger.cpu_share_pct reports that share. On
// a shared virtual machine it stays below 100%, because the host's steal
// and interrupt time count in the wall clock and not in the thread's CPU
// time: 96–98% over the traced runs on 2 vCPUs, and 46–97% over loops of a
// tenth of a second.
// The residual can be negative for the same reason, and because the traced
// loop runs the 32 tasks' working sets through one core's caches. The GC
// fraction is the runtime's estimate, which it updates as GC cycles end.
package main
