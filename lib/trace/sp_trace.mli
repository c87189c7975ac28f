(** Structured span tracing and per-layer profiling.

    Every door invocation in the simulation (see {!Sp_obj.Door} and the call
    helpers in [Vm_types] / [File] / [Stackable]) opens a {e span}: a record
    of one operation served by one layer instance, carrying the operation
    name, source and target domains, simulated start/end times from
    {!Sp_sim.Simclock}, and the {!Sp_sim.Metrics} delta accrued inside it.
    Spans nest — a [read] on a four-layer stack yields a tree attributing
    exact simulated-nanosecond self-time to each layer.

    Tracing is {e off by default} and scoped: it only records inside
    {!with_tracing}.  The disabled path is a single reference read with no
    allocation, so the [fast] cost model, [dune runtest], and the benchmark
    tables are unaffected.  Completed spans land in a fixed-capacity ring
    buffer; when a workload overflows it, the oldest spans are dropped and
    the drop count is reported in the resulting {!trace}.

    {2 Concurrency}

    Under an active [Sp_sched] run each task keeps its own span stack, so
    interleaved tasks don't corrupt each other's nesting.  Self-time is
    measured on the per-context {e busy} clocks ([Sp_sim.Sched_hook]), not
    on the wall clock: a frame that stays open across its task's
    suspension is not charged for the time other tasks spent running.
    With no scheduler active, busy and wall deltas coincide and the
    original invariant (self-times sum to [tr_total_ns]) holds; under
    concurrency they sum to [tr_busy_ns] instead.  Metrics deltas are
    corrected the same way (counters other contexts bumped while a task
    was suspended are subtracted from its open spans). *)

(** A completed span.  Metric deltas come in two flavours: [sp_metrics] is
    inclusive (everything this context did while the span was open) and
    [sp_self_metrics] excludes child spans, so self columns sum to global
    totals across a trace. *)
type span = {
  sp_id : int;  (** unique within a trace, 1-based, allocation order *)
  sp_parent : int;  (** parent span id; 0 for the root *)
  sp_depth : int;  (** root span = 0, first door crossing = 1, ... *)
  sp_task : int;  (** scheduler task id, or [-1] for the main context *)
  sp_op : string;  (** operation name, e.g. ["file.read"] *)
  sp_src : string;  (** calling domain name *)
  sp_dst : string;  (** serving domain (layer instance) name *)
  sp_node : string;  (** node hosting the serving domain *)
  sp_start : int;  (** simulated ns at entry *)
  sp_stop : int;  (** simulated ns at exit *)
  sp_self_ns : int;  (** own busy time minus time inside child spans *)
  sp_queue_ns : int;
      (** own time spent waiting in a resource queue, recorded beside
          [sp_self_ns], not inside it: under the scheduler a queue wait
          is idle, not busy, so it can exceed the self time *)
  sp_metrics : Sp_sim.Metrics.snapshot;  (** inclusive metrics delta *)
  sp_self_metrics : Sp_sim.Metrics.snapshot;  (** delta minus children *)
  sp_copy_bytes : int;  (** marshalling bytes charged inside (self) *)
  sp_cpu_units : int;  (** CPU work units charged inside (self) *)
}

(** A point event: something that happened at one simulated instant with
    no duration — a fault injection, an RPC retry, a mirror failover.
    Exported as Chrome trace ["i"] (instant) events. *)
type instant = {
  in_name : string;  (** e.g. ["fault:io_error"], ["net.retry"] *)
  in_ts : int;  (** simulated ns *)
  in_args : (string * string) list;
}

(** The result of a traced run. *)
type trace = {
  tr_spans : span list;  (** completion order (children before parents) *)
  tr_instants : instant list;  (** chronological *)
  tr_dropped : int;  (** spans lost to ring-buffer overflow *)
  tr_total_ns : int;  (** simulated time covered by the root span *)
  tr_busy_ns : int;
      (** busy time across all contexts; equals [tr_total_ns] when no
          scheduler ran, exceeds it when concurrent tasks overlapped *)
  tr_root : int;  (** id of the synthetic root span *)
}

(** Whether a {!with_tracing} region is active.  Instrumentation guards on
    this before building span arguments so the disabled path allocates
    nothing. *)
val enabled : unit -> bool

(** [span ~op ~src ~dst ~node f] runs [f ()] inside a fresh span nested
    under the innermost open span of the calling context.  When tracing is
    disabled this is exactly [f ()].  The span is closed (and recorded)
    even if [f] raises. *)
val span :
  ?op:string -> ?src:string -> ?dst:string -> ?node:string -> (unit -> 'a) -> 'a

(** Record a point event at the current simulated time (no-op when
    disabled).  Instants are kept outside the span ring buffer — they are
    sparse (faults, retries) and must survive span overflow. *)
val instant : name:string -> ?args:(string * string) list -> unit -> unit

(** Attribute [n] bytes of marshalling copy to the innermost open span
    (no-op when disabled). *)
val note_copy : int -> unit

(** Attribute [n] CPU work units to the innermost open span (no-op when
    disabled). *)
val note_cpu : int -> unit

(** Attribute [n] ns of queue wait to the innermost open span of the
    calling context (no-op when disabled).  [Sp_sched.note_queue] calls
    this alongside bumping [Metrics.queue_ns]. *)
val note_queue : int -> unit

(** {1 Scheduler hooks}

    Called by [Sp_sched] around task suspension.  They bracket the
    global-metrics delta produced by {e other} contexts while this one
    slept, so it can be subtracted from the task's open spans.  No-ops
    when tracing is disabled. *)

val on_task_suspend : unit -> unit
val on_task_resume : unit -> unit

(** [with_tracing f] records spans during [f ()], wrapped in a synthetic
    root span so that the self-times of all recorded spans sum exactly to
    the total busy time of the run.  Returns [f]'s result and the
    trace.  Raises [Invalid_argument] if tracing is already active; if [f]
    raises, tracing is torn down and the exception propagates. *)
val with_tracing :
  ?capacity:int -> ?root:string -> (unit -> 'a) -> 'a * trace

(** {1 Aggregation} *)

(** Per-layer-instance totals over a trace.  [agg_total_ns] is inclusive
    (time with the layer anywhere on the stack below the caller), so nested
    same-layer calls count more than once; the [self] columns partition the
    trace exactly. *)
type layer_stats = {
  agg_layer : string;  (** serving domain (layer instance) name *)
  agg_node : string;
  agg_count : int;  (** spans served by this instance *)
  agg_total_ns : int;
  agg_self_ns : int;
  agg_queue_ns : int;  (** queue waits recorded in this instance's spans *)
  agg_crossings : int;  (** cross-domain calls, self *)
  agg_local_calls : int;  (** local (same-domain) calls, self *)
  agg_disk_reads : int;  (** disk block reads, self *)
  agg_disk_writes : int;  (** disk block writes, self *)
  agg_copy_bytes : int;
  agg_cpu_units : int;
}

(** Group a trace's spans by serving layer instance, sorted by descending
    self-time. *)
val aggregate : trace -> layer_stats list

(** Render the per-layer profile table, a totals row, and (when non-zero)
    a dropped-span warning. *)
val pp_profile : Format.formatter -> trace -> unit

(** {1 Chrome trace-event export} *)

(** Serialise the trace in Chrome trace-event JSON (one complete ["X"]
    event per span, timestamps in microseconds of simulated time; each
    scheduler task renders as its own thread); the result opens in
    [chrome://tracing] or Perfetto. *)
val chrome_json : trace -> string

(** Write {!chrome_json} to a file. *)
val write_chrome_json : string -> trace -> unit
