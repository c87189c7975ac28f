(** Macro-benchmark (the paper's closing argument on open overhead).

    §6.4: "Based on the estimates of name lookup overhead on the
    macro-benchmarks in [16] (the Sprite measurements), we believe that the
    open overhead when two layers are in different domains will not be
    significant for real applications."

    This workload mimics the Sprite/Andrew-style mix those measurements
    describe: many small files, opens amortised over several I/O and
    attribute operations, reads dominating writes.  Running it across the
    three Table 2 configurations tests the claim: the two-domain stack's
    per-open penalty should wash out in the end-to-end figure. *)

type result = {
  config : Workload.config;
  total_ns : int;  (** simulated time for the whole workload *)
  opens : int;
  reads : int;
  writes : int;
  stats : int;
}

val run : unit -> result list

val print : Format.formatter -> result list -> unit
