(** The one ordered list of simulated tables: the paper's Table 2,
    Table 3 and Figures 2/5/6, then the extension tables.
    [bench/main.exe] prints it and builds its [--json] and [--check-perf]
    rows from it; [springfs tables] selects from it by name. *)

(** Reset the simulated clock and the global counters.  Each table runs
    after one. *)
val reset_world : unit -> unit

(** Table names in print order: table2, table3, figures, ablations, bulk,
    depth, macro, faults, failover, scrub, scale, availability,
    namespace, dfs, journal. *)
val names : string list

(** [iter selected f] calls [f name print] for each table whose name is
    in [selected] (every table when [selected] is empty), in list order,
    each just after {!reset_world}; [print ppf] runs the table and prints
    it, followed by a blank line.  Names not in {!names} select nothing.
    A caller that traces [print] opens its trace inside [f], so no reset
    falls inside an open trace. *)
val iter :
  string list -> (string -> (Format.formatter -> unit) -> unit) -> unit

(** [print ppf selected] prints the harness header, then the tables that
    {!iter} selects. *)
val print : Format.formatter -> string list -> unit

(** Run the ten tables that feed BENCH_10.json, each after {!reset_world},
    and return their rows in list order; the [table] field is the table's
    name.  The print-only tables do not run. *)
val rows : unit -> Perf_json.row list
