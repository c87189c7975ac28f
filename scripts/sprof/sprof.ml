(* sprof: where springbench's CPU time goes, by module and by symbol.
   x86-64 Linux only.  Run it through scripts/sprof.sh:

     scripts/sprof.sh WORKLOAD SECONDS SEED [--setup]

   Each run is forked as springbench forks its rounds, and the sampler
   (sprof_stubs.c: a 1 ms ITIMER_PROF, so CPU time, not wall time) is
   armed inside the child, since a child does not inherit the parent's
   interval timer.  The kernel fires that timer at its own tick, so a
   sample may stand for more than 1 ms (4 ms at HZ=250): compare shares,
   not sample counts across machines.  With [--setup] a run is one [Workload.setup] alone,
   which takes no seed; without it, a whole round
   ([Runner.round_in_process]: setup, the measured run and its checks)
   at springbench's round seeds.  Runs repeat until SECONDS of wall time
   have passed (at least one).

   Each sample is the interrupted PC.  PCs in the executable are
   symbolised from `nm`, PCs in shared libraries by dladdr.  An OCaml
   symbol's module is the compilation unit it names ([Sp_dir.Hash] for
   [camlSp_dir__Hash.fold_388]), C in the executable (the OCaml runtime,
   the GC and the C stubs) counts as [(C)], and a shared-library hit as
   the library, with the symbol dladdr finds or [?]. *)

open Springbench_lib
module W = Workload

external start : unit -> unit = "sprof_start"
external stop : unit -> int array = "sprof_stop"
external anchor : unit -> int = "sprof_anchor"
external where : int -> (string * string) option = "sprof_where"

(* springbench's seed for round [i] *)
let round_seed seed i = if i = 0 then seed else Hashtbl.hash (seed, i)

(* One forked run's samples.  Setup alone is entered the way
   [Runner.round_in_process] enters it. *)
let sample w ~setup ~seed =
  Runner.isolated (fun () ->
      if setup then begin
        Printexc.record_backtrace false;
        Sp_sim.Simclock.reset ();
        Sp_sim.Metrics.reset ();
        Sp_sim.Cost_model.with_model Sp_sim.Cost_model.paper_1993 @@ fun () ->
        start ();
        ignore (W.setup w ~tag:"sb" : W.world);
        stop ()
      end
      else begin
        start ();
        ignore
          (Runner.round_in_process ~tag:"sb" ~clients:(W.clients w) ~ops:(W.ops w) ~trace:false w
             ~seed
            : Runner.round);
        stop ()
      end)

(* The executable's code symbols, sorted by address.  A unit's
   [code_begin] marker shares its first function's address. *)
let text_symbols exe =
  let ic = Unix.open_process_args_in "nm" [| "nm"; "--defined-only"; exe |] in
  let rec read acc =
    match input_line ic with
    | line -> (
        match String.split_on_char ' ' line with
        | [ addr; ("T" | "t" | "W" | "w"); name ]
          when not
                 (String.ends_with ~suffix:".code_begin" name
                 || String.ends_with ~suffix:".code_end" name) ->
            read ((int_of_string ("0x" ^ addr), name) :: acc)
        | _ -> read acc)
    | exception End_of_file -> acc
  in
  let syms = Array.of_list (read []) in
  if Unix.close_process_in ic <> Unix.WEXITED 0 then failwith "sprof: nm failed";
  Array.sort compare syms;
  syms

(* The last symbol at or below [addr]. *)
let lookup syms addr =
  let rec go lo hi =
    if hi - lo <= 1 then lo
    else
      let mid = (lo + hi) / 2 in
      if fst syms.(mid) <= addr then go mid hi else go lo mid
  in
  if Array.length syms = 0 || addr < fst syms.(0) then "?"
  else snd syms.(go 0 (Array.length syms))

let split_on_double_underscore s =
  let rec go acc start i =
    if i + 1 >= String.length s then List.rev (String.sub s start (String.length s - start) :: acc)
    else if s.[i] = '_' && s.[i + 1] = '_' then go (String.sub s start (i - start) :: acc) (i + 2) (i + 2)
    else go acc start (i + 1)
  in
  go [] 0 0

(* (module, symbol) of an executable symbol: [camlSp_dir__Hash.fold_388]
   is ([Sp_dir.Hash], [Sp_dir.Hash.fold_388]). *)
let names sym =
  let n = String.length sym in
  if n > 4 && String.starts_with ~prefix:"caml" sym && sym.[4] >= 'A' && sym.[4] <= 'Z' then begin
    let unit, rest =
      match String.index_opt sym '.' with
      | Some i -> (String.sub sym 4 (i - 4), String.sub sym i (n - i))
      | None -> (String.sub sym 4 (n - 4), "")
    in
    let m = String.concat "." (split_on_double_underscore unit) in
    (m, m ^ rest)
  end
  else ("(C)", sym)

let tally tbl key = Hashtbl.replace tbl key (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0)

let print_shares title tbl total ~top =
  Printf.printf "%s\n" title;
  Hashtbl.fold (fun k n acc -> (n, k) :: acc) tbl []
  |> List.sort (fun (a, ka) (b, kb) -> if a <> b then compare b a else compare ka kb)
  |> List.iteri (fun i (n, k) ->
         if i < top then
           Printf.printf "  %5.1f%% %7d  %s\n" (100. *. float_of_int n /. float_of_int total) n k)

let () =
  let w, seconds, seed, setup =
    match Array.to_list Sys.argv with
    | [ _; w; s; seed ] -> (w, s, seed, false)
    | [ _; w; s; seed; "--setup" ] -> (w, s, seed, true)
    | _ ->
        prerr_endline "usage: sprof WORKLOAD SECONDS SEED [--setup]";
        exit 2
  in
  let w, seconds, seed =
    match (W.of_name w, float_of_string_opt seconds, int_of_string_opt seed) with
    | Some w, Some s, Some seed when s >= 0. -> (w, s, seed)
    | _ ->
        prerr_endline "sprof: WORKLOAD is a springbench workload, SECONDS >= 0, SEED an integer";
        exit 2
  in
  let t0 = Unix.gettimeofday () in
  let rec runs i acc =
    let acc = sample w ~setup ~seed:(round_seed seed i) :: acc in
    if Unix.gettimeofday () -. t0 >= seconds then (i + 1, acc) else runs (i + 1) acc
  in
  let nruns, samples = runs 0 [] in
  let syms = text_symbols Sys.executable_name in
  let bias =
    match Array.find_opt (fun (_, name) -> name = "sprof_start") syms with
    | Some (addr, _) -> anchor () - addr
    | None -> failwith "sprof: nm lists no sprof_start"
  in
  let by_module = Hashtbl.create 64 and by_symbol = Hashtbl.create 256 in
  let known = Hashtbl.create 4096 in
  let total = ref 0 in
  List.iter
    (Array.iter (fun pc ->
         let m, s =
           match Hashtbl.find_opt known pc with
           | Some ms -> ms
           | None ->
               let ms =
                 match where pc with
                 | Some (obj, sym) -> (obj, obj ^ ":" ^ sym)
                 | None -> names (lookup syms (pc - bias))
               in
               Hashtbl.replace known pc ms;
               ms
         in
         incr total;
         tally by_module m;
         tally by_symbol s))
    samples;
  Printf.printf "SPROF workload=%s mode=%s seed=%d seconds=%g runs=%d samples=%d\n" (W.name w)
    (if setup then "setup" else "round")
    seed seconds nruns !total;
  if !total > 0 then begin
    print_shares "by module (share of self samples):" by_module !total ~top:20;
    print_shares "by symbol:" by_symbol !total ~top:30
  end
