let time_ns = ref 0

let now () = !time_ns

let advance ns =
  if ns < 0 then invalid_arg "Simclock.advance: negative duration";
  if ns > 0 then
    match !Sched_hook.advance_hook with
    | Some hook when Sched_hook.in_task () -> hook ns
    | _ ->
        time_ns := !time_ns + ns;
        Sched_hook.note_busy ns

let advance_raw ns = time_ns := !time_ns + ns

let reset () = time_ns := 0

let pp_duration ppf ns =
  if ns >= 1_000_000_000 then Format.fprintf ppf "%.2fs" (float_of_int ns /. 1e9)
  else if ns >= 1_000_000 then Format.fprintf ppf "%.2fms" (float_of_int ns /. 1e6)
  else if ns >= 1_000 then Format.fprintf ppf "%.1fus" (float_of_int ns /. 1e3)
  else Format.fprintf ppf "%dns" ns
