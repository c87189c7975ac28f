type kind = Regular | Directory

type t = {
  kind : kind;
  len : int;
  atime : int;
  mtime : int;
  ctime : int;
  nlink : int;
}

let fresh kind =
  let now = Sp_sim.Simclock.now () in
  { kind; len = 0; atime = now; mtime = now; ctime = now; nlink = 1 }

let touch_atime t = { t with atime = Sp_sim.Simclock.now () }

let touch_mtime t =
  let now = Sp_sim.Simclock.now () in
  { t with mtime = now; ctime = now }

let with_len t len = { t with len }

let equal a b =
  a.kind = b.kind && a.len = b.len && a.atime = b.atime && a.mtime = b.mtime
  && a.ctime = b.ctime && a.nlink = b.nlink
