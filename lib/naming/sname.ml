type t = string list

let of_components cs = cs

let of_string s =
  let raw = String.split_on_char '/' s in
  let keep = function
    | "" | "." -> None
    | ".." -> invalid_arg "Sname.of_string: '..' is not supported"
    | c -> Some c
  in
  List.filter_map keep raw

let to_string = function [] -> "/" | cs -> String.concat "/" cs
let components t = t
let split = function [] -> None | c :: rest -> Some (c, rest)
let is_empty t = t = []

let append t c = t @ [ c ]
