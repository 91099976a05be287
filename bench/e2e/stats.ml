(* Sample summaries shared by the workloads and the trace replay. *)

let sorted xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank quantile; nan on an empty sample. *)
let quantile xs q =
  let n = Array.length xs in
  if n = 0 then Float.nan
  else
    let a = sorted xs in
    a.(min (n - 1) (int_of_float (ceil (q *. float_of_int (n - 1)))))

let median xs = quantile xs 0.5

let mean xs =
  let n = Array.length xs in
  if n = 0 then Float.nan else Array.fold_left ( +. ) 0. xs /. float_of_int n

(* Growable float sample. *)
type sample = { mutable data : float array; mutable len : int }

let sample () = { data = Array.make 64 0.; len = 0 }

let add s x =
  if s.len = Array.length s.data then begin
    let d = Array.make (2 * s.len) 0. in
    Array.blit s.data 0 d 0 s.len;
    s.data <- d
  end;
  s.data.(s.len) <- x;
  s.len <- s.len + 1

let values s = Array.sub s.data 0 s.len
let count s = s.len

module Json = Rs_obs.Json

let num = function Some (Json.Int i) -> float_of_int i | Some (Json.Float f) -> f | _ -> Float.nan

(* The q-quantile of histogram [name] in a registry dump (Rs_obs JSON),
   interpolated by rank inside the log bucket (le / 1.04, le] it falls
   in; nan when the histogram is absent or empty. The registry's own
   p50/p99 print the bucket's midpoint, which snaps to the same value
   run after run. *)
let reg_quantile reg name q =
  match Option.bind (Json.member "histograms" reg) (Json.member name) with
  | None -> Float.nan
  | Some h ->
      let buckets =
        match Json.member "buckets" h with
        | Some (Json.List l) ->
            List.map (fun b -> (num (Json.member "le" b), num (Json.member "count" b))) l
        | _ -> []
      in
      let rank = q *. List.fold_left (fun acc (_, c) -> acc +. c) 0. buckets in
      let rec find cum = function
        | [] -> Float.nan
        | (le, c) :: rest ->
            if cum +. c < rank || c = 0. then find (cum +. c) rest
            else
              let lo = le /. 1.04 in
              lo +. ((le -. lo) *. (rank -. cum) /. c)
      in
      Float.max (num (Json.member "min" h)) (Float.min (num (Json.member "max" h)) (find 0. buckets))

(* One reported number: name, unit and how many samples it summarizes. *)
type metric = { name : string; unit_ : string; value : float; samples : int }

let metric name unit_ ~samples value = { name; unit_; value; samples }
