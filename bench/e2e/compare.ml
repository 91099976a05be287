(* Compare two sets of e2e.exe result files: the parent commit's and a
   change's, run in alternating pairs with identical settings.

     compare.exe [--bench BENCHMARK.json] PARENT_DIR CHANGE_DIR

   Each directory holds the result JSON files of one side (e2e.exe
   --out). Runs are paired in file-name order, per workload. For every
   workload x metric it prints each side's median and quartiles, the
   share of pairs the change won, and a verdict:

   - improved: the change wins at least 9 in 10 pairs (ties count for
     neither) and the medians differ by more than the parent's
     interquartile distance;
   - regressed: the change's median is worse than the parent's by more
     than the metric's bound in BENCHMARK.json (per-layer metrics have
     no bound: the mirror of the improved rule);
   - unresolved: the parent's own spread is wider than the bound and
     neither side beats every run of the other with every run of its
     own (if one does, the verdict is improved or regressed), or fewer
     than 10 pairs were given;
   - unchanged: otherwise.

   Exits 1 when any end-to-end metric regressed. Quartiles follow
   Python's statistics.quantiles(n=4), the exclusive method. *)

module Json = Rs_obs.Json

let parse_file path =
  match Json.parse (In_channel.with_open_bin path In_channel.input_all) with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

let num = function
  | Some (Json.Int i) -> Some (float_of_int i)
  | Some (Json.Float f) -> Some f
  | _ -> None

let str = function Some (Json.String s) -> Some s | _ -> None

(* Declared metrics: name -> (better is lower, bound option). *)
let declared bench =
  let entries key =
    match Json.member key bench with
    | Some (Json.List l) ->
        List.filter_map
          (fun m ->
            match (str (Json.member "name" m), str (Json.member "better" m)) with
            | Some n, Some b -> Some (n, (b = "lower", num (Json.member "bound" m)))
            | _ -> None)
          l
    | _ -> []
  in
  entries "end_to_end" @ entries "per_layer"

(* Results of one side: workload -> list of (metric -> value), in
   file-name order. *)
let load_side dir =
  let files =
    Sys.readdir dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".json")
    |> List.sort compare
  in
  List.filter_map
    (fun f ->
      let j = parse_file (Filename.concat dir f) in
      match (str (Json.member "workload" j), Json.member "metrics" j) with
      | Some w, Some (Json.Obj ms) ->
          let value (k, v) = Option.map (fun x -> (k, x)) (num (Json.member "value" v)) in
          Some (w, List.filter_map value ms)
      | _ ->
          Printf.eprintf "compare: skipping %s (not an e2e result)\n" f;
          None)
    files

let quartiles xs =
  let a = Array.copy xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then (Float.nan, Float.nan, Float.nan)
  else if n = 1 then (a.(0), a.(0), a.(0))
  else
    let m = n + 1 in
    let q i =
      let j = min (n - 1) (max 1 (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.
    in
    (q 1, q 2, q 3)

let verdict ~lower ~bound parent change =
  let pairs = min (Array.length parent) (Array.length change) in
  let better x y = if lower then x < y else x > y in
  let wins = ref 0 and losses = ref 0 in
  for i = 0 to pairs - 1 do
    if better change.(i) parent.(i) then incr wins
    else if better parent.(i) change.(i) then incr losses
  done;
  let p1, pm, p3 = quartiles parent and _, cm, _ = quartiles change in
  let iqr = p3 -. p1 in
  let spread = iqr /. Float.abs pm in
  let worse = (if lower then cm -. pm else pm -. cm) /. Float.abs pm in
  let clear k = float_of_int k >= 0.9 *. float_of_int pairs && Float.abs (cm -. pm) > iqr in
  let gain = clear !wins && better cm pm and loss = clear !losses && better pm cm in
  let dominates a b = Array.for_all (fun x -> Array.for_all (fun y -> better x y) b) a in
  let v =
    if pairs < 10 then "unresolved (fewer than 10 pairs)"
    else
      match bound with
      | Some b when spread > b ->
          if dominates change parent then "improved"
          else if dominates parent change then "regressed"
          else "unresolved"
      | Some b when worse > b -> "regressed"
      | None when loss -> "regressed"
      | _ -> if gain then "improved" else "unchanged"
  in
  (float_of_int !wins /. float_of_int (max 1 pairs), v)

let () =
  let bench = ref "BENCHMARK.json" and dirs = ref [] in
  Arg.parse
    [ ("--bench", Arg.Set_string bench, "FILE  directions and bounds (default BENCHMARK.json)") ]
    (fun d -> dirs := !dirs @ [ d ])
    "compare.exe [--bench BENCHMARK.json] PARENT_DIR CHANGE_DIR";
  match !dirs with
  | [ pdir; cdir ] ->
      let metrics = declared (parse_file !bench) in
      let parent = load_side pdir and change = load_side cdir in
      let workloads = List.sort_uniq compare (List.map fst parent) in
      let regressed = ref false in
      List.iter
        (fun w ->
          let runs side = List.filter_map (fun (w', ms) -> if w' = w then Some ms else None) side in
          let pr = runs parent and cr = runs change in
          Printf.printf "\n%s: %d parent runs, %d change runs\n" w (List.length pr) (List.length cr);
          Printf.printf "  %-32s %-34s %-34s %6s  %s\n" "metric" "parent median [q1, q3]"
            "change median [q1, q3]" "won" "verdict";
          List.iter
            (fun (name, (lower, bound)) ->
              let vals runs = Array.of_list (List.filter_map (List.assoc_opt name) runs) in
              let pv = vals pr and cv = vals cr in
              if Array.length pv > 0 && Array.length cv > 0 then begin
                let won, v = verdict ~lower ~bound pv cv in
                let q1, m, q3 = quartiles pv and c1, cm, c3 = quartiles cv in
                if v = "regressed" && bound <> None then regressed := true;
                Printf.printf "  %-32s %10.4g [%9.4g, %9.4g] %10.4g [%9.4g, %9.4g] %5.0f%%  %s\n"
                  name m q1 q3 cm c1 c3 (100. *. won) v
              end)
            metrics)
        workloads;
      exit (if !regressed then 1 else 0)
  | _ ->
      prerr_endline "usage: compare.exe [--bench BENCHMARK.json] PARENT_DIR CHANGE_DIR";
      exit 2
