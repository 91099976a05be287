(* The correctness gate: every recorded reply is checked against the
   bench's own copy of the graph, after the timed step that produced
   it. A read may have been answered from any view whose sequence
   number lies in the window [lo, hi] known when it was sent and
   answered; it passes if it is right for one of those graphs.

   - route: a walk from src to dst over graph edges whose hop count
     equals the reported shortest distance, which must equal the
     bench's BFS distance (the exact spanner routes on shortest paths);
     "unreachable" only when the bench finds no path;
   - paths: each a walk from src to dst over graph edges, internally
     vertex-disjoint;
   - advert: distinct neighbours of the node;
   - stats: n and m of the graph. *)

open Inputs

type answered = { read : read; reply : string; lo : int; hi : int }

let strip_prefix s p =
  let k = String.length p in
  if String.length s >= k && String.sub s 0 k = p then Some (String.sub s k (String.length s - k))
  else None

let strip_stale s =
  let suf = " [stale]" in
  let n = String.length s and k = String.length suf in
  if n >= k && String.sub s (n - k) k = suf then String.sub s 0 (n - k) else s

let ints s =
  String.split_on_char ' ' s
  |> List.filter (fun x -> x <> "")
  |> List.map (fun x ->
         match int_of_string_opt x with Some v -> v | None -> failwith ("not an integer: " ^ x))

let rec is_walk t mask = function
  | a :: (b :: _ as rest) -> has_edge t mask a b && is_walk t mask rest
  | [ _ ] | [] -> true

let last l = List.nth l (List.length l - 1)

type cache = (mask * int, int array) Hashtbl.t

let dist (cache : cache) t mask a b =
  let d =
    match Hashtbl.find_opt cache (mask, a) with
    | Some d -> d
    | None ->
        let d = bfs t mask a in
        Hashtbl.replace cache (mask, a) d;
        d
  in
  d.(b)

let edges_under t mask =
  match mask with
  | Intact -> t.m
  | No_edge _ -> t.m - 1
  | No_node u -> t.m - Array.length t.adj.(u)

(* [None] when [body] is a right answer to [r] on the graph [mask]. *)
let check_one cache t mask r body =
  let fail fmt = Printf.ksprintf Option.some fmt in
  match r.kind with
  | Route -> (
      match strip_prefix body "unreachable (shortest " with
      | Some rest ->
          let s = Scanf.sscanf rest "%d)" Fun.id in
          let d = dist cache t mask r.a r.b in
          if s = -1 && d = -1 then None else fail "unreachable, bench distance %d (reported %d)" d s
      | None -> (
          match Wire.find_sub body " (" with
          | None -> fail "no hop count"
          | Some i ->
              let path = ints (String.sub body 0 i) in
              let hops, s =
                Scanf.sscanf (String.sub body i (String.length body - i)) " (%d hops, shortest %d)"
                  (fun h s -> (h, s))
              in
              let d = dist cache t mask r.a r.b in
              if path = [] || List.hd path <> r.a || last path <> r.b then fail "wrong endpoints"
              else if not (is_walk t mask path) then fail "hop over a missing edge"
              else if hops <> List.length path - 1 then fail "hop count mismatch"
              else if s <> d then fail "shortest %d, bench distance %d" s d
              else if hops <> d then fail "route of %d hops, distance %d" hops d
              else None))
  | Paths -> (
      if body = "none" then None
      else
        let ps = List.map ints (String.split_on_char '|' body) in
        let inner p = match p with [] | [ _ ] -> [] | _ :: tl -> List.rev (List.tl (List.rev tl)) in
        let all_inner = List.concat_map inner ps in
        if List.length ps <> 2 then fail "%d paths for k=2" (List.length ps)
        else if
          List.exists
            (fun p -> p = [] || List.hd p <> r.a || last p <> r.b || not (is_walk t mask p))
            ps
        then fail "a path is not a walk from src to dst"
        else if List.length (List.sort_uniq Int.compare all_inner) <> List.length all_inner then
          fail "paths share an inner vertex"
        else None)
  | Advert ->
      let ns = ints body in
      if List.length (List.sort_uniq Int.compare ns) <> List.length ns then fail "repeated neighbour"
      else if List.exists (fun v -> not (has_edge t mask r.a v)) ns then
        fail "advertises a non-neighbour"
      else None
  | Stats ->
      let n, m = Scanf.sscanf body "n=%d m=%d" (fun n m -> (n, m)) in
      let m' = edges_under t mask in
      if n <> t.n || m <> m' then fail "n=%d m=%d, graph has n=%d m=%d" n m t.n m' else None

(* [None] when the reply is right for some view in its window. *)
let check cache t ~mask_at (x : answered) =
  match strip_prefix x.reply (x.read.line ^ ": ") with
  | None -> Some (Printf.sprintf "%S: unexpected reply %S" x.read.line x.reply)
  | Some body -> (
      let body = strip_stale body in
      let masks = List.sort_uniq compare (List.init (x.hi - x.lo + 1) (fun i -> mask_at (x.lo + i))) in
      let verdict mask =
        try check_one cache t mask x.read body with
        | Scanf.Scan_failure m | Failure m -> Some m
        | End_of_file -> Some "truncated"
      in
      let verdicts = List.map verdict masks in
      if List.mem None verdicts then None
      else
        match verdicts with
        | Some why :: _ -> Some (Printf.sprintf "%S -> %S: %s" x.read.line x.reply why)
        | _ -> Some (Printf.sprintf "%S: no view to check against" x.read.line))

(* Check every recorded reply; returns the number that failed and the
   first few reasons. *)
let check_all t ~mask_at answered =
  let cache : cache = Hashtbl.create 64 in
  List.fold_left
    (fun (bad, why) x ->
      match check cache t ~mask_at x with
      | None -> (bad, why)
      | Some w -> (bad + 1, if List.length why < 5 then w :: why else why))
    (0, []) answered

(* The neighbour list of an advert reply. *)
let advert_list ~node reply =
  match strip_prefix reply (Printf.sprintf "advert %d: " node) with
  | Some body -> List.sort Int.compare (ints (strip_stale body))
  | None -> failwith (Printf.sprintf "advert %d: unexpected reply %S" node reply)
