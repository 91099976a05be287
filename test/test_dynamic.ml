(* Tests for the dynamic-repair subsystem: Delta semantics, dirty-set
   repair equivalence against from-scratch builds, the escalation
   ladder, and the quiescent fast path. *)
open Rs_graph
module Delta = Rs_dynamic.Delta
module Repair = Rs_dynamic.Repair

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let udg ~seed ~n ~density =
  let rand = Rand.create seed in
  let side = sqrt (float_of_int n /. density) in
  Rs_geometry.Unit_ball.udg (Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side)

let pairs_of_set h = Edge_set.to_list h

(* ---------------------------------------------------------------- *)
(* Delta *)

let test_delta_effect_and_apply () =
  let g = Gen.path_graph 5 in
  (* net effect: redundant ops vanish, sequential ops compose *)
  let added, removed = Delta.effect g [ Delta.Add_edge (0, 2); Delta.Add_edge (0, 1) ] in
  check "existing edge add is redundant" true (added = [ (0, 2) ] && removed = []);
  let added, removed =
    Delta.effect g [ Delta.Remove_edge (1, 2); Delta.Add_edge (1, 2) ]
  in
  check "remove then add cancels" true (added = [] && removed = []);
  let g' = Delta.apply g [ Delta.Remove_edge (1, 2); Delta.Add_edge (1, 2) ] in
  check "quiescent apply returns the graph itself" true (g == g');
  let g' = Delta.apply g [ Delta.Node_down 2 ] in
  check_int "node down drops incident edges" (Graph.m g - 2) (Graph.m g');
  let g'' = Delta.apply g' [ Delta.Node_up (2, [ 1; 3 ]) ] in
  check "down then up restores" true (Graph.equal g g'')

let test_delta_diff_roundtrip () =
  let g = udg ~seed:11 ~n:40 ~density:4.0 in
  let g' = Delta.apply g [ Delta.Node_down 3; Delta.Add_edge (0, 39) ] in
  check "diff reproduces the target" true (Graph.equal g' (Delta.apply g (Delta.diff g g')));
  check "diff of equal graphs is empty" true (Delta.diff g g = [])

let test_delta_touched () =
  let t = Delta.touched ~added:[ (3, 1) ] ~removed:[ (1, 2); (5, 4) ] in
  check "touched = sorted distinct endpoints" true (t = [ 1; 2; 3; 4; 5 ])

let test_delta_parse () =
  let ops = Delta.parse "# comment\nadd 0 1\n\nremove 2 3\ndown 4\nup 4 0 2\n" in
  check "parse shapes" true
    (ops
    = [ Delta.Add_edge (0, 1); Delta.Remove_edge (2, 3); Delta.Node_down 4;
        Delta.Node_up (4, [ 0; 2 ]) ]);
  Alcotest.check_raises "unknown directive"
    (Failure "Delta.parse: line 2: unknown directive: frob") (fun () ->
      ignore (Delta.parse "add 0 1\nfrob 2"));
  Alcotest.check_raises "arity"
    (Failure "Delta.parse: line 1: expected: down U") (fun () ->
      ignore (Delta.parse "down 1 2"));
  Alcotest.check_raises "non-integer"
    (Failure "Delta.parse: line 1: not an integer: x") (fun () ->
      ignore (Delta.parse "add x 1"))

let test_delta_validation () =
  let g = Gen.path_graph 4 in
  check "out of range rejected" true
    (match Delta.effect g [ Delta.Add_edge (0, 9) ] with
    | exception Invalid_argument _ -> true
    | _ -> false);
  check "self-loop rejected" true
    (match Delta.effect g [ Delta.Add_edge (2, 2) ] with
    | exception Invalid_argument _ -> true
    | _ -> false)

(* The hashtable implementation [Delta.effect]/[apply] had before the
   overlay, kept as the reference: both edge sets of the whole graph,
   O(m) per delta, obviously right. *)
module Reference = struct
  let check_vertex n v =
    if v < 0 || v >= n then
      invalid_arg (Printf.sprintf "Delta: vertex %d out of range [0..%d)" v n)

  let check_edge n u v =
    check_vertex n u;
    check_vertex n v;
    if u = v then invalid_arg (Printf.sprintf "Delta: self-loop at vertex %d" u)

  let encode n u v = if u <= v then (u * n) + v else (v * n) + u
  let decode n e = (e / n, e mod n)

  let edge_tbl g =
    let n = Graph.n g in
    let t = Hashtbl.create (1 + (2 * Graph.m g)) in
    Graph.iter_edges (fun u v -> Hashtbl.replace t (encode n u v) ()) g;
    t

  let after_tbl g ops =
    let n = Graph.n g in
    let t = edge_tbl g in
    List.iter
      (function
        | Delta.Add_edge (u, v) ->
            check_edge n u v;
            Hashtbl.replace t (encode n u v) ()
        | Delta.Remove_edge (u, v) ->
            check_edge n u v;
            Hashtbl.remove t (encode n u v)
        | Delta.Node_down u ->
            check_vertex n u;
            let doomed =
              Hashtbl.fold
                (fun e () acc ->
                  let a, b = decode n e in
                  if a = u || b = u then e :: acc else acc)
                t []
            in
            List.iter (Hashtbl.remove t) doomed
        | Delta.Node_up (u, links) ->
            List.iter
              (fun v ->
                check_edge n u v;
                Hashtbl.replace t (encode n u v) ())
              links)
      ops;
    t

  let only n t t' =
    Hashtbl.fold (fun e () acc -> if Hashtbl.mem t' e then acc else e :: acc) t []
    |> List.sort Int.compare |> List.map (decode n)

  let effect g ops =
    let n = Graph.n g in
    let before = edge_tbl g and after = after_tbl g ops in
    (only n after before, only n before after)

  let apply g ops =
    let n = Graph.n g in
    let added, removed = effect g ops in
    if added = [] && removed = [] then g
    else Graph.make ~n (only n (after_tbl g ops) (Hashtbl.create 1))
end

(* Ops drawn to collide: a small vertex range (out-of-range and
   self-loop ops included, rarely), edges of the graph as well as
   non-edges, and the patterns a batch can cancel itself with. *)
let colliding_delta rand g =
  let n = Graph.n g in
  let vertex () = if Rand.int rand 25 = 0 then n + Rand.int rand 3 else Rand.int rand n in
  let edge () =
    if Graph.m g > 0 && Rand.int rand 2 = 0 then (Graph.edges g).(Rand.int rand (Graph.m g))
    else (vertex (), vertex ())
  in
  let chunk () =
    match Rand.int rand 7 with
    | 0 -> [ (let u, v = edge () in Delta.Add_edge (u, v)) ]
    | 1 -> [ (let u, v = edge () in Delta.Remove_edge (u, v)) ]
    | 2 -> [ Delta.Node_down (vertex ()) ]
    | 3 -> [ Delta.Node_up (vertex (), List.init (Rand.int rand 4) (fun _ -> vertex ())) ]
    | 4 ->
        let u, v = edge () in
        [ Delta.Add_edge (u, v); Delta.Remove_edge (v, u) ]
    | 5 ->
        let u, v = edge () in
        [ Delta.Remove_edge (u, v); Delta.Add_edge (v, u) ]
    | _ ->
        let u = Rand.int rand n in
        [ Delta.Node_down u; Delta.Node_up (u, Array.to_list (Graph.neighbors g u)) ]
  in
  List.concat (List.init (1 + Rand.int rand 4) (fun _ -> chunk ()))

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let prop_overlay_effect_matches_reference seed =
  let rand = Rand.create seed in
  let n = 2 + Rand.int rand 9 in
  let g = Gen.erdos_renyi rand n (Rand.float rand 0.7) in
  let d = colliding_delta rand g in
  let fresh = outcome (fun () -> Delta.effect g d) in
  fresh = outcome (fun () -> Reference.effect g d)
  &&
  match (outcome (fun () -> Delta.apply g d), outcome (fun () -> Reference.apply g d)) with
  | Ok g1, Ok g2 -> Graph.equal g1 g2 && (g1 == g) = (g2 == g)
  | Error m1, Error m2 -> m1 = m2
  | _ -> false

(* ---------------------------------------------------------------- *)
(* Repair: equivalence with from-scratch builds *)

let equivalent st =
  Repair.pairs st = pairs_of_set (Repair.build (Repair.Gdy_k { k = 1 }) (Repair.graph st))

let test_repair_quiescent () =
  let g = udg ~seed:21 ~n:60 ~density:4.0 in
  let st = Repair.init (Repair.Gdy_k { k = 1 }) g in
  let h_before = Repair.spanner st in
  let u, v = (Graph.edges g).(0) in
  let o = Repair.apply st [ Delta.Remove_edge (u, v); Delta.Add_edge (u, v) ] in
  check_int "no dirty nodes" 0 o.Repair.dirty;
  check_int "no trees rebuilt" 0 o.Repair.rebuilt;
  check "graph untouched" true (Repair.graph st == g);
  check "spanner physically untouched" true (Repair.spanner st == h_before)

let test_repair_single_edge () =
  let g = udg ~seed:23 ~n:120 ~density:4.0 in
  let st = Repair.init (Repair.Gdy_k { k = 1 }) g in
  let u, v = (Graph.edges g).(Graph.m g / 2) in
  let o = Repair.apply st [ Delta.Remove_edge (u, v) ] in
  check "local repair" true (o.Repair.level = Repair.Local);
  check_int "no escalations" 0 o.Repair.escalations;
  check "only a fraction of trees rebuilt" true (o.Repair.rebuilt < Graph.n g / 2);
  check "equivalent to from-scratch" true (equivalent st);
  (* and the restored edge heals back to the original spanner *)
  let o = Repair.apply st [ Delta.Add_edge (u, v) ] in
  check "restore is local too" true (o.Repair.level = Repair.Local);
  check "equivalent after restore" true (equivalent st);
  check "restored spanner = original build" true
    (Repair.pairs st = pairs_of_set (Repair.build (Repair.Gdy_k { k = 1 }) g))

let test_repair_crash_recover_batch () =
  let g = udg ~seed:29 ~n:80 ~density:4.0 in
  let st = Repair.init (Repair.Gdy_k { k = 1 }) g in
  let links = Array.to_list (Graph.neighbors g 7) in
  let o = Repair.apply st [ Delta.Node_down 7; Delta.Node_up (7, links) ] in
  check_int "crash/recover in one batch is quiescent" 0 o.Repair.dirty;
  let o = Repair.apply st [ Delta.Node_down 7 ] in
  check "crash repaired locally" true (o.Repair.level = Repair.Local);
  check "equivalent after crash" true (equivalent st);
  let o = Repair.apply st [ Delta.Node_up (7, links) ] in
  check "recovery repaired locally" true (o.Repair.level = Repair.Local);
  check "equivalent after recovery" true (equivalent st)

(* Back-to-back deltas where the second strikes inside the first's
   dirty ball before any quiescent period: dirty-set tracking must not
   assume the neighborhood it is repairing was clean when the delta
   arrived. Regression shape for the serve writer, which feeds deltas
   to one long-lived state with no gate between batches. *)
let test_repair_overlapping_dirty_balls () =
  let g = udg ~seed:37 ~n:120 ~density:4.0 in
  let spec = Repair.Gdy_k { k = 1 } in
  let st = Repair.init spec g in
  (* first delta: drop an edge at a well-connected node *)
  let u =
    let best = ref 0 in
    for v = 1 to Graph.n g - 1 do
      if Graph.degree g v > Graph.degree g !best then best := v
    done;
    !best
  in
  let nbrs = Graph.neighbors g u in
  let v = nbrs.(0) in
  let o1 = Repair.apply st [ Delta.Remove_edge (u, v) ] in
  check "first repair lands" true (o1.Repair.dirty > 0);
  (* second delta: same node u and one of its still-present neighbors —
     dead center of the ball the first repair just rebuilt *)
  let w = nbrs.(1) in
  let o2 = Repair.apply st [ Delta.Remove_edge (u, w) ] in
  check "second repair overlaps the first ball" true (o2.Repair.dirty > 0);
  check "equivalent after overlapping repairs" true (equivalent st);
  (* third wave: the neighbor w goes down entirely, then everything is
     restored in reverse order — each step against a still-warm ball *)
  let w_links = Array.to_list (Graph.neighbors (Repair.graph st) w) in
  ignore (Repair.apply st [ Delta.Node_down w ]);
  check "equivalent after node-down in the same ball" true (equivalent st);
  ignore (Repair.apply st [ Delta.Node_up (w, w_links) ]);
  ignore (Repair.apply st [ Delta.Add_edge (u, w) ]);
  ignore (Repair.apply st [ Delta.Add_edge (u, v) ]);
  check "equivalent after full restore" true (equivalent st);
  check "restore lands on the original build" true
    (Repair.pairs st = pairs_of_set (Repair.build spec g));
  (* the same collision as one batch must agree with the two-step path *)
  let st2 = Repair.init spec g in
  ignore (Repair.apply st2 [ Delta.Remove_edge (u, v); Delta.Remove_edge (u, w) ]);
  let st3 = Repair.init spec g in
  ignore (Repair.apply st3 [ Delta.Remove_edge (u, v) ]);
  ignore (Repair.apply st3 [ Delta.Remove_edge (u, w) ]);
  check "batched = sequential on overlapping deltas" true
    (Repair.pairs st2 = Repair.pairs st3)

let all_specs =
  [ Repair.Gdy_k { k = 1 }; Repair.Mis_k { k = 2 }; Repair.Mis { r = 3 };
    Repair.Gdy { r = 3; beta = 1 } ]

let test_repair_all_specs () =
  let g = udg ~seed:31 ~n:50 ~density:4.0 in
  List.iter
    (fun spec ->
      let name = Format.asprintf "%a" Repair.pp_spec spec in
      let st = Repair.init spec g in
      check (name ^ " init = build") true
        (Repair.pairs st = pairs_of_set (Repair.build spec g));
      let u, v = (Graph.edges g).(0) in
      ignore (Repair.apply st [ Delta.Remove_edge (u, v) ]);
      ignore (Repair.apply st [ Delta.Node_down (Graph.n g - 1) ]);
      let reference = Repair.build spec (Repair.graph st) in
      check (name ^ " equivalent after deltas") true
        (Repair.pairs st = pairs_of_set reference);
      match Repair.alpha_beta spec with
      | Some (alpha, beta) ->
          check (name ^ " verifies") true
            (Rs_core.Verify.is_remote_spanner (Repair.graph st) (Repair.spanner st)
               ~alpha ~beta)
      | None -> ())
    all_specs

(* Escalation: an under-estimated dirty radius misses roots whose
   trees hold the removed edge; the gates catch it and the repair falls
   back to a full rebuild — ending equivalent regardless. *)
let test_escalation_ladder () =
  let g = Gen.path_graph 21 in
  let spec = Repair.Gdy { r = 5; beta = 1 } in
  let st = Repair.init spec g in
  let o = Repair.apply ~dirty_radius:0 st [ Delta.Remove_edge (10, 11) ] in
  check "escalated" true (o.Repair.escalations >= 1);
  check "not local" true (o.Repair.level <> Repair.Local);
  check "still equivalent" true
    (Repair.pairs st = pairs_of_set (Repair.build spec (Repair.graph st)));
  (* a mild under-estimate goes straight to the full rebuild too *)
  let g = Gen.path_graph 21 in
  let spec = Repair.Gdy { r = 3; beta = 1 } in
  let st = Repair.init spec g in
  let o = Repair.apply ~dirty_radius:1 st [ Delta.Remove_edge (10, 11) ] in
  check "mild under-estimate goes full" true (o.Repair.level = Repair.Full);
  check "full equivalent" true
    (Repair.pairs st = pairs_of_set (Repair.build spec (Repair.graph st)))

(* An under-estimated radius leaves fringe roots whose trees the
   delta changed: gate (b) compares each with its recomputation, so the
   apply escalates instead of publishing a valid but different union
   (the earlier validity-only gate let these through as [Local]). *)
let test_underestimate_ends_equal_to_build () =
  let spec = Repair.Gdy { r = 3; beta = 1 } in
  List.iter
    (fun seed ->
      let g = udg ~seed ~n:200 ~density:4.0 in
      let st = Repair.init spec g in
      let rand = Rand.create (seed * 31) in
      let escalations = ref 0 in
      for i = 1 to 6 do
        let g = Repair.graph st in
        let u, v = (Graph.edges g).(Rand.int rand (Graph.m g)) in
        let o = Repair.apply ~dirty_radius:1 st [ Delta.Remove_edge (u, v) ] in
        escalations := !escalations + o.Repair.escalations;
        check
          (Printf.sprintf "seed %d, removal %d: equal to Repair.build" seed i)
          true
          (Repair.pairs st = pairs_of_set (Repair.build spec (Repair.graph st)))
      done;
      check (Printf.sprintf "seed %d: the fringe gate fired" seed) true (!escalations > 0))
    [ 1; 3 ]

let test_apply_change_foreign_graph () =
  let g = udg ~seed:21 ~n:60 ~density:4.0 in
  let st = Repair.init (Repair.Gdy_k { k = 1 }) g in
  let other = Delta.apply g [ Delta.Node_down 0 ] in
  let c = Delta.change other [ Delta.Node_down 1 ] in
  check "a change resolved against another graph is refused" true
    (match Repair.apply_change st c with exception Invalid_argument _ -> true | _ -> false)

let test_incremental_target () =
  let g = udg ~seed:37 ~n:40 ~density:4.0 in
  let spec = Repair.Gdy_k { k = 1 } in
  let maintain = Repair.incremental_target spec in
  let u, v = (Graph.edges g).(0) in
  let g' = Delta.apply g [ Delta.Remove_edge (u, v) ] in
  List.iter
    (fun graph ->
      check "maintained = from-scratch" true
        (maintain graph = pairs_of_set (Repair.build spec graph)))
    [ g; g; g'; g' ]

(* ---------------------------------------------------------------- *)
(* Property: random UDGs x random delta sequences (the ISSUE's
   equivalence gate, >= 50 random sequences in CI) *)

let random_delta rand g =
  let n = Graph.n g in
  let m = Graph.m g in
  let rand_op () =
    match Rand.int rand 4 with
    | 0 ->
        let u = Rand.int rand n and v = Rand.int rand n in
        if u = v then Delta.Node_down u else Delta.Add_edge (u, v)
    | 1 when m > 0 ->
        let u, v = (Graph.edges g).(Rand.int rand m) in
        Delta.Remove_edge (u, v)
    | 2 -> Delta.Node_down (Rand.int rand n)
    | _ ->
        let u = Rand.int rand n in
        let links =
          List.init (1 + Rand.int rand 3) (fun _ -> Rand.int rand n)
          |> List.filter (( <> ) u)
        in
        if links = [] then Delta.Node_down u else Delta.Node_up (u, links)
  in
  List.init (1 + Rand.int rand 3) (fun _ -> rand_op ())

let prop_incremental_equivalence seed =
  let rand = Rand.create seed in
  let n = 12 + Rand.int rand 25 in
  let g = udg ~seed:(seed + 1) ~n ~density:3.5 in
  let spec = List.nth all_specs (Rand.int rand (List.length all_specs)) in
  let st = Repair.init spec g in
  let ok = ref true in
  for _ = 1 to 3 do
    ignore (Repair.apply st (random_delta rand (Repair.graph st)));
    let g' = Repair.graph st in
    if Repair.pairs st <> pairs_of_set (Repair.build spec g') then ok := false;
    (match Repair.alpha_beta spec with
    | Some (alpha, beta) ->
        if not (Rs_core.Verify.is_remote_spanner g' (Repair.spanner st) ~alpha ~beta)
        then ok := false
    | None -> ());
    (* quiescent repair leaves the spanner physically untouched *)
    let h = Repair.spanner st in
    ignore (Repair.apply st []);
    if Repair.spanner st != h then ok := false
  done;
  !ok

(* The locality radii are tight: with [Repair.radius] itself (no
   [?dirty_radius]), every apply stays [Local] and leaves every root's
   stored tree equal to a fresh [init]'s — per root, not just the
   union — for every family, the beta = 0 greedy trees (radius r - 1)
   included. Node-up links are drawn from the 3-ball so deltas close
   short cycles inside the balls the radii reason about. *)
let prop_tight_radius_per_root seed =
  let specs =
    [ Repair.Gdy { r = 2; beta = 0 }; Repair.Gdy { r = 3; beta = 0 };
      Repair.Gdy { r = 4; beta = 0 }; Repair.Gdy { r = 3; beta = 1 };
      Repair.Gdy { r = 3; beta = 2 }; Repair.Mis { r = 2 }; Repair.Mis { r = 3 };
      Repair.Gdy_k { k = 1 }; Repair.Gdy_k { k = 3 }; Repair.Mis_k { k = 1 };
      Repair.Mis_k { k = 2 } ]
  in
  let rand = Rand.create seed in
  let g = udg ~seed:(seed + 3) ~n:(10 + Rand.int rand 40) ~density:(2.5 +. Rand.float rand 4.0) in
  let spec = List.nth specs (Rand.int rand (List.length specs)) in
  let st = Repair.init spec g in
  let op g =
    let n = Graph.n g in
    match Rand.int rand 4 with
    | 0 when Graph.m g > 0 ->
        let u, v = (Graph.edges g).(Rand.int rand (Graph.m g)) in
        Delta.Remove_edge (u, v)
    | 1 -> Delta.Node_down (Rand.int rand n)
    | _ ->
        let u = Rand.int rand n in
        let near = Bfs.ball g u 3 in
        let v = near.(Rand.int rand (Array.length near)) in
        if v = u then Delta.Node_down u else Delta.Add_edge (u, v)
  in
  let ok = ref true in
  for _ = 1 to 5 do
    let g = Repair.graph st in
    let o = Repair.apply st (List.init (1 + Rand.int rand 3) (fun _ -> op g)) in
    if o.Repair.level <> Repair.Local then ok := false;
    if Repair.export_trees st <> Repair.export_trees (Repair.init spec (Repair.graph st)) then
      ok := false
  done;
  !ok

let make_prop ?(count = 60) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name ~count QCheck2.Gen.(int_range 0 1_000_000) prop)

(* parse/print round trip: any delta [to_string] can emit (Node_up
   links non-empty — the only shape [parse] produces) survives the
   text format, which is also the WAL record payload format *)
let delta_gen =
  let open QCheck2.Gen in
  let vertex = int_range 0 500 in
  let op =
    oneof
      [
        map2 (fun u v -> Delta.Add_edge (u, v)) vertex vertex;
        map2 (fun u v -> Delta.Remove_edge (u, v)) vertex vertex;
        map (fun u -> Delta.Node_down u) vertex;
        map2
          (fun u links -> Delta.Node_up (u, links))
          vertex
          (list_size (int_range 1 5) vertex);
      ]
  in
  list_size (int_range 0 8) op

let prop_parse_print_roundtrip =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~name:"parse (to_string d) = d" ~count:300 delta_gen (fun d ->
         Delta.parse (Delta.to_string d) = d))

(* ---------------------------------------------------------------- *)
(* Acceptance: 2000-node UDG, single-edge delta -> < 5% of trees
   recomputed, repaired spanner passes Verify with the construction's
   (alpha, beta), equivalent to a from-scratch rebuild. *)

let test_acceptance_2000 () =
  let g = udg ~seed:41 ~n:2000 ~density:4.0 in
  let spec = Repair.Gdy_k { k = 1 } in
  let st = Repair.init spec g in
  let u, v = (Graph.edges g).(Graph.m g / 3) in
  let o = Repair.apply st [ Delta.Remove_edge (u, v) ] in
  check "local" true (o.Repair.level = Repair.Local);
  check "< 5% of trees recomputed" true
    (float_of_int o.Repair.rebuilt < 0.05 *. float_of_int (Graph.n g));
  let g' = Repair.graph st in
  check "equivalent to from-scratch" true
    (Repair.pairs st = pairs_of_set (Repair.build spec g'));
  check "passes Verify at (1, 0)" true
    (Rs_core.Verify.is_remote_spanner g' (Repair.spanner st) ~alpha:1.0 ~beta:0.0)

(* ---------------------------------------------------------------- *)
(* The end-state oracle *)

(* [Repair.check] accepts the from-scratch build and rejects, naming
   the spec, a spanner one build edge short or one graph edge over —
   for a star family and a tree family *)
let test_check_oracle () =
  let g = udg ~seed:21 ~n:60 ~density:5.0 in
  List.iter
    (fun spec ->
      let name = Format.asprintf "%a" Repair.pp_spec spec in
      let h = Repair.build spec g in
      Repair.check ~what:"oracle" g [ (spec, h) ];
      let rejects label sp =
        match Repair.check ~what:"oracle" g [ (spec, sp) ] with
        | () -> Alcotest.failf "%s: accepted a spanner %s" name label
        | exception Failure m ->
            let mentions sub =
              let n = String.length m and k = String.length sub in
              let rec go i = i + k <= n && (String.sub m i k = sub || go (i + 1)) in
              go 0
            in
            check (name ^ ": message names what and the spec") true
              (mentions "oracle" && mentions name)
      in
      let short = Edge_set.copy h in
      (match Edge_set.to_list h with
      | (u, v) :: _ -> Edge_set.remove short u v
      | [] -> Alcotest.fail "empty build");
      rejects "one build edge short" short;
      let over = Edge_set.copy h in
      (match Array.find_opt (fun (u, v) -> not (Edge_set.mem h u v)) (Graph.edges g) with
      | Some (u, v) -> Edge_set.add over u v
      | None -> Alcotest.fail "the build already holds every graph edge");
      rejects "one graph edge over" over)
    [ Repair.Gdy_k { k = 1 }; Repair.Mis { r = 2 } ]

let () =
  Alcotest.run "dynamic"
    [
      ( "delta",
        [
          Alcotest.test_case "effect and apply" `Quick test_delta_effect_and_apply;
          Alcotest.test_case "diff roundtrip" `Quick test_delta_diff_roundtrip;
          Alcotest.test_case "touched" `Quick test_delta_touched;
          Alcotest.test_case "parse" `Quick test_delta_parse;
          Alcotest.test_case "validation" `Quick test_delta_validation;
        ] );
      ( "repair",
        [
          Alcotest.test_case "quiescent" `Quick test_repair_quiescent;
          Alcotest.test_case "single edge" `Quick test_repair_single_edge;
          Alcotest.test_case "crash/recover" `Quick test_repair_crash_recover_batch;
          Alcotest.test_case "overlapping dirty balls" `Quick test_repair_overlapping_dirty_balls;
          Alcotest.test_case "all specs" `Quick test_repair_all_specs;
          Alcotest.test_case "escalation ladder" `Quick test_escalation_ladder;
          Alcotest.test_case "under-estimated radius ends equal to build" `Quick
            test_underestimate_ends_equal_to_build;
          Alcotest.test_case "apply_change refuses a foreign change" `Quick
            test_apply_change_foreign_graph;
          Alcotest.test_case "incremental target" `Quick test_incremental_target;
          Alcotest.test_case "check oracle" `Quick test_check_oracle;
        ] );
      ( "properties",
        [
          make_prop "incremental repair = from-scratch" prop_incremental_equivalence;
          make_prop ~count:300 "tight radius: repaired trees = fresh init, per root"
            prop_tight_radius_per_root;
          make_prop ~count:500 "overlay effect/apply = hashtable reference"
            prop_overlay_effect_matches_reference;
          prop_parse_print_roundtrip;
        ] );
      ( "acceptance",
        [ Alcotest.test_case "2000-node single-edge" `Slow test_acceptance_2000 ] );
    ]
