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
          Alcotest.test_case "incremental target" `Quick test_incremental_target;
          Alcotest.test_case "check oracle" `Quick test_check_oracle;
        ] );
      ( "properties",
        [
          make_prop "incremental repair = from-scratch" prop_incremental_equivalence;
          prop_parse_print_roundtrip;
        ] );
      ( "acceptance",
        [ Alcotest.test_case "2000-node single-edge" `Slow test_acceptance_2000 ] );
    ]
