(* Tests for the resident service: lifecycle (start/query/offer/
   drain/stop), overload rejection with reasons, deadline timeouts,
   the stale flag and breaker under a slowed writer, the durable
   restart round trip, and the seeded chaos harness as acceptance. *)
open Rs_graph
module Delta = Rs_dynamic.Delta
module Repair = Rs_dynamic.Repair
module Store = Rs_store.Store
module Service = Rs_serve.Service
module Chaos = Rs_serve.Chaos
module Harness = Rs_store.Harness

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let udg ~seed ~n ~density =
  let rand = Rand.create seed in
  let side = sqrt (float_of_int n /. density) in
  Rs_geometry.Unit_ball.udg (Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let tmp_count = ref 0

let tmp_dir name =
  incr tmp_count;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rs_serve_test_%d_%s_%d" (Unix.getpid ()) name !tmp_count)
  in
  rm_rf d;
  d

let spec = Repair.Gdy_k { k = 1 }

(* modest domain counts: the container is small *)
let base_config = { Service.default_config with Service.readers = 1; watchdog_s = 0. }

let wait_for ?(timeout = 30.) what pred =
  let t0 = Unix.gettimeofday () in
  let rec go () =
    if pred () then ()
    else if Unix.gettimeofday () -. t0 > timeout then
      Alcotest.failf "timed out waiting for %s" what
    else begin
      Unix.sleepf 0.002;
      go ()
    end
  in
  go ()

(* the chaos harness's recovery gate, reused for unit-level drains *)
let verify_view svc =
  let g, spanners = Service.peek svc in
  List.iter
    (fun (sp_spec, sp) ->
      check "spanner = from-scratch build" true
        (Edge_set.to_list sp = Edge_set.to_list (Repair.build sp_spec g));
      match Repair.alpha_beta sp_spec with
      | Some (alpha, beta) ->
          check "paper guarantee holds" true
            (Rs_core.Verify.is_remote_spanner g sp ~alpha ~beta)
      | None -> ())
    spanners

(* ---------------------------------------------------------------- *)
(* Lifecycle: queries answer from the first view, a delta becomes
   visible after drain, stop reports the session's counters. *)

let test_lifecycle () =
  let g = udg ~seed:11 ~n:80 ~density:4.0 in
  let svc = Service.start base_config (Service.Ephemeral { specs = [ spec ]; g }) in
  check_int "first view is seq 0" 0 (Service.view_seq svc);
  let r = Service.query svc (Service.Route { src = 0; dst = 1 }) in
  (match r.Service.answer with
  | Ok (Service.Route_a { path; shortest }) ->
      check "route delivered or both sides agree on disconnection" true
        (match path with Some _ -> shortest >= 0 | None -> shortest = -1)
  | Ok _ -> Alcotest.fail "route answered with the wrong constructor"
  | Error _ -> Alcotest.fail "route failed on an idle service");
  check "fresh read is not stale" false r.Service.stale;
  let m0 =
    match (Service.query svc Service.Stats).Service.answer with
    | Ok (Service.Stats_a { m; _ }) -> m
    | _ -> Alcotest.fail "stats failed"
  in
  (* grow the graph by one edge and drain it through the writer *)
  let u, v =
    let rec free a b =
      if a <> b && not (Array.exists (( = ) b) (Graph.neighbors g a)) then (a, b)
      else free a ((b + 1) mod Graph.n g)
    in
    free 0 1
  in
  (match Service.offer svc [ Delta.Add_edge (u, v) ] with
  | Ok () -> ()
  | Error e -> Alcotest.failf "offer rejected on an idle service: %s" e);
  wait_for "drain" (fun () -> Service.idle svc);
  check_int "view caught the log" 1 (Service.view_seq svc);
  (match (Service.query svc Service.Stats).Service.answer with
  | Ok (Service.Stats_a { m; _ }) -> check_int "edge landed" (m0 + 1) m
  | _ -> Alcotest.fail "stats failed after drain");
  verify_view svc;
  let st = Service.stop svc in
  check_int "one delta accepted" 1 st.Service.s_accepted;
  check_int "none rejected" 0 st.Service.s_rejected;
  check "stop is idempotent" true
    (ignore (Service.stop svc);
     true)

(* ---------------------------------------------------------------- *)
(* Overload: a full ingest queue and an invalid delta both reject
   with a reason; memory never grows past the configured bound. *)

let test_offer_rejection () =
  let g = udg ~seed:12 ~n:60 ~density:4.0 in
  let cfg =
    { base_config with
      Service.ingest_capacity = 2;
      batch_max = 1;
      (* wedge every apply long enough to keep the queue full *)
      before_apply = Some (fun _ _ -> Unix.sleepf 0.05) }
  in
  let svc = Service.start cfg (Service.Ephemeral { specs = [ spec ]; g }) in
  (match Service.offer svc [ Delta.Add_edge (0, Graph.n g + 5) ] with
  | Error reason -> check "invalid delta names the vertex" true (reason <> "")
  | Ok () -> Alcotest.fail "out-of-range delta accepted");
  let rejected = ref 0 and accepted = ref 0 in
  for i = 0 to 63 do
    let d =
      if i mod 2 = 0 then Delta.Remove_edge (0, 1) else Delta.Add_edge (0, 1)
    in
    match Service.offer svc [ d ] with
    | Ok () -> incr accepted
    | Error _ -> incr rejected
  done;
  check "saturation rejects explicitly" true (!rejected > 0);
  check "some deltas still flow" true (!accepted > 0);
  wait_for "drain" (fun () -> Service.idle svc);
  verify_view svc;
  let st = Service.stop svc in
  (* + 1: the out-of-range delta above also rejected with a reason *)
  check_int "rejections counted" (!rejected + 1) st.Service.s_rejected

(* ---------------------------------------------------------------- *)
(* Deadlines: an already-expired request is answered [Timeout]
   without computing, and the timeout is counted. *)

let test_deadline_timeout () =
  let g = udg ~seed:13 ~n:60 ~density:4.0 in
  let svc = Service.start base_config (Service.Ephemeral { specs = [ spec ]; g }) in
  let r = Service.query ~deadline_s:1e-9 svc (Service.Route { src = 0; dst = 1 }) in
  (match r.Service.answer with
  | Error Service.Timeout -> ()
  | Ok _ -> Alcotest.fail "expired deadline still answered"
  | Error _ -> Alcotest.fail "expired deadline failed with the wrong error");
  let st = Service.stop svc in
  check "timeout counted" true (st.Service.s_timeouts >= 1)

(* ---------------------------------------------------------------- *)
(* Stale reads and the breaker: a writer that always blows its repair
   budget trips the breaker; reads during the open window are
   stale-flagged, and the drained state still verifies. *)

let test_stale_and_breaker () =
  let g = udg ~seed:14 ~n:60 ~density:4.0 in
  let cfg =
    { base_config with
      Service.batch_max = 1;
      (* every batch blows a nanosecond budget: the breaker must open
         on the first repair and stay mostly open *)
      repair_budget_s = 1e-9;
      breaker_trips = 1;
      open_backlog = 4;
      before_apply = Some (fun _ _ -> Unix.sleepf 0.01) }
  in
  let svc = Service.start cfg (Service.Ephemeral { specs = [ spec ]; g }) in
  let saw_stale = ref false and saw_open = ref false in
  let give_up = Unix.gettimeofday () +. 20. in
  let i = ref 0 in
  while
    (not (!saw_stale && !saw_open)) && Unix.gettimeofday () < give_up
  do
    incr i;
    let d =
      if !i mod 2 = 0 then Delta.Remove_edge (0, 1) else Delta.Add_edge (0, 1)
    in
    ignore (Service.offer svc [ d ]);
    let r = Service.query ~deadline_s:2.0 svc Service.Stats in
    if r.Service.stale then saw_stale := true;
    if (Service.status svc).Service.s_breaker = "open" then saw_open := true
  done;
  check "stale reads are flagged while the view lags" true !saw_stale;
  check "breaker opened under sustained over-budget repairs" true !saw_open;
  wait_for "drain" (fun () -> Service.idle svc);
  check "drained view caught the log" true
    (Service.view_seq svc = Service.ingested_seq svc);
  verify_view svc;
  ignore (Service.stop svc)

(* ---------------------------------------------------------------- *)
(* Durable lifecycle: serve from a store, stop (snapshots), recover —
   the recovered state must equal the served one exactly. *)

let test_durable_roundtrip () =
  let dir = tmp_dir "svc" in
  let g = udg ~seed:15 ~n:60 ~density:4.0 in
  let store = Store.create ~dir ~specs:[ spec ] g in
  let svc = Service.start base_config (Service.Durable store) in
  let deltas =
    [ [ Delta.Remove_edge (0, 1) ]; [ Delta.Add_edge (0, 1) ];
      [ Delta.Node_down 2 ] ]
  in
  List.iter (fun d -> ignore (Service.offer svc d)) deltas;
  wait_for "drain" (fun () -> Service.idle svc);
  let g_live, spanners_live = Service.peek svc in
  let st = Service.stop svc in
  check "served past seq 0" true (st.Service.s_seq > 0);
  let store2, _ = Store.recover ~verify:true ~dir () in
  check_int "recovered to the served seq" st.Service.s_seq (Store.seq store2);
  check "recovered graph = served graph" true
    (Graph.edges (Store.graph store2) = Graph.edges g_live);
  List.iter2
    (fun (_, live) (_, rec_state) ->
      check "recovered spanner = served spanner" true
        (Edge_set.to_list live = Repair.pairs rec_state))
    spanners_live (Store.states store2);
  Store.close store2;
  rm_rf dir

(* ---------------------------------------------------------------- *)
(* Acceptance: every chaos scenario ends in a verified state. *)

let test_chaos () =
  let dir = tmp_dir "chaos" in
  let r = Chaos.run ~seed:5 ~n:30 ~batches:5 ~dir () in
  List.iter
    (fun f -> Printf.eprintf "chaos FAIL %s: %s\n%!" f.Harness.scenario f.Harness.reason)
    r.Harness.failures;
  check "every scenario passed" true (Harness.ok r);
  check_int "all scenarios ran" (List.length Chaos.names) r.Harness.scenarios;
  check "saturation produced explicit rejections" true (Harness.count r "rejections" > 0);
  check "the wedged writer failed over" true (Harness.count r "failovers" >= 1);
  rm_rf dir

(* Seeds on which a delta drawn against g0 is quiescent on the live
   graph around the wedge point: the wedge must not key on the seq. *)
let test_wedge_quiescent_seeds () =
  let dir = tmp_dir "chaos-wedge" in
  List.iter
    (fun (seed, n, batches) ->
      let r = Chaos.run ~only:"wedged-writer-failover" ~seed ~n ~batches ~dir () in
      List.iter
        (fun f -> Printf.eprintf "chaos FAIL %s: %s\n%!" f.Harness.scenario f.Harness.reason)
        r.Harness.failures;
      check (Printf.sprintf "seed %d n %d passed" seed n) true (Harness.ok r);
      check_int "one failover" 1 (Harness.count r "failovers"))
    [ (3, 40, 10); (1, 20, 10) ];
  rm_rf dir

let () =
  Alcotest.run "serve"
    [ ( "service",
        [ Alcotest.test_case "lifecycle" `Quick test_lifecycle;
          Alcotest.test_case "offer rejection" `Quick test_offer_rejection;
          Alcotest.test_case "deadline timeout" `Quick test_deadline_timeout;
          Alcotest.test_case "stale + breaker" `Quick test_stale_and_breaker;
          Alcotest.test_case "durable round trip" `Quick test_durable_roundtrip ] );
      ( "chaos",
        [ Alcotest.test_case "all scenarios" `Slow test_chaos;
          Alcotest.test_case "wedge on quiescent seeds" `Slow test_wedge_quiescent_seeds ] ) ]
