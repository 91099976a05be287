(* Bechamel timing benchmarks: one Test.make per Table-1 construction,
   all in one grouped run, reported as ns/run estimates. *)
open Bechamel
open Toolkit
open Rs_graph
open Rs_core

let inputs () =
  let _, udg = Support.ubg_constant_density ~seed:97 ~n:300 ~density:4.0 in
  let gnp = Support.er ~seed:98 ~n:150 ~p:0.08 in
  (udg, gnp)

let tests () =
  let udg, gnp = inputs () in
  let stage f = Staged.stage (fun () -> ignore (f ())) in
  [
    (* Table 1 rows, top to bottom *)
    Test.make ~name:"greedy-(3,0)-spanner/gnp150"
      (stage (fun () -> Baseline.greedy_spanner gnp ~k:2));
    Test.make ~name:"baswana-sen-(3,0)/gnp150"
      (stage (fun () -> Baseline.baswana_sen (Rand.create 1) gnp ~k:2));
    Test.make ~name:"additive2-(1,2)/gnp150" (stage (fun () -> Baseline.additive2 gnp));
    Test.make ~name:"kconn-(1,0)-RS-k2/udg300"
      (stage (fun () -> Remote_spanner.k_connecting udg ~k:2));
    Test.make ~name:"(1,0)-RS/udg300" (stage (fun () -> Remote_spanner.exact_distance udg));
    Test.make ~name:"(1.5,0)-RS-mis/udg300"
      (stage (fun () -> Remote_spanner.low_stretch udg ~eps:0.5));
    Test.make ~name:"2conn-(2,-1)-RS/udg300"
      (stage (fun () -> Remote_spanner.two_connecting udg));
    Test.make ~name:"mpr-select-union/udg300"
      (stage (fun () -> Mpr.relay_union udg Mpr.select));
    (* building blocks *)
    Test.make ~name:"domtree-gdy-r3b1/udg300-node0"
      (stage (fun () -> Dom_tree.gdy udg ~r:3 ~beta:1 0));
    Test.make ~name:"domtree-mis-r3/udg300-node0" (stage (fun () -> Dom_tree.mis udg ~r:3 0));
    Test.make ~name:"domtree-gdy-k2/udg300-node0" (stage (fun () -> Dom_tree_k.gdy_k udg ~k:2 0));
    Test.make ~name:"domtree-mis-k2/udg300-node0" (stage (fun () -> Dom_tree_k.mis_k udg ~k:2 0));
    (* verification & proof machinery *)
    Test.make ~name:"dk-profile-k3/udg300-pair"
      (stage (fun () -> Disjoint_paths.dk_profile udg ~kmax:3 0 (Graph.n udg - 1)));
    Test.make ~name:"edge-dk-profile-k3/udg300-pair"
      (stage (fun () -> Edge_disjoint.dk_profile udg ~kmax:3 0 (Graph.n udg - 1)));
    (let h = Remote_spanner.rem_span gnp ~r:2 ~beta:1 in
     Test.make ~name:"prop1-route/gnp150-pair"
       (stage (fun () -> Prop1_route.construct gnp h ~r:2 0 (Graph.n gnp - 1))));
    (let h = Remote_spanner.k_connecting gnp ~k:2 in
     Test.make ~name:"lemma2-surgery/gnp150-pair"
       (stage (fun () -> Surgery.theorem2_paths gnp h ~k:2 0 (Graph.n gnp - 1))));
    (* multicore: same construction fanned over domains *)
    Test.make ~name:"(1,0)-RS-par4/udg300"
      (stage (fun () -> Sharded.build ~domains:4 udg (Sharded.Gdy_k { k = 1 })));
    Test.make ~name:"2conn-RS-par4/udg300"
      (stage (fun () -> Sharded.build ~domains:4 udg (Sharded.Mis_k { k = 2 })));
  ]

(* Runs the grouped benchmarks, prints the human table, and returns the
   (name, ns/run) rows so main can also emit BENCH_timings.json. *)
let run () =
  Support.section "Timings (Bechamel, monotonic clock, ns/run)";
  let grouped = Test.make_grouped ~name:"remote-spanner" (tests ()) in
  let cfg = Benchmark.cfg ~limit:50 ~quota:(Time.second 0.5) ~kde:None () in
  let raw = Benchmark.all cfg [ Instance.monotonic_clock ] grouped in
  let ols = Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |] in
  let results = Analyze.all ols Instance.monotonic_clock raw in
  let rows =
    Hashtbl.fold
      (fun name est acc ->
        let ns =
          match Analyze.OLS.estimates est with Some (x :: _) -> x | _ -> nan
        in
        (name, ns) :: acc)
      results []
    |> List.sort compare
  in
  let cols = [ ("benchmark", 42); ("time/run", 14) ] in
  Support.print_header cols;
  List.iter
    (fun (name, ns) ->
      let human =
        if Float.is_nan ns then "n/a"
        else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
        else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
        else if ns > 1e3 then Printf.sprintf "%.2f us" (ns /. 1e3)
        else Printf.sprintf "%.0f ns" ns
      in
      Support.print_row cols [ name; human ])
    rows;
  rows
