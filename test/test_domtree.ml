(* Tests for (r, beta)-dominating trees: Algorithms 1 and 2. *)
open Rs_graph
open Rs_core

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let udg seed n =
  let rand = Rand.create seed in
  let side = sqrt (float_of_int n /. 4.0) in
  let pts = Rs_geometry.Sampler.uniform rand ~n ~dim:2 ~side in
  Rs_geometry.Unit_ball.udg pts

let standard_graphs =
  [
    ("petersen", Gen.petersen ());
    ("cycle9", Gen.cycle 9);
    ("grid45", Gen.grid 4 5);
    ("path8", Gen.path_graph 8);
    ("hypercube4", Gen.hypercube 4);
    ("udg", udg 17 60);
    ("er", Gen.erdos_renyi (Rand.create 23) 40 0.12);
  ]

(* ---------------------------------------------------------------- *)
(* Checker sanity *)

let test_checker_accepts_trivial_on_complete () =
  let g = Gen.complete 5 in
  let t = Tree.create ~n:5 ~root:0 in
  (* no vertex at distance >= 2: the bare root is a dominating tree *)
  check "trivial ok" true (Dom_tree.is_dominating g ~r:3 ~beta:0 t)

let test_checker_rejects_bare_root_on_cycle () =
  let g = Gen.cycle 6 in
  let t = Tree.create ~n:6 ~root:0 in
  check "undominated" false (Dom_tree.is_dominating g ~r:2 ~beta:0 t)

let test_checker_rejects_foreign_edges () =
  let g = Gen.path_graph 5 in
  let t = Tree.create ~n:5 ~root:0 in
  Tree.add_edge t ~parent:0 ~child:2 (* not an edge of the path *) ;
  check "foreign edge" false (Dom_tree.is_dominating g ~r:2 ~beta:0 t)

let test_checker_manual_cycle6 () =
  (* On C6 from root 0, nodes at distance 2 are {2, 4}; the tree
     0-1 dominates 2 (neighbor 1 at depth 1), 0-5 dominates 4. *)
  let g = Gen.cycle 6 in
  let t = Tree.create ~n:6 ~root:0 in
  Tree.add_edge t ~parent:0 ~child:1;
  check "half" false (Dom_tree.is_dominating g ~r:2 ~beta:0 t);
  Tree.add_edge t ~parent:0 ~child:5;
  check "both" true (Dom_tree.is_dominating g ~r:2 ~beta:0 t)

let test_checker_depth_bound_matters () =
  (* A path 0-1-2-3: the (3,0)-tree must reach node 2's neighbor at
     depth <= 2 for v=3 (r'=3). Tree 0-1 only has depth 1; v=3 needs
     x=2 at depth 2. *)
  let g = Gen.path_graph 4 in
  let t = Tree.create ~n:4 ~root:0 in
  Tree.add_edge t ~parent:0 ~child:1;
  check "v=2 ok v=3 not" false (Dom_tree.is_dominating g ~r:3 ~beta:0 t);
  Tree.add_edge t ~parent:1 ~child:2;
  check "now ok" true (Dom_tree.is_dominating g ~r:3 ~beta:0 t)

(* ---------------------------------------------------------------- *)
(* The local certificate over flat pair arrays *)

let certify g strat root pairs =
  Certificate.check (Certificate.create ()) g strat ~root (Array.of_list pairs)

(* the hand-built trees above, as flat pairs *)
let test_certificate_hand_built () =
  let c6 = Gen.cycle 6 and p4 = Gen.path_graph 4 in
  let gdy r beta = Sharded.Gdy { r; beta } in
  check "bare root on C6" false (certify c6 (gdy 2 0) 0 []);
  check "half of C6" false (certify c6 (gdy 2 0) 0 [ 0; 1 ]);
  check "both sides of C6" true (certify c6 (gdy 2 0) 0 [ 0; 1; 0; 5 ]);
  check "depth bound on P4" false (certify p4 (gdy 3 0) 0 [ 0; 1 ]);
  check "deep enough on P4" true (certify p4 (gdy 3 0) 0 [ 0; 1; 1; 2 ]);
  check "star missing a relay" false (certify c6 (Sharded.Gdy_k { k = 1 }) 0 [ 0; 1 ]);
  check "star with both relays" true (certify c6 (Sharded.Gdy_k { k = 1 }) 0 [ 0; 1; 0; 5 ]);
  let k23 = Gen.complete_bipartite 2 3 and k3 = Sharded.Gdy_k { k = 3 } in
  check "2 of 3 branches for k=3" false (certify k23 k3 0 [ 0; 2; 0; 3 ]);
  check "all 3 branches" true (certify k23 k3 0 [ 0; 2; 0; 3; 0; 4 ]);
  check "escape clause" true (certify c6 (Sharded.Gdy_k { k = 2 }) 0 [ 0; 1; 0; 5 ]);
  let replay g root pairs =
    Certificate.replay (Certificate.create ()) g ~root (Array.of_list pairs)
  in
  let rejected what g root pairs =
    match replay g root pairs with
    | Ok () -> Alcotest.failf "%s: replay accepted" what
    | Error reason -> check (what ^ ": one-line reason") true (not (String.contains reason '\n'))
  in
  check "replay accepts a path" true (replay p4 0 [ 0; 1; 1; 2; 2; 3 ] = Ok ());
  rejected "foreign edge" (Gen.path_graph 5) 0 [ 0; 2 ];
  rejected "orphan child" p4 0 [ 1; 2 ];
  rejected "conflicting parents" c6 0 [ 0; 1; 0; 5; 1; 2; 5; 4; 4; 3; 2; 3 ];
  rejected "re-parented root" c6 0 [ 0; 1; 1; 0 ];
  check "a foreign edge fails the check too" false (certify (Gen.path_graph 5) (gdy 2 0) 0 [ 0; 2 ])

(* On every tree the batched engine builds, and on truncations of it
   (a prefix of a parents-first list is still a tree), the certificate
   agrees with the literal Tree.t checker — of its own family and of
   every other, which supplies the negative cases. *)
let test_certificate_agrees_with_literal () =
  let strategies =
    [ Sharded.Gdy { r = 2; beta = 0 }; Sharded.Gdy { r = 3; beta = 1 }; Sharded.Mis { r = 3 };
      Sharded.Gdy_k { k = 1 }; Sharded.Gdy_k { k = 2 }; Sharded.Mis_k { k = 2 } ]
  in
  let literal g strat t =
    match (strat : Sharded.strategy) with
    | Gdy { r; beta } -> Dom_tree.is_dominating g ~r ~beta t
    | Mis { r } -> Dom_tree.is_dominating g ~r ~beta:1 t
    | Gdy_k { k } -> Dom_tree_k.is_k_dominating g ~k ~beta:0 t
    | Mis_k { k } -> Dom_tree_k.is_k_dominating g ~k ~beta:1 t
  in
  let cert = Certificate.create () in
  let accepted = ref 0 and rejected = ref 0 in
  List.iter
    (fun (name, g) ->
      let n = Graph.n g in
      List.iter
        (fun built ->
          Sharded.iter_trees g built (Array.init n Fun.id) (fun root pairs len ->
              List.iter
                (fun keep ->
                  let flat = Array.sub pairs 0 (2 * keep) in
                  let t = Tree.create ~n ~root in
                  for i = 0 to keep - 1 do
                    Tree.add_edge t ~parent:flat.(2 * i) ~child:flat.((2 * i) + 1)
                  done;
                  List.iter
                    (fun strat ->
                      let verdict = Certificate.check cert g strat ~root flat in
                      if verdict then incr accepted else incr rejected;
                      if verdict <> literal g strat t then
                        Alcotest.failf "%s root %d, %d of %d pairs: %a says %b" name root keep
                          len Sharded.pp_strategy strat verdict)
                    strategies)
                (List.sort_uniq compare [ len; len / 2; max 0 (len - 1) ])))
        strategies)
    standard_graphs;
  check "both verdicts occur" true (!accepted > 0 && !rejected > 0)

(* ---------------------------------------------------------------- *)
(* Algorithm 1 (greedy) *)

let test_gdy_valid_all_graphs () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun (r, beta) ->
          Graph.iter_vertices
            (fun u ->
              let t = Dom_tree.gdy g ~r ~beta u in
              check
                (Printf.sprintf "%s u=%d r=%d beta=%d" name u r beta)
                true
                (Dom_tree.is_dominating g ~r ~beta t))
            g)
        [ (2, 0); (2, 1); (3, 0); (3, 1); (4, 1) ])
    standard_graphs

let test_gdy_root_is_u () =
  let g = Gen.petersen () in
  let t = Dom_tree.gdy g ~r:2 ~beta:0 3 in
  check_int "root" 3 (Tree.root t)

let test_gdy_depth_bounded () =
  List.iter
    (fun (name, g) ->
      let r = 3 and beta = 1 in
      Graph.iter_vertices
        (fun u ->
          let t = Dom_tree.gdy g ~r ~beta u in
          List.iter
            (fun v ->
              check (Printf.sprintf "%s depth" name) true
                (Tree.depth t v <= r - 1 + beta))
            (Tree.vertices t))
        g)
    standard_graphs

let test_gdy_deterministic () =
  let g = udg 31 50 in
  Graph.iter_vertices
    (fun u ->
      let t1 = Dom_tree.gdy g ~r:3 ~beta:1 u in
      let t2 = Dom_tree.gdy g ~r:3 ~beta:1 u in
      check "same tree" true (Tree.edges t1 = Tree.edges t2))
    g

let test_gdy_r1_is_trivial () =
  let g = Gen.petersen () in
  let t = Dom_tree.gdy g ~r:1 ~beta:0 0 in
  check_int "only root" 1 (Tree.size t)

let test_gdy_path_shape () =
  (* On a path rooted at one end, each layer's only candidate is the
     next vertex: the tree is a path prefix. *)
  let g = Gen.path_graph 6 in
  let t = Dom_tree.gdy g ~r:4 ~beta:0 0 in
  Alcotest.(check (list (pair int int)))
    "path prefix" [ (0, 1); (1, 2); (2, 3) ] (List.sort compare (Tree.edges t))

let test_gdy_star_center () =
  let g = Gen.star 8 in
  let t = Dom_tree.gdy g ~r:2 ~beta:0 0 in
  check_int "center sees everything at distance 1" 1 (Tree.size t);
  (* from a leaf, all other leaves are at distance 2, dominated by the center *)
  let t1 = Dom_tree.gdy g ~r:2 ~beta:0 1 in
  check_int "leaf tree = edge to center" 2 (Tree.size t1)

(* ---------------------------------------------------------------- *)
(* Algorithm 2 (MIS) *)

let test_mis_valid_all_graphs () =
  List.iter
    (fun (name, g) ->
      List.iter
        (fun r ->
          Graph.iter_vertices
            (fun u ->
              let t = Dom_tree.mis g ~r u in
              check
                (Printf.sprintf "%s u=%d r=%d" name u r)
                true
                (Dom_tree.is_dominating g ~r ~beta:1 t))
            g)
        [ 2; 3; 5 ])
    standard_graphs

let test_mis_members_independent () =
  (* the non-root, non-path members picked by the MIS rule are
     pairwise non-adjacent: check the leaves of each branch *)
  let g = udg 37 70 in
  Graph.iter_vertices
    (fun u ->
      let t = Dom_tree.mis g ~r:3 u in
      (* reconstruct M: members at distance >= 2 that were picked, i.e.
         tree leaves plus internal picks; we verify the weaker, still
         MIS-implied property that the tree dominates B(u,3)\B(u,1). *)
      let d = Bfs.dist ~radius:3 g u in
      Graph.iter_vertices
        (fun v ->
          if d.(v) >= 2 && d.(v) <= 3 then begin
            let dominated =
              Tree.mem t v
              || Array.exists (fun w -> Tree.mem t w) (Graph.neighbors g v)
            in
            check "mis dominates ball" true dominated
          end)
        g)
    g

let test_mis_depth_equals_graph_distance () =
  let g = Gen.grid 5 5 in
  Graph.iter_vertices
    (fun u ->
      let d = Bfs.dist g u in
      let t = Dom_tree.mis g ~r:4 u in
      List.iter
        (fun v -> check_int "depth = d_G" d.(v) (Tree.depth t v))
        (Tree.vertices t))
    g

let test_mis_size_bounded_on_udg () =
  (* Proposition 3: O(r^(p+1)) edges on a doubling UBG; in the plane
     p = 2, the proof's constant is 4^p r^(p+1). We check a generous
     empirical version of the bound. *)
  let g = udg 41 200 in
  List.iter
    (fun r ->
      Graph.iter_vertices
        (fun u ->
          let t = Dom_tree.mis g ~r u in
          check "O(r^3) edges" true
            (Tree.edge_count t <= 16 * r * r * r))
        g)
    [ 2; 3; 4 ]

(* ---------------------------------------------------------------- *)
(* Optimal sizes and ratios *)

let test_optimal_star_cycle () =
  (* C6 root 0: sphere {2,4}; need neighbors 1 (covers 2) and 5
     (covers 4): optimum 2. *)
  Alcotest.(check (option int)) "cycle" (Some 2) (Dom_tree.optimal_size_star (Gen.cycle 6) 0);
  (* complete graph: nothing at distance 2 *)
  Alcotest.(check (option int)) "complete" (Some 0) (Dom_tree.optimal_size_star (Gen.complete 4) 0)

let test_gdy_vs_optimal_star_ratio () =
  (* Proposition 2 for r=2, beta=0: ratio <= 1 + log2 Delta (we use a
     slightly generous log2 form of 1 + ln) *)
  List.iter
    (fun (name, g) ->
      let delta = float_of_int (Graph.max_degree g) in
      Graph.iter_vertices
        (fun u ->
          match Dom_tree.optimal_size_star g u with
          | None -> ()
          | Some 0 -> ()
          | Some opt ->
              let got = Tree.edge_count (Dom_tree.gdy g ~r:2 ~beta:0 u) in
              let ratio = float_of_int got /. float_of_int opt in
              check
                (Printf.sprintf "%s ratio" name)
                true
                (ratio <= 1.0 +. log delta +. 1e-9))
        g)
    [ ("petersen", Gen.petersen ()); ("udg", udg 43 50); ("grid", Gen.grid 4 4) ]

let test_optimal_lower_bound_below_gdy () =
  List.iter
    (fun (_, g) ->
      Graph.iter_vertices
        (fun u ->
          match Dom_tree.optimal_lower_bound g ~r:3 ~beta:1 u with
          | None -> ()
          | Some lb ->
              let got = Tree.edge_count (Dom_tree.gdy g ~r:3 ~beta:1 u) in
              check "lb <= constructed" true (lb <= got))
        g)
    [ ("petersen", Gen.petersen ()); ("grid", Gen.grid 4 4); ("cycle", Gen.cycle 10) ]

let () =
  Alcotest.run "domtree"
    [
      ( "checker",
        [
          Alcotest.test_case "trivial on complete" `Quick test_checker_accepts_trivial_on_complete;
          Alcotest.test_case "bare root rejected" `Quick test_checker_rejects_bare_root_on_cycle;
          Alcotest.test_case "foreign edges rejected" `Quick test_checker_rejects_foreign_edges;
          Alcotest.test_case "manual cycle6" `Quick test_checker_manual_cycle6;
          Alcotest.test_case "depth bound matters" `Quick test_checker_depth_bound_matters;
          Alcotest.test_case "local certificate: hand-built trees" `Quick
            test_certificate_hand_built;
          Alcotest.test_case "local certificate = literal checkers" `Quick
            test_certificate_agrees_with_literal;
        ] );
      ( "gdy",
        [
          Alcotest.test_case "valid on all graphs" `Quick test_gdy_valid_all_graphs;
          Alcotest.test_case "root" `Quick test_gdy_root_is_u;
          Alcotest.test_case "depth bounded" `Quick test_gdy_depth_bounded;
          Alcotest.test_case "deterministic" `Quick test_gdy_deterministic;
          Alcotest.test_case "r=1 trivial" `Quick test_gdy_r1_is_trivial;
          Alcotest.test_case "path shape" `Quick test_gdy_path_shape;
          Alcotest.test_case "star center" `Quick test_gdy_star_center;
        ] );
      ( "mis",
        [
          Alcotest.test_case "valid on all graphs" `Quick test_mis_valid_all_graphs;
          Alcotest.test_case "dominates the ball" `Quick test_mis_members_independent;
          Alcotest.test_case "depth = graph distance" `Quick test_mis_depth_equals_graph_distance;
          Alcotest.test_case "O(r^3) on UDG" `Quick test_mis_size_bounded_on_udg;
        ] );
      ( "optimal",
        [
          Alcotest.test_case "star optimum" `Quick test_optimal_star_cycle;
          Alcotest.test_case "greedy ratio (Prop 2)" `Quick test_gdy_vs_optimal_star_ratio;
          Alcotest.test_case "lower bound sanity" `Quick test_optimal_lower_bound_below_gdy;
        ] );
    ]
