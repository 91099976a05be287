(* Multi-path routing with 2-connecting remote-spanners (Section 3).

   A 2-connecting (2,-1)-remote-spanner keeps TWO internally disjoint
   paths alive between every 2-connected pair, with bounded total
   length. This example builds one, extracts disjoint path pairs, and
   injects a node failure to show the second path survives.

     dune exec examples/multipath.exe *)

open Rs_graph
open Rs_core

let () =
  let rand = Rand.create 11 in
  let pts = Rs_geometry.Sampler.uniform rand ~n:60 ~dim:2 ~side:3.5 in
  let g = Rs_geometry.Unit_ball.udg pts in
  Printf.printf "network: %d nodes, %d links\n" (Graph.n g) (Graph.m g);

  let h = Remote_spanner.two_connecting g in
  Printf.printf "2-connecting (2,-1)-remote-spanner: %d links (%.0f%%)\n\n"
    (Edge_set.cardinal h)
    (100.0 *. float_of_int (Edge_set.cardinal h) /. float_of_int (Graph.m g));

  (* find a far 2-connected non-adjacent pair *)
  let pair =
    let best = ref None in
    Graph.iter_vertices
      (fun s ->
        let d = Bfs.dist g s in
        Graph.iter_vertices
          (fun t ->
            if s < t && d.(t) > 2 && not (Graph.mem_edge g s t) then
              match Disjoint_paths.dk g ~k:2 s t with
              | Some cost -> (
                  match !best with
                  | Some (_, _, c) when c >= cost -> ()
                  | _ -> best := Some (s, t, cost))
              | None -> ())
          g)
      g;
    !best
  in
  match pair with
  | None -> print_endline "no 2-connected pair in this sample (unlucky seed)"
  | Some (s, t, d2g) ->
      Printf.printf "pair %d <-> %d: d2 in G = %d\n" s t d2g;
      let hg = Edge_set.to_graph h in
      (match Disjoint_paths.augmented_min_sum_paths Vertex g hg ~k:2 s t with
      | None -> assert false
      | Some paths ->
          let total = List.fold_left (fun a p -> a + Path.length p) 0 paths in
          Printf.printf "two disjoint paths in H_s (total %d <= 2*%d-2 = %d):\n" total d2g
            ((2 * d2g) - 2);
          List.iter (fun p -> Format.printf "  %a@." Path.pp p) paths;
          assert (Path.pairwise_disjoint paths);

          (* fault injection: kill an internal node of the first path *)
          (match paths with
          | first :: _ -> (
              match Path.internal first with
              | [] -> ()
              | dead :: _ ->
                  Printf.printf "\nfailing node %d (on the first path)...\n" dead;
                  let g' = Graph.remove_vertex g dead in
                  let hg' = Graph.remove_vertex hg dead in
                  (match Disjoint_paths.augmented_min_sum_paths Vertex g' hg' ~k:1 s t with
                  | Some [ p ] ->
                      Format.printf "still connected in H_s: %a (%d hops; in G': %d)@."
                        Path.pp p (Path.length p) (Bfs.dist_pair g' s t)
                  | _ -> print_endline "second path lost (should not happen)"))
          | [] -> ());

          (* the guarantee holds for every pair, not just this one *)
          assert (Verify.is_k_connecting g h ~alpha:2.0 ~beta:(-1.0) ~k:2);
          print_endline "\nverified: 2-connecting (2,-1) stretch holds for all pairs")
