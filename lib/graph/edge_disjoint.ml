(* Each undirected edge carries one unit of shared capacity, modelled
   as two opposite unit arcs of cost 1: a minimum-cost solution never
   uses both directions (cancelling them is strictly cheaper), so arc
   flows encode proper edge-disjoint path systems. All arc costs are
   positive, hence min-cost flows are cycle-free and decompose into
   simple paths. The engine is Disjoint_paths' edge mode. *)

let dk_profile g ~kmax s t = Disjoint_paths.augmented_profile Edge g g ~kmax s t

let dk g ~k s t =
  let profile = dk_profile g ~kmax:k s t in
  if Array.length profile >= k then Some profile.(k - 1) else None

let max_disjoint g s t = Array.length (dk_profile g ~kmax:max_int s t)

let min_sum_paths g ~k s t = Disjoint_paths.augmented_min_sum_paths Edge g g ~k s t

let edges_pairwise_disjoint paths =
  let seen = Hashtbl.create 64 in
  let path_ok p =
    let rec loop = function
      | a :: (b :: _ as rest) ->
          let key = if a < b then (a, b) else (b, a) in
          if Hashtbl.mem seen key then false
          else begin
            Hashtbl.replace seen key ();
            loop rest
          end
      | [ _ ] | [] -> true
    in
    loop p
  in
  List.for_all path_ok paths
